package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded interval around a call from the benchmark into
// a module of the program. Spans live in memory until the run ends.
type span struct {
	Name   string         `json:"name"`
	ID     int64          `json:"id"`
	Parent int64          `json:"parent"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// module is the layer a span belongs to: its name up to the first dot
// ("fault.Campaign" belongs to fault).
func (s span) module() string {
	m, _, _ := strings.Cut(s.Name, ".")
	return m
}

// tracer records spans. A nil *tracer records nothing, so untraced
// runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanKey struct{}

// start opens a span named name as a child of the span carried by ctx.
// attrs alternate keys and values. The returned function closes it.
func (t *tracer) start(ctx context.Context, name string, attrs ...any) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(int64)
	var kv map[string]any
	if len(attrs) > 0 {
		kv = map[string]any{}
		for i := 0; i+1 < len(attrs); i += 2 {
			kv[fmt.Sprint(attrs[i])] = attrs[i+1]
		}
	}
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		Start: time.Since(t.t0).Nanoseconds(), Attrs: kv})
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, id), func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// snapshot copies the recorded spans (none for a nil tracer).
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is a span's duration minus the part of its interval that
// its children cover. Children may run in parallel and overlap each
// other, and may outlive the parent; only their union inside the
// parent's interval counts.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.End - parent.Start - covered
}

// layerRow is one module's share of a traced run.
type layerRow struct {
	Module string
	SelfNS int64
	Spans  int
}

// layerTable sums self time per module over spans.
func layerTable(spans []span) []layerRow {
	kids := map[int64][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.module()]
		if r == nil {
			r = &layerRow{Module: s.module()}
			rows[s.module()] = r
		}
		r.SelfNS += selfTime(s, kids[s.ID])
		r.Spans++
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNS > out[j].SelfNS })
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeLayers renders one workload's section of layers.txt: module
// self times against the workload span's duration, then the per-layer
// metrics the probes measured.
func writeLayers(w io.Writer, workload string, spans []span, layers map[string]stat) {
	var wall int64
	for _, s := range spans {
		if s.Parent == 0 {
			wall += s.End - s.Start
		}
	}
	fmt.Fprintf(w, "== %s (traced wall %.3f s; shares are busy time over wall and may sum past 1 under concurrency)\n",
		workload, float64(wall)/1e9)
	fmt.Fprintf(w, "%-10s %12s %8s %7s\n", "module", "self_ms", "share", "spans")
	for _, r := range layerTable(spans) {
		share := 0.0
		if wall > 0 {
			share = float64(r.SelfNS) / float64(wall)
		}
		fmt.Fprintf(w, "%-10s %12.1f %8.3f %7d\n", r.Module, float64(r.SelfNS)/1e6, share, r.Spans)
	}
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-40s %14s %s\n", "per-layer metric", "value", "unit")
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %14.4f %s\n", n, layers[n].Median, layers[n].Unit)
	}
	fmt.Fprintln(w)
}
