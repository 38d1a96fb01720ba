package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSpec reads BENCHMARK.json from the repository root, found from
// either the root or the benchmark directory.
func loadSpec() (*benchmarkSpec, error) {
	var spec benchmarkSpec
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if err = readJSON(p, &spec); err == nil {
			return &spec, nil
		}
	}
	return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
}

// verdict judges one metric's change from base to next. worsening is
// the relative change in the metric's bad direction. A change is
// unresolved when either side's spread (IQR over median) exceeds the
// bound and the two interquartile ranges overlap; worse when it
// worsens by more than the bound; better when it improves by more
// than the spread and the ranges separate; flat otherwise.
func verdict(base, next stat, higherBetter bool, bound float64) (worsening float64, v string) {
	if base.Median == 0 {
		return 0, "unresolved"
	}
	delta := (next.Median - base.Median) / base.Median
	worsening = delta
	if higherBetter {
		worsening = -delta
	}
	spread := 0.0
	for _, s := range []stat{base, next} {
		if s.Median != 0 {
			spread = max(spread, (s.Q3-s.Q1)/s.Median)
		}
	}
	separated := next.Q1 > base.Q3 || next.Q3 < base.Q1
	switch {
	case spread > bound && !separated:
		return worsening, "unresolved"
	case worsening > bound:
		return worsening, "worse"
	case -worsening > spread && separated:
		return worsening, "better"
	}
	return worsening, "flat"
}

// compareFiles prints one row per workload x end-to-end metric of two
// results.json files, and then one per workload x request kind: the
// end-to-end latency folds the kinds together, so a regression in one
// kind shows in full only in its own row. A kind's median latency is
// judged against the bound of request_p50_ms.
func compareFiles(w io.Writer, basePath, nextPath string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	var base, next results
	if err := readJSON(basePath, &base); err != nil {
		return err
	}
	if err := readJSON(nextPath, &next); err != nil {
		return err
	}
	byWorkload := map[string]*report{}
	for _, r := range base.Runs {
		if !r.Traced {
			byWorkload[r.Workload] = r
		}
	}
	fmt.Fprintf(w, "%-12s %-32s %28s %28s %9s  %s\n", "workload", "metric", "base median [q1,q3]", "new median [q1,q3]", "worse by", "verdict")
	row := func(workload, metric string, b, n stat, higherBetter bool, bound float64) {
		worse, v := verdict(b, n, higherBetter, bound)
		fmt.Fprintf(w, "%-12s %-32s %28s %28s %8.1f%%  %s\n", workload, metric, fmtStat(b), fmtStat(n), 100*worse, v)
	}
	kindBound := 0.0
	for _, m := range spec.EndToEnd {
		if m.Name == "request_p50_ms" {
			kindBound = m.Bound
		}
	}
	rows := 0
	for _, nr := range next.Runs {
		br := byWorkload[nr.Workload]
		if nr.Traced || br == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			b, okB := br.Metrics[m.Name]
			n, okN := nr.Metrics[m.Name]
			if okB && okN {
				row(nr.Workload, m.Name, b, n, m.Better == "higher", m.Bound)
				rows++
			}
		}
		kinds := make([]string, 0, len(nr.Requests))
		for k := range nr.Requests {
			if _, ok := br.Requests[k]; ok {
				kinds = append(kinds, k)
			}
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			row(nr.Workload, "request:"+k, br.Requests[k], nr.Requests[k], false, kindBound)
		}
	}
	if rows == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: the two files share no untraced workload")
	}
	return nil
}

func fmtStat(s stat) string {
	return fmt.Sprintf("%.4g [%.4g,%.4g]", s.Median, s.Q1, s.Q3)
}
