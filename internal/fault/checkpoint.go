package fault

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"rskip/internal/core"
)

// checkpointVersion guards the on-disk format.
const checkpointVersion = 1

// RunRecord is the classified outcome of one injection. Because every
// fault plan is pre-drawn from Config.Seed by run index, a record is a
// pure function of its index — which is what makes a campaign
// resumable: aggregating saved records with freshly executed ones
// yields counts bit-identical to an uninterrupted run.
//
// A record reads the run's output only when it ended without error:
// a Hang record depends on nothing but Fired, the error and the rtm
// statistics, never on the memory the runaway run left behind. Hang
// proofs (see internal/machine) rely on this to skip a runaway loop's
// iterations without performing their stores.
type RunRecord struct {
	Done      bool  `json:"done,omitempty"`
	Class     Class `json:"class,omitempty"`
	Fired     bool  `json:"fired,omitempty"`
	FalseNeg  bool  `json:"false_neg,omitempty"`
	Recovered bool  `json:"recovered,omitempty"`
	// Err is the abnormal-termination message (empty for Correct and
	// SDC); contained panics record "panic: <value>".
	Err string `json:"err,omitempty"`
}

// Validate reports a record no run could have produced: an outcome
// class outside [0, NumClasses). Records arriving from disk or over
// the wire are checked before aggregation, which indexes per-class
// tables by Class.
func (r *RunRecord) Validate() error {
	if r.Class < 0 || r.Class >= NumClasses {
		return fmt.Errorf("outcome class %d outside [0, %d)", int(r.Class), int(NumClasses))
	}
	return nil
}

// Checkpoint is the JSON-persisted progress of one campaign, as its
// Ledger writes it.
type Checkpoint struct {
	Version int `json:"version"`
	// Key fingerprints the campaign identity (benchmark, scheme, N,
	// seed, mix, hang factor); a checkpoint only resumes a campaign
	// with the same key.
	Key string `json:"key"`
	N   int    `json:"n"`
	// Done is the number of completed records (redundant with Records
	// but convenient for humans inspecting the file).
	Done    int         `json:"done"`
	Records []RunRecord `json:"records"`
}

// CampaignKey fingerprints everything that determines the fault
// plans and their outcomes (modulo wall-clock effects): benchmark,
// build config, scheme, N, seed, mix, hang factor (always 50, kept so
// existing checkpoints resume). It is the checkpoint identity — a
// checkpoint only resumes a campaign with the same key — and, verbatim, the fabric plan key: two nodes that
// derive the same CampaignKey are provably drawing the same plan list
// and will produce bit-identical records for any index range. The
// skip / multibit extension only appends to the key when one of the
// new models is in play, so checkpoints of plain SEU campaigns
// written before the extension keep resuming.
func CampaignKey(p *core.Program, s core.Scheme, cfg Config) string {
	key := fmt.Sprintf("bench=%s|cfg=%s|scheme=%s|n=%d|seed=%d|mix=%g/%g/%g/%g|hang=%d",
		p.Bench.Name, p.Cfg.Key(), s, cfg.N, cfg.Seed,
		cfg.Mix.RegFile, cfg.Mix.Result, cfg.Mix.Source, cfg.Mix.Opcode,
		HangFactor)
	if cfg.Mix.Skip != 0 || cfg.Mix.MultiBit != 0 || cfg.Exhaustive {
		key += fmt.Sprintf("|xmix=%g/%g|sw=%d|bw=%d|ex=%v",
			cfg.Mix.Skip, cfg.Mix.MultiBit, cfg.SkipWidth, cfg.BitWidth, cfg.Exhaustive)
	}
	// Same conditional-suffix discipline: stratified campaigns draw a
	// different plan list from the same seed, so they must never resume
	// a uniform campaign's checkpoint (or vice versa), while uniform
	// checkpoints written before stratification keep their keys.
	if cfg.Stratify {
		key += "|strat=1"
	}
	if cfg.Budget > 0 {
		key += fmt.Sprintf("|bud=%d", cfg.Budget)
	}
	return key
}

// CorruptCheckpointError reports a checkpoint file that exists but
// cannot be decoded — truncated by a crash mid-write outside the
// atomic rename path, damaged on disk, or written in another format
// version. Callers distinguish it from key mismatches (a healthy
// checkpoint of a different campaign) to decide whether deleting the
// file is safe.
type CorruptCheckpointError struct {
	Path string
	Err  error
}

func (e *CorruptCheckpointError) Error() string {
	return fmt.Sprintf("fault: checkpoint %s is corrupt or truncated (delete it to restart the campaign): %v", e.Path, e.Err)
}

func (e *CorruptCheckpointError) Unwrap() error { return e.Err }

// LoadCheckpoint reads a campaign checkpoint. A missing file is not an
// error — it returns (nil, nil) so callers can treat it as a fresh
// start. A file that does not decode to a well-formed checkpoint is a
// *CorruptCheckpointError.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fault: reading checkpoint: %w", err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, &CorruptCheckpointError{Path: path, Err: err}
	}
	if ck.Version != checkpointVersion {
		return nil, &CorruptCheckpointError{Path: path,
			Err: fmt.Errorf("version %d, want %d", ck.Version, checkpointVersion)}
	}
	if len(ck.Records) != ck.N {
		return nil, &CorruptCheckpointError{Path: path,
			Err: fmt.Errorf("holds %d records for n = %d", len(ck.Records), ck.N)}
	}
	for i := range ck.Records {
		if err := ck.Records[i].Validate(); err != nil {
			return nil, &CorruptCheckpointError{Path: path, Err: fmt.Errorf("record %d: %w", i, err)}
		}
	}
	return &ck, nil
}

// TempPattern is the os.CreateTemp pattern of WriteFileAtomic's
// in-flight files for target file name base. A crash between the temp
// write and the rename leaves one behind; the target itself is never
// torn.
func TempPattern(base string) string { return "." + base + ".tmp-*" }

// WriteFileAtomic replaces path with data through a temp file in the
// same directory and a rename, so a reader — or a restart after a
// crash at any point — sees the old file or the new one, never a torn
// mix. It is the one persistence primitive of campaign checkpoints and
// rskipd's job store.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), TempPattern(filepath.Base(path)))
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmpName, path)
	}
	if werr != nil {
		os.Remove(tmpName)
	}
	return werr
}

// validateFor checks that the checkpoint belongs to this campaign.
func (ck *Checkpoint) validateFor(key string, n int) error {
	if ck.Key != key {
		return fmt.Errorf("fault: checkpoint was recorded for a different campaign:\n  have %s\n  want %s", ck.Key, key)
	}
	if ck.N != n || len(ck.Records) != n {
		return fmt.Errorf("fault: checkpoint covers %d runs (%d records), want %d", ck.N, len(ck.Records), n)
	}
	return nil
}
