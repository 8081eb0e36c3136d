package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"

	"nocsim"
)

// goldenOp is what the golden file records of one op: the digest of its
// simulated statistics and, for a reader of a mismatch, the two counts
// that most often explain it.
type goldenOp struct {
	Label    string `json:"label"`
	Digest   string `json:"digest"`
	Cycles   int64  `json:"cycles"`
	FlitHops int64  `json:"flit_hops"`
	Stable   bool   `json:"stable"`
}

// goldenSeed is the seed golden/seed1.json was recorded at.
const goldenSeed = 1

//go:embed golden/seed1.json
var goldenJSON []byte

// loadGolden parses the embedded golden file: workload name to its ops.
func loadGolden() (map[string][]goldenOp, error) {
	g := map[string][]goldenOp{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden/seed1.json: %w", err)
	}
	return g, nil
}

// updateGolden replaces one workload's entry in the golden file at path.
func updateGolden(path, workload string, ops []goldenOp) error {
	g := map[string][]goldenOp{}
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	g[workload] = ops
	// encoding/json writes map keys sorted, so the file is stable.
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// digest hashes the simulated statistics of a result: the numbers a
// change that only speeds the simulator up must leave identical. Host
// times and allocation counts are left out.
func digest(r *nocsim.Result) string {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	flag := func(v bool) {
		if v {
			u64(1)
		} else {
			u64(0)
		}
	}
	f64(r.Offered)
	f64(r.Accepted)
	for _, c := range []nocsim.Class{nocsim.ClassBackground, nocsim.ClassHotspot} {
		if s, ok := r.Latency[c]; ok {
			f64(s.Mean())
			u64(uint64(s.N()))
		} else {
			f64(0)
			u64(0)
		}
	}
	f64(r.P99)
	u64(uint64(r.Measured))
	u64(uint64(r.MeasuredEjected))
	flag(r.Stable)
	u64(uint64(r.BlockEvents))
	u64(uint64(r.Runtime.Cycles))
	u64(uint64(r.Runtime.FlitHops))
	return fmt.Sprintf("%016x", h.Sum64())
}

// opOutcome is what a pass keeps of one executed op.
type opOutcome struct {
	// start and end are ns since the process started.
	start, end int64
	// chaseNs is the reference chase made right after the op, in an
	// untraced run; end does not include it.
	chaseNs int64
	golden  goldenOp
	// err is set when the op returned an error, panicked, or tripped the
	// stall watchdog.
	err error
}

func (o *opOutcome) wallNs() int64 { return o.end - o.start }

// failedOutcome is the outcome of an op that did not produce a result;
// it ends now.
func failedOutcome(label string, err error) opOutcome {
	return opOutcome{err: err, golden: goldenOp{Label: label}, end: sinceStart()}
}

// outcomeOf fills the simulated side of an outcome from a result.
func outcomeOf(label string, r *nocsim.Result, err error) opOutcome {
	if err != nil {
		return failedOutcome(label, err)
	}
	out := opOutcome{golden: goldenOp{
		Label:    label,
		Digest:   digest(r),
		Cycles:   r.Runtime.Cycles,
		FlitHops: r.Runtime.FlitHops,
		Stable:   r.Stable,
	}}
	if r.Stalled {
		out.err = fmt.Errorf("stall watchdog tripped")
	}
	return out
}

// checkAgainst compares one executed op with the reference of the same
// op (the golden file, the first pass, the untraced op, or the jobs=1
// pass, named by what) and returns a failure line, or "" when they agree.
func checkAgainst(what string, got opOutcome, want goldenOp) string {
	switch {
	case got.err != nil:
		return fmt.Sprintf("%s: %v", got.golden.Label, got.err)
	case want.Stable && !got.golden.Stable:
		return fmt.Sprintf("%s: unstable where %s was stable", got.golden.Label, what)
	case got.golden.Digest != want.Digest:
		return fmt.Sprintf("%s: digest %s, %s has %s (cycles %d vs %d, flit-hops %d vs %d)",
			got.golden.Label, got.golden.Digest, what, want.Digest,
			got.golden.Cycles, want.Cycles, got.golden.FlitHops, want.FlitHops)
	}
	return ""
}
