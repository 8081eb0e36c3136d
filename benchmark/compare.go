package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The compare mode applies the choosing-metrics guide's rule to two
// result files, the parent's and the change's. Each file holds the
// records of several complete runs (-out appends); the i-th run of a
// workload in one file is paired with the i-th in the other, and whoever
// made the runs alternated which side went first.

// verdict is the outcome for one (metric, workload) pair.
type verdict string

const (
	verdictGain       verdict = "gain"
	verdictNoWorse    verdict = "no worse"
	verdictUnresolved verdict = "unresolved"
	verdictRegression verdict = "REGRESSION"
	verdictEqual      verdict = "equal"
	verdictDiffers    verdict = "DIFFERS"
	verdictMissing    verdict = "missing"
)

// bad reports whether the verdict fails the comparison.
func (v verdict) bad() bool { return v == verdictRegression || v == verdictDiffers }

// minGainPairs is the fewest pairs a gain may be claimed on.
const minGainPairs = 10

// judge compares the parent's values a with the change's values b of one
// metric on one workload, paired by index.
//
// A gain needs at least ten pairs, a win in at least nine tenths of them
// (ties count for neither side), and medians further apart than the
// distance between the parent's own quartiles. Otherwise the change is
// a regression when its median is worse than the parent's by more than
// the bound, unresolved when the parent's spread is wider than the bound
// (unless every run of the change beats every run of the parent), and
// no worse in every other case. Exact counts must be equal.
func judge(d metricDef, a, b []float64) verdict {
	n := min(len(a), len(b))
	if n == 0 {
		return verdictMissing
	}
	a, b = a[:n], b[:n]
	if d.exact {
		for i := range a {
			if a[i] != b[i] {
				return verdictDiffers
			}
		}
		return verdictEqual
	}
	better := func(x, y float64) bool {
		if d.higher {
			return x > y
		}
		return x < y
	}
	wins := 0
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	ma, mb := median(a), median(b)
	var iqr float64
	if n >= 2 {
		q1, q3 := quartiles(a)
		iqr = q3 - q1
	}
	diff := mb - ma
	if diff < 0 {
		diff = -diff
	}
	if n >= minGainPairs && wins*10 >= n*9 && better(mb, ma) && diff > iqr {
		return verdictGain
	}
	if d.bound == 0 {
		// A per-layer timing has no bound: it explains, it does not gate.
		return verdictNoWorse
	}
	limit := d.bound * ma
	if limit < 0 {
		limit = -limit
	}
	if better(ma, mb) && diff > limit {
		return verdictRegression
	}
	if iqr > limit {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if !better(x, y) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return verdictUnresolved
		}
	}
	return verdictNoWorse
}

// loadRuns reads a result file into values[workload][metric].
func loadRuns(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	values := map[string]map[string][]float64{}
	for _, r := range recs {
		if !r.Correct {
			return nil, fmt.Errorf("%s: a %s run failed %d of %d ops; a comparison needs correct runs", path, r.Workload, r.Failed, r.Attempted)
		}
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		// Iterating r.Metrics in map order is fine: each name has its
		// own slice, and runs are appended in file order.
		for name, v := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], v.Value)
		}
	}
	return values, nil
}

// compareFiles prints one block per metric with one row per workload,
// and fails on a regression or on an exact count that differs.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := loadRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := loadRuns(changePath)
	if err != nil {
		return err
	}
	bad := 0
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			dir := "lower is better"
			if d.higher {
				dir = "higher is better"
			}
			switch {
			case d.exact:
				fmt.Fprintf(w, "%s (%s, exact)\n", d.name, d.unit)
			case d.bound > 0:
				fmt.Fprintf(w, "%s (%s, %s, bound %.0f%%)\n", d.name, d.unit, dir, d.bound*100)
			default:
				fmt.Fprintf(w, "%s (%s, %s)\n", d.name, d.unit, dir)
			}
			for _, wl := range workloads {
				a, b := parent[wl.name][d.name], change[wl.name][d.name]
				v := judge(d, a, b)
				if v.bad() {
					bad++
				}
				n := min(len(a), len(b))
				if n == 0 {
					fmt.Fprintf(w, "  %-20s %s\n", wl.name, v)
					continue
				}
				ma, mb := median(a[:n]), median(b[:n])
				var q1, q3 float64
				if n >= 2 {
					q1, q3 = quartiles(a[:n])
				}
				fmt.Fprintf(w, "  %-20s %-11s parent %.6g [%.6g, %.6g]  change %.6g (%+.2f%%)  pairs %d\n",
					wl.name, v, ma, q1, q3, mb, (mb/ma-1)*100, n)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d (metric, workload) pairs regressed or differ", bad)
	}
	return nil
}
