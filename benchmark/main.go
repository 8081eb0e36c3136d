// Command benchmark is the repository's performance yardstick: five
// paper-shaped workloads, end-to-end metrics from an untraced closed
// loop, per-layer metrics from a traced pass and from fixtures, and the
// correctness checks that make a speed number worth reading. README.md
// beside this file is the metric dictionary.
//
//	go run . -seed 1                     every workload, untraced then traced
//	go run . -workload hotspot_sat -trace 0 -seed 7 -seconds 12
//	go run . -compare parent.json change.json
//
// With -workload it runs one workload in this process and prints, as the
// last line of standard output, the result object BENCHMARK.json's
// contract describes. Without it, it runs itself once per workload and
// kind of run, so that peak memory is a per-workload number.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	smoke        bool
	out          string
	traceOut     string
	updateGolden string
	compare      bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload only, in this process (default: each in a process of its own)")
	flag.Int64Var(&o.seed, "seed", goldenSeed, "workload seed; the golden file is checked at seed 1, the consistency checks at every seed")
	flag.Float64Var(&o.seconds, "seconds", 12, "measure for about this long per run")
	flag.IntVar(&o.trace, "trace", -1, "with -workload: 0 for the untraced run and its end-to-end metrics, 1 for the traced run and its per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "self-test size: one pass, two ops per workload")
	flag.StringVar(&o.out, "out", "", "append each run's record to the JSON array in this file (the input of -compare)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans to this file as Chrome trace-event JSON")
	flag.StringVar(&o.updateGolden, "update-golden", "", "write the digests of this run into this golden file (golden/seed1.json) instead of checking them; needs -seed 1")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare parent.json change.json")
	flag.Parse()

	var err error
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case flag.NArg() != 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case o.updateGolden != "" && o.seed != goldenSeed:
		err = fmt.Errorf("-update-golden records seed %d, not seed %d", goldenSeed, o.seed)
	case o.workload == "":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result line.
func runOne(o options) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-workload needs -trace 0 or -trace 1")
	}
	b := budget{seconds: o.seconds, smoke: o.smoke}

	var rec runRecord
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
		rec, err = runTraced(w, o.seed, b, o.traceOut)
	} else {
		var ops []goldenOp
		rec, ops, err = runEndToEnd(w, o.seed, b, o.updateGolden != "")
		if err == nil && o.updateGolden != "" {
			err = updateGolden(o.updateGolden, w.name, ops)
		}
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED %s\n", w.name, f)
	}
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, w.name, defs, rec.Metrics)
	if rec.Raw != nil {
		for _, name := range append(calibrated, "host_slowdown") {
			fmt.Printf("%-20s %-40s %16.6g (before calibration)\n", w.name, "raw."+name, rec.Raw[name])
		}
	}
	fmt.Printf("%-20s %-40s %16.6g %s\n", w.name, "failed_share", float64(rec.Failed)/float64(rec.Attempted), "ratio")
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec.resultLine)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d ops failed", w.name, rec.Failed, rec.Attempted)
	}
	return nil
}

// runAll runs every workload, untraced and then traced, each in a child
// process of this binary; it waits for each child before the next.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			if o.updateGolden != "" && trace == 1 {
				continue
			}
			args := []string{
				"-workload", w.name, "-trace", fmt.Sprint(trace),
				"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				fmt.Sprintf("-smoke=%v", o.smoke),
			}
			if o.out != "" {
				args = append(args, "-out", o.out)
			}
			if o.updateGolden != "" {
				args = append(args, "-update-golden", o.updateGolden)
			}
			if o.traceOut != "" && trace == 1 {
				ext := filepath.Ext(o.traceOut)
				args = append(args, "-trace-out", strings.TrimSuffix(o.traceOut, ext)+"."+w.name+ext)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", w.name, trace, err)
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}
