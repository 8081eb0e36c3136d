package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// metricDef names one number the benchmark prints. BENCHMARK.json lists
// the same names, units and bounds; the self-test holds the two together.
type metricDef struct {
	name string
	unit string
	// higher says which way is better.
	higher bool
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before -compare calls a regression; 0 on per-layer
	// metrics, which have none.
	bound float64
	// exact marks a deterministic count: it repeats bit for bit at a
	// given seed, so -compare tests it for equality.
	exact bool
}

// endToEnd are the metrics of the untraced pass, one value per workload.
// failed_share is the ninth: the contract carries it as the "failed" and
// "attempted" fields of the result line, because a metric whose healthy
// value is 0 has no relative bound. The bounds are three times the
// largest spread over ten seeds measured on the box this was built on, or
// the contract's ceiling of 0.25 (README.md has the two sets of runs).
var endToEnd = []metricDef{
	{name: "cycles_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "run_ms_p50", unit: "ms", bound: 0.25},
	{name: "run_ms_tail", unit: "ms", bound: 0.25},
	{name: "cpu_ns_per_cycle", unit: "ns", bound: 0.25},
	{name: "allocs_per_kcycle", unit: "count", bound: 0.05},
	{name: "alloc_kb_per_kcycle", unit: "KB", bound: 0.05},
	{name: "peak_rss_mb", unit: "MB", bound: 0.20},
	{name: "setup_s", unit: "s", bound: 0.25},
}

// perLayer are the metrics of the traced pass and of the fixtures, in
// the order the README's dictionary lists them.
var perLayer = []metricDef{
	{name: "router.route_compute_ns_per_cycle", unit: "ns"},
	{name: "router.vc_alloc_ns_per_cycle", unit: "ns"},
	{name: "router.switch_ns_per_cycle", unit: "ns"},
	{name: "router.vc_alloc_time_share", unit: "ratio"},
	{name: "router.vcalloc_fail_per_kcycle", unit: "count", exact: true},
	{name: "router.credit_stall_per_kcycle", unit: "count", exact: true},
	{name: "router.xbar_grants_per_cycle", unit: "count", exact: true},
	{name: "network.worklist_ns_per_cycle", unit: "ns"},
	{name: "network.link_ns_per_cycle", unit: "ns"},
	{name: "network.inject_eject_ns_per_cycle", unit: "ns"},
	{name: "network.step_ns_p50", unit: "ns"},
	{name: "network.step_ns_p99", unit: "ns"},
	{name: "network.flit_hops_per_cycle", unit: "count", exact: true},
	{name: "network.in_flight_mean", unit: "count", exact: true},
	{name: "network.probe_overhead_share", unit: "ratio"},
	{name: "traffic.tick_ns_per_cycle", unit: "ns"},
	{name: "traffic.packets_per_kcycle", unit: "count", exact: true},
	{name: "trace.player_tick_ns_per_cycle", unit: "ns"},
	{name: "flit.arena_reuse_share", unit: "ratio", exact: true},
	{name: "flit.arena_high_water", unit: "count", exact: true},
	{name: "sim.new_ms", unit: "ms"},
	{name: "sim.run_self_share", unit: "ratio"},
	{name: "sim.map_worker_util", unit: "ratio", higher: true},
	{name: "sim.map_straggler_ratio", unit: "ratio"},
	{name: "sim.map_tail_idle_share", unit: "ratio"},
	{name: "sim.latency_cycles_mean", unit: "cycles", exact: true},
	{name: "sim.accepted_flits_per_node_cycle", unit: "rate", exact: true},
	{name: "sim.unstable_share", unit: "ratio", exact: true},
	{name: "obs.enabled_overhead_share", unit: "ratio"},
	{name: "alloc.vcalloc_sparse_ns", unit: "ns"},
	{name: "alloc.vcalloc_mid_ns", unit: "ns"},
	{name: "alloc.vcalloc_sat_ns", unit: "ns"},
	{name: "alloc.vcalloc_sat_grant_share", unit: "ratio", exact: true},
	{name: "alloc.vcalloc_allocs_per_call", unit: "count", exact: true},
	{name: "alloc.rr_arbitrate_ns", unit: "ns"},
	{name: "alloc.prr_arbitrate_ns", unit: "ns"},
	{name: "routing.route_ns.footprint", unit: "ns"},
	{name: "routing.route_ns.dbar", unit: "ns"},
	{name: "routing.route_ns.oddeven", unit: "ns"},
	{name: "routing.route_ns.dor", unit: "ns"},
	{name: "routing.route_sat_ns.footprint", unit: "ns"},
	{name: "routing.route_sat_ns.dbar", unit: "ns"},
	{name: "routing.requests_per_route.footprint", unit: "count", exact: true},
	{name: "routing.requests_per_route.dbar", unit: "count", exact: true},
	{name: "flit.arena_pair_ns", unit: "ns"},
	{name: "trace.generate_ms_per_krecord", unit: "ms"},
	{name: "trace.codec_mb_per_s", unit: "MB/s", higher: true},
}

// measured is one metric value with its unit, as the result line and the
// result file carry it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name while a run computes them.
type metricSet map[string]float64

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// runRecord is one workload run in a result file: the result line plus
// what -compare and a reader need to place it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// TailPercentile is the percentile run_ms_tail was taken at.
	TailPercentile float64 `json:"tail_percentile,omitempty"`
	// Passes and Ops say how much the run measured.
	Passes int `json:"passes"`
	Ops    int `json:"ops"`
	// Failures holds one line per failed op, for the reader.
	Failures []string `json:"failures,omitempty"`
	// Raw holds the end-to-end times before calibration, and
	// host_slowdown, the factor between the two (see calibrate.go).
	Raw metricSet `json:"raw,omitempty"`
	resultLine
}

// complete builds the result line of a run from the values it measured,
// in the order of defs, and fails if one is missing or not a number a
// JSON encoder can write.
func complete(defs []metricDef, got metricSet) (map[string]measured, error) {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if v != v || v-v != 0 {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = measured{Value: v, Unit: d.unit}
	}
	return out, nil
}

// printMetrics writes one line per metric, by name, with its unit.
func printMetrics(w io.Writer, workload string, defs []metricDef, m map[string]measured) {
	for _, d := range defs {
		v := m[d.name]
		fmt.Fprintf(w, "%-20s %-40s %16.6g %s\n", workload, d.name, v.Value, v.Unit)
	}
}

// appendRecord adds rec to the JSON array in path, creating the file if
// it does not exist. The all-workloads mode runs its children one after
// another, so the read-modify-write does not race.
func appendRecord(path string, rec runRecord) error {
	var recs []runRecord
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &recs); err != nil {
			return fmt.Errorf("result file %s: %w", path, err)
		}
	case !os.IsNotExist(err):
		return err
	}
	recs = append(recs, rec)
	data, err = json.MarshalIndent(recs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
