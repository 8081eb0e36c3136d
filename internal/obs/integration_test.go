package obs_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"nocsim/internal/flit"
	"nocsim/internal/network"
	"nocsim/internal/obs"
	"nocsim/internal/sim"
	"nocsim/internal/topo"
	"nocsim/internal/traffic"
)

// runObserved runs a short 4x4 uniform-traffic simulation with every
// collector enabled and returns the result plus the collector.
func runObserved(t *testing.T) (*sim.Result, *obs.Collector, sim.Config) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.VCs = 4
	cfg.WarmupCycles = 300
	cfg.MeasureCycles = 600
	cfg.DrainCycles = 4000
	cfg.Obs = obs.Options{Trace: true, SamplePeriod: 50, Heatmap: true}
	res := sim.MustNew(cfg, observedLoad(cfg)).Run()
	if res.Obs == nil {
		t.Fatal("Result.Obs nil with collectors enabled")
	}
	return res, res.Obs, cfg
}

// observedLoad is the traffic runObserved offers.
func observedLoad(cfg sim.Config) *traffic.Generator {
	return &traffic.Generator{Pattern: traffic.Uniform{Nodes: cfg.Mesh().Nodes()},
		Rate: 0.2, Size: traffic.UniformSize(1, 4)}
}

// TestSeamSharedBySimMetricsAndTracer checks that the simulator's own
// metrics and the tracer both consume the network.Sinks seam in one run:
// blocking statistics (fed by sim.metrics) and lifecycle events (fed by
// the Collector) must both be populated. The failure event is the one
// they share, through the tracer's forward-then-record wrapper, so the
// blocking statistics must not move when tracing is switched on.
func TestSeamSharedBySimMetricsAndTracer(t *testing.T) {
	res, col, cfg := runObserved(t)
	if !res.Stable {
		t.Fatal("test load should be stable")
	}
	if res.Measured == 0 {
		t.Fatal("no packets measured")
	}
	// sim.metrics side: purity needs VC-alloc failure events.
	if res.BlockEvents == 0 {
		t.Error("sim metrics saw no block events")
	}
	cfg.Obs = obs.Options{}
	plain := sim.MustNew(cfg, observedLoad(cfg)).Run()
	if res.BlockEvents != plain.BlockEvents || res.Purity != plain.Purity ||
		res.HoLDegree != plain.HoLDegree {
		t.Errorf("blocking statistics moved with tracing on: events %d purity %v HoL %v, untraced %d %v %v",
			res.BlockEvents, res.Purity, res.HoLDegree,
			plain.BlockEvents, plain.Purity, plain.HoLDegree)
	}
	// Collector side.
	if col.Tracer.Total() == 0 {
		t.Error("tracer saw no events")
	}
	kinds := map[obs.EventKind]int{}
	for _, e := range col.Tracer.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []obs.EventKind{obs.EventInject, obs.EventRoute, obs.EventBlock, obs.EventGrant, obs.EventHop, obs.EventEject} {
		if kinds[k] == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}

	// Past saturation the failure event fires for thousands of heads a
	// cycle, most of them on the later cycles of a span, which carry no
	// packet, and the sinks are swapped at the window's edges.
	t.Run("hotspot past saturation", func(t *testing.T) {
		traced, clock := runHotspotSaturated(t, obs.Options{Trace: true, TraceCapacity: 1 << 21})
		plain, _ := runHotspotSaturated(t, obs.Options{})
		if traced.BlockEvents != plain.BlockEvents || traced.Purity != plain.Purity ||
			traced.HoLDegree != plain.HoLDegree {
			t.Errorf("blocking statistics moved with tracing on: events %d purity %v HoL %v, untraced %d %v %v",
				traced.BlockEvents, traced.Purity, traced.HoLDegree,
				plain.BlockEvents, plain.Purity, plain.HoLDegree)
		}
		// The span starts are the failures that carry a packet: every one
		// recorded must name it.
		starts := 0
		for _, e := range traced.Obs.Tracer.Events() {
			if e.Kind != obs.EventBlock {
				continue
			}
			starts++
			if e.Packet == 0 || e.Src == e.Dest {
				t.Fatalf("vc-block span start without its packet: %+v", e)
			}
		}
		if starts == 0 || int64(starts) >= clock.total() {
			t.Errorf("%d vc-block span starts for %d failures; want some, and fewer than failures", starts, clock.total())
		}
		// The window is which sink is attached: the simulator's metrics
		// count exactly the failures of its cycles, and the fixture has
		// failures on both sides of it to leave out.
		before, in, after := clock.atOpen, clock.atClose-clock.atOpen, clock.total()-clock.atClose
		if before == 0 || after == 0 {
			t.Fatalf("fixture has %d failures before the window and %d after; want both", before, after)
		}
		if traced.BlockEvents != in {
			t.Errorf("metrics counted %d failures, the routers %d inside the window (%d before, %d after)",
				traced.BlockEvents, in, before, after)
		}
	})
}

// failureClock is an injector that offers nothing: ticked at the top of
// every cycle, it reads the routers' cumulative VC-allocation failure
// count at the first cycle of the measurement window and at the first
// after it.
type failureClock struct {
	net             *network.Network
	open, close     int64
	atOpen, atClose int64
}

func (c *failureClock) Init(topo.Mesh, *rand.Rand) {}

func (c *failureClock) Tick(now int64, _ func(*flit.Packet)) {
	switch now {
	case c.open:
		c.atOpen = c.total()
	case c.close:
		c.atClose = c.total()
	}
}

func (c *failureClock) total() int64 {
	var n int64
	for id := 0; id < c.net.Nodes(); id++ {
		n += c.net.Router(id).VCAllocFailures()
	}
	return n
}

// runHotspotSaturated runs Table 3's hotspot flows at 0.70 over 0.30 of
// uniform background on the Table 2 mesh — the benchmark's hotspot_sat
// load — with a failureClock around the measurement window.
func runHotspotSaturated(t *testing.T, o obs.Options) (*sim.Result, *failureClock) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 300, 600, 600
	cfg.Obs = o
	flows := traffic.HotspotFlows()
	var sources []int
	for src := range flows.Flows {
		sources = append(sources, src)
	}
	sort.Ints(sources)
	hot := &traffic.Generator{Nodes: sources, Pattern: flows, Rate: 0.70, Class: flit.ClassHotspot}
	bg := &traffic.Generator{Nodes: traffic.BackgroundNodes(cfg.Mesh()),
		Pattern: traffic.Uniform{Nodes: cfg.Mesh().Nodes()}, Rate: 0.30}
	clock := &failureClock{open: cfg.WarmupCycles, close: cfg.WarmupCycles + cfg.MeasureCycles}
	s := sim.MustNew(cfg, hot, bg, clock)
	clock.net = s.Network()
	return s.Run(), clock
}

// TestJSONLFromSimulation checks the JSONL export line by line.
func TestJSONLFromSimulation(t *testing.T) {
	_, col, _ := runObserved(t)
	var buf bytes.Buffer
	if err := col.Tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d not JSON: %v", n, err)
		}
		if _, ok := m["kind"]; !ok {
			t.Fatalf("line %d missing kind", n)
		}
		n++
	}
	if n != col.Tracer.Len() {
		t.Errorf("wrote %d lines, tracer retains %d", n, col.Tracer.Len())
	}
}

// TestHeatmapReconcilesWithAccepted checks the acceptance criterion: the
// heatmap's per-node ejection grid must total exactly Accepted x nodes x
// measurement cycles.
func TestHeatmapReconcilesWithAccepted(t *testing.T) {
	res, col, cfg := runObserved(t)
	nodes := int64(cfg.Mesh().Nodes())
	wantFlits := int64(res.Accepted*float64(nodes)*float64(cfg.MeasureCycles) + 0.5)
	if got := col.Heatmap.TotalEjected(); got != wantFlits {
		t.Errorf("heatmap total %d, want %d (Accepted=%v over %d nodes x %d cycles)",
			got, wantFlits, res.Accepted, nodes, cfg.MeasureCycles)
	}
	if col.Heatmap.TotalEjected() == 0 {
		t.Fatal("heatmap counted nothing")
	}

	// The CSV grid section must re-total to the same number.
	var buf bytes.Buffer
	if err := col.Heatmap.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	var gridTotal int64
	rows := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cells := strings.Split(line, ",")
		if len(cells) != cfg.Width {
			break // link section reached
		}
		for _, c := range cells {
			v, err := strconv.ParseInt(c, 10, 64)
			if err != nil {
				t.Fatalf("bad grid cell %q: %v", c, err)
			}
			gridTotal += v
		}
		rows++
	}
	if rows != cfg.Height {
		t.Errorf("grid has %d rows, want %d", rows, cfg.Height)
	}
	if gridTotal != wantFlits {
		t.Errorf("CSV grid total %d, want %d", gridTotal, wantFlits)
	}
	if !strings.Contains(buf.String(), "# directed links:") {
		t.Error("CSV missing link section")
	}
}

// TestHeatmapLinks checks the link view nocsim -heatmap prints: every
// directed inter-router link once, utilizations in range, the mean
// strictly inside (0,1) under load, and Hottest sorted most loaded first
// and agreeing with LinkFlits.
func TestHeatmapLinks(t *testing.T) {
	_, col, cfg := runObserved(t)
	hm := col.Heatmap
	if hm.Cycles() != cfg.MeasureCycles {
		t.Errorf("cycles = %d, want %d", hm.Cycles(), cfg.MeasureCycles)
	}
	links := hm.Links()
	// 4x4 mesh: 2*(3*4)*2 = 48 directed inter-router links.
	if len(links) != 48 {
		t.Fatalf("links = %d, want 48", len(links))
	}
	for _, l := range links {
		if l.Utilization < 0 || l.Utilization > 1 {
			t.Errorf("link %d->%d utilization %v out of range", l.From, l.To, l.Utilization)
		}
		if l.Flits != hm.LinkFlits(l.From, l.Dir) {
			t.Errorf("link %d->%d flits %d, LinkFlits %d", l.From, l.To, l.Flits, hm.LinkFlits(l.From, l.Dir))
		}
	}
	if mean := hm.MeanUtilization(); mean <= 0 || mean >= 1 {
		t.Errorf("mean utilization = %v", mean)
	}
	hot := hm.Hottest(5)
	if len(hot) != 5 {
		t.Fatalf("hottest = %d", len(hot))
	}
	for i := 1; i < len(hot); i++ {
		if hot[i].Utilization > hot[i-1].Utilization {
			t.Error("hottest not sorted")
		}
	}
	if n := len(hm.Hottest(100)); n != 48 {
		t.Errorf("Hottest(100) = %d links, want all 48", n)
	}
}

// TestHeatmapEgressGrid runs one persistent flow 0 -> 3 along the top
// row: the grid is a header plus one line per mesh row, the flow's row
// is lit and the idle bottom row is blank.
func TestHeatmapEgressGrid(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.VCs = 4
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 300, 2000
	cfg.Obs = obs.Options{Heatmap: true}
	gen := &traffic.Generator{
		Nodes:   []int{0},
		Pattern: traffic.Permutation{Flows: map[int]int{0: 3}},
		Rate:    1.0,
	}
	out := sim.MustNew(cfg, gen).Run().Obs.Heatmap.EgressGrid()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + 4 rows
		t.Fatalf("heatmap lines = %d:\n%s", len(lines), out)
	}
	if lines[1] == lines[4] {
		t.Errorf("flow row should differ from idle row:\n%s", out)
	}
	if strings.TrimSpace(lines[4]) != "" {
		t.Errorf("idle row should be blank:\n%s", out)
	}
}

// TestHeatmapLinkFlowConservation sanity-checks the link section: every
// flit ejected somewhere must have crossed at least the ejection link, so
// total link flits >= total ejected flits.
func TestHeatmapLinkFlowConservation(t *testing.T) {
	_, col, cfg := runObserved(t)
	m := cfg.Mesh()
	var linkTotal, ejectLinks int64
	for id := 0; id < m.Nodes(); id++ {
		for d := topo.East; d <= topo.Local; d++ {
			f := col.Heatmap.LinkFlits(id, d)
			if f < 0 {
				t.Fatalf("negative link count at node %d dir %v", id, d)
			}
			linkTotal += f
			if d == topo.Local {
				ejectLinks += f
			}
		}
	}
	if linkTotal < col.Heatmap.TotalEjected() {
		t.Errorf("link total %d below ejected total %d", linkTotal, col.Heatmap.TotalEjected())
	}
	// Ejection-link traffic covers at least the window's ejected flits
	// (it also sees warmup-born packets draining through the window).
	if ejectLinks < col.Heatmap.TotalEjected() {
		t.Errorf("ejection links carried %d flits, below window ejections %d",
			ejectLinks, col.Heatmap.TotalEjected())
	}
}

// TestSamplerSeries checks the time-series counters: correct cadence,
// monotone cumulative counters, and a parseable CSV.
func TestSamplerSeries(t *testing.T) {
	_, col, cfg := runObserved(t)
	samples := col.Sampler.Samples()
	if len(samples) == 0 {
		t.Fatal("sampler recorded nothing")
	}
	nodes := cfg.Mesh().Nodes()
	if len(samples)%nodes != 0 {
		t.Errorf("%d samples not a multiple of %d routers", len(samples), nodes)
	}
	// Per (node) the cumulative counters never decrease over time.
	last := map[int]obs.RouterSample{}
	for _, s := range samples {
		if prev, ok := last[s.Node]; ok {
			if s.Cycle <= prev.Cycle {
				t.Fatalf("node %d: cycle went backwards %d -> %d", s.Node, prev.Cycle, s.Cycle)
			}
			if s.VCAllocFails < prev.VCAllocFails {
				t.Errorf("node %d: vc_alloc_fails decreased", s.Node)
			}
			for d := topo.East; d <= topo.Local; d++ {
				if s.Ports[d].LinkFlits < prev.Ports[d].LinkFlits {
					t.Errorf("node %d port %v: link_flits decreased", s.Node, d)
				}
				if s.Ports[d].XbarGrants < prev.Ports[d].XbarGrants {
					t.Errorf("node %d port %v: xbar_grants decreased", s.Node, d)
				}
			}
		}
		last[s.Node] = s
	}

	var buf bytes.Buffer
	if err := col.Sampler.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "cycle,node,port,buffer_occ,credit_stalls,xbar_grants,link_flits,vc_alloc_fails" {
		t.Errorf("unexpected CSV header %q", lines[0])
	}
	if want := len(samples)*int(topo.NumPorts) + 1; len(lines) != want {
		t.Errorf("CSV has %d lines, want %d", len(lines), want)
	}
}

// TestRuntimeStatsPopulated checks the simulator's self-metrics.
func TestRuntimeStatsPopulated(t *testing.T) {
	res, _, _ := runObserved(t)
	rt := res.Runtime
	if rt.Cycles <= 0 || rt.WallSeconds <= 0 {
		t.Fatalf("runtime stats empty: %+v", rt)
	}
	if rt.CyclesPerSec <= 0 || rt.FlitHops <= 0 || rt.FlitHopsPerSec <= 0 {
		t.Errorf("derived rates empty: %+v", rt)
	}
	if rt.String() == "" {
		t.Error("empty RuntimeStats.String")
	}
}

// TestDisabledObservability checks the zero-cost path wiring: no
// collector, and results identical to an observed run with the same seed.
func TestDisabledObservability(t *testing.T) {
	base := sim.DefaultConfig()
	base.Width, base.Height = 4, 4
	base.VCs = 4
	base.WarmupCycles = 200
	base.MeasureCycles = 400
	base.DrainCycles = 3000

	run := func(o obs.Options) *sim.Result {
		cfg := base
		cfg.Obs = o
		gen := &traffic.Generator{Pattern: traffic.Uniform{Nodes: cfg.Mesh().Nodes()},
			Rate: 0.2, Size: traffic.FixedSize(2)}
		res := sim.MustNew(cfg, gen).Run()
		if o.Enabled() && res.Obs == nil {
			t.Fatal("collector missing")
		}
		if !o.Enabled() && res.Obs != nil {
			t.Fatal("collector present when disabled")
		}
		return res
	}
	off := run(obs.Options{})
	on := run(obs.Options{Trace: true, SamplePeriod: 25, Heatmap: true})
	// Observability must not perturb simulation behavior.
	if off.Accepted != on.Accepted || off.Measured != on.Measured ||
		off.P99 != on.P99 || off.BlockEvents != on.BlockEvents {
		t.Errorf("observability changed results:\noff: %v\non:  %v", off, on)
	}
}
