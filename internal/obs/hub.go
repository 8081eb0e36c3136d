package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"nocsim/internal/flit"
	"nocsim/internal/network"
	"nocsim/internal/topo"
)

// Hub aggregates the live state of one or more simulation runs for the
// observability server: per-run progress, the latest per-router gauge
// sample, watchdog stalls and on-demand fabric snapshots. Simulations
// publish into it from their stepping goroutine; HTTP handlers read from
// it concurrently. All state is guarded by one mutex — updates are
// heartbeat-paced (hundreds of cycles apart), so contention is nil.
type Hub struct {
	mu        sync.Mutex
	runs      map[int64]*RunStatus
	order     []int64 // registration order; last is the newest run
	nextID    int64
	plan      int
	completed int64
	stalls    int64
	started   time.Time

	gauges *FabricGauges

	snapshot   *FabricSnapshot
	snapWanted bool
	snapDone   chan struct{}

	lastStall *StallReport
}

// maxRetainedRuns bounds the finished-run history kept for /status.
const maxRetainedRuns = 256

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{runs: map[int64]*RunStatus{}, started: time.Now()}
}

// RunStatus is the live progress of one simulation run as shown by
// /status and /metrics.
type RunStatus struct {
	ID        int64   `json:"id"`
	Label     string  `json:"label"`
	Algorithm string  `json:"algorithm,omitempty"`
	Phase     string  `json:"phase"`
	Cycle     int64   `json:"cycle"`
	Total     int64   `json:"total_cycles"`
	Percent   float64 `json:"percent"`
	InFlight  int     `json:"in_flight"`
	// OfferedFlits/EjectedFlits are whole-run totals; FlitHops is the
	// fabric's cumulative transport work.
	OfferedFlits int64 `json:"offered_flits"`
	EjectedFlits int64 `json:"ejected_flits"`
	FlitHops     int64 `json:"flit_hops"`
	// AcceptedRate is the live accepted throughput in flits/node/cycle
	// over the measurement window (0 before it opens).
	AcceptedRate float64 `json:"accepted_rate"`
	// LatencyP50/LatencyP99 are live quantiles of measured background
	// packet latency (0 until packets complete in the window).
	LatencyP50   float64 `json:"latency_p50"`
	LatencyP99   float64 `json:"latency_p99"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// Phases is the run's live phase profile (nil unless the cycle-loop
	// profiler is enabled): per-phase sampled time and allocation
	// deltas, in pipeline order.
	Phases []PhaseStats `json:"phases,omitempty"`
	// TraceEvents/TraceDropped report the lifecycle tracer's totals:
	// events observed and events lost to ring overwrite (both 0 when
	// tracing is off). A nonzero TraceDropped means trace-derived
	// analyses only see a suffix of the run.
	TraceEvents  uint64 `json:"trace_events,omitempty"`
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
	// Anatomy is the run's live latency anatomy and exercised
	// adaptiveness (nil unless the anatomy collector is enabled);
	// Occupancy is the latest footprint-occupancy sample.
	Anatomy   *Anatomy       `json:"anatomy,omitempty"`
	Occupancy *AnatomySample `json:"occupancy,omitempty"`
	// Arena is the latest flit/packet arena account of the run's fabric:
	// live/free/high-water slots and the allocated-vs-reused split.
	Arena   *flit.ArenaStats `json:"arena,omitempty"`
	Stalled bool             `json:"stalled,omitempty"`
	Done    bool             `json:"done"`
	Started time.Time        `json:"started"`
	Updated time.Time        `json:"updated"`
}

// FabricGauges is the latest per-router counter sample published by a
// heartbeat, reusing the sampler's row type.
type FabricGauges struct {
	Cycle   int64
	Samples []RouterSample
}

// RunHandle is a simulation's writer end of its RunStatus.
type RunHandle struct {
	hub *Hub
	id  int64
}

// StartRun registers a run and returns its handle.
func (h *Hub) StartRun(label, algorithm string, totalCycles int64) *RunHandle {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID++
	id := h.nextID
	h.runs[id] = &RunStatus{
		ID: id, Label: label, Algorithm: algorithm, Phase: "warmup",
		Total: totalCycles, Started: time.Now(), Updated: time.Now(),
	}
	h.order = append(h.order, id)
	// Evict the oldest finished runs beyond the retention bound.
	for len(h.order) > maxRetainedRuns {
		oldest := h.order[0]
		if r := h.runs[oldest]; r != nil && !r.Done {
			break
		}
		delete(h.runs, oldest)
		h.order = h.order[1:]
	}
	return &RunHandle{hub: h, id: id}
}

// RunUpdate carries one heartbeat's progress numbers.
type RunUpdate struct {
	Phase        string
	Cycle        int64
	InFlight     int
	OfferedFlits int64
	EjectedFlits int64
	FlitHops     int64
	AcceptedRate float64
	LatencyP50   float64
	LatencyP99   float64
	CyclesPerSec float64
	// Phases carries the profiler's live per-phase aggregates (nil when
	// profiling is off).
	Phases []PhaseStats
	// TraceEvents/TraceDropped carry the tracer's totals (0 when off).
	TraceEvents  uint64
	TraceDropped uint64
	// Anatomy carries the anatomy collector's live aggregate (nil when
	// off); Occupancy the latest footprint-occupancy sample.
	Anatomy   *Anatomy
	Occupancy *AnatomySample
	// Arena carries the fabric's flit/packet arena account.
	Arena *flit.ArenaStats
}

// Update publishes a heartbeat.
func (rh *RunHandle) Update(u RunUpdate) {
	if rh == nil {
		return
	}
	h := rh.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	r, ok := h.runs[rh.id]
	if !ok {
		return
	}
	r.Phase = u.Phase
	r.Cycle = u.Cycle
	r.InFlight = u.InFlight
	r.OfferedFlits = u.OfferedFlits
	r.EjectedFlits = u.EjectedFlits
	r.FlitHops = u.FlitHops
	r.AcceptedRate = u.AcceptedRate
	r.LatencyP50 = u.LatencyP50
	r.LatencyP99 = u.LatencyP99
	r.CyclesPerSec = u.CyclesPerSec
	if u.Phases != nil {
		r.Phases = u.Phases
	}
	r.TraceEvents = u.TraceEvents
	r.TraceDropped = u.TraceDropped
	if u.Anatomy != nil {
		r.Anatomy = u.Anatomy
	}
	if u.Occupancy != nil {
		r.Occupancy = u.Occupancy
	}
	if u.Arena != nil {
		r.Arena = u.Arena
	}
	if r.Total > 0 {
		r.Percent = 100 * float64(r.Cycle) / float64(r.Total)
		if r.Percent > 100 {
			r.Percent = 100
		}
	}
	r.Updated = time.Now()
}

// Finish marks the run complete.
func (rh *RunHandle) Finish() {
	if rh == nil {
		return
	}
	h := rh.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if r, ok := h.runs[rh.id]; ok && !r.Done {
		r.Done = true
		r.Phase = "done"
		r.Percent = 100
		r.Updated = time.Now()
		h.completed++
	}
}

// MarkStalled flags the run as stalled (watchdog fired).
func (rh *RunHandle) MarkStalled() {
	if rh == nil {
		return
	}
	h := rh.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if r, ok := h.runs[rh.id]; ok {
		r.Stalled = true
	}
}

// AddPlan raises the planned-run count shown by /status; experiment
// harnesses call it before fanning out a grid of runs.
func (h *Hub) AddPlan(n int) {
	h.mu.Lock()
	h.plan += n
	h.mu.Unlock()
}

// PublishGauges stores the latest per-router counter sample.
func (h *Hub) PublishGauges(now int64, net *network.Network) {
	g := &FabricGauges{Cycle: now, Samples: make([]RouterSample, 0, net.Nodes())}
	for id := 0; id < net.Nodes(); id++ {
		r := net.Router(id)
		rs := RouterSample{Cycle: now, Node: id, VCAllocFails: r.VCAllocFailures()}
		for d := topo.East; d <= topo.Local; d++ {
			rs.Ports[d] = PortCounters{
				BufferOcc:    r.InputBufferOccupancy(d),
				CreditStalls: r.CreditStalls(d),
				XbarGrants:   r.CrossbarGrants(d),
				LinkFlits:    r.OutputFlits(d),
			}
		}
		g.Samples = append(g.Samples, rs)
	}
	h.mu.Lock()
	h.gauges = g
	h.mu.Unlock()
}

// ReportStall records a watchdog stall and publishes its snapshot.
func (h *Hub) ReportStall(rep *StallReport) {
	h.mu.Lock()
	h.stalls++
	h.lastStall = rep
	h.publishSnapshotLocked(rep.Snapshot)
	h.mu.Unlock()
}

// Stalls returns the number of watchdog stalls recorded.
func (h *Hub) Stalls() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stalls
}

// SnapshotWanted reports whether a /snapshot request is pending; the
// simulation's heartbeat answers it with PublishSnapshot.
func (h *Hub) SnapshotWanted() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.snapWanted
}

// PublishSnapshot stores a fresh fabric snapshot and releases any waiting
// /snapshot requests.
func (h *Hub) PublishSnapshot(s *FabricSnapshot) {
	h.mu.Lock()
	h.publishSnapshotLocked(s)
	h.mu.Unlock()
}

func (h *Hub) publishSnapshotLocked(s *FabricSnapshot) {
	if s == nil {
		return
	}
	h.snapshot = s
	h.snapWanted = false
	if h.snapDone != nil {
		close(h.snapDone)
		h.snapDone = nil
	}
}

// RequestSnapshot asks the stepping goroutine for a fresh fabric dump and
// waits up to timeout for it, falling back to the latest published
// snapshot (possibly nil when nothing ever ran).
func (h *Hub) RequestSnapshot(timeout time.Duration) *FabricSnapshot {
	h.mu.Lock()
	h.snapWanted = true
	if h.snapDone == nil {
		h.snapDone = make(chan struct{})
	}
	done := h.snapDone
	h.mu.Unlock()

	select {
	case <-done:
	case <-time.After(timeout):
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.snapshot
}

// StatusReport is the /status payload.
type StatusReport struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Planned       int          `json:"runs_planned"`
	Completed     int64        `json:"runs_completed"`
	Active        int          `json:"runs_active"`
	GridPercent   float64      `json:"grid_percent"`
	Stalls        int64        `json:"watchdog_stalls"`
	Runs          []*RunStatus `json:"runs"`
}

// Status snapshots the hub state for /status: newest runs first.
func (h *Hub) Status() StatusReport {
	h.mu.Lock()
	defer h.mu.Unlock()
	rep := StatusReport{
		UptimeSeconds: time.Since(h.started).Seconds(),
		Planned:       h.plan,
		Completed:     h.completed,
		Stalls:        h.stalls,
	}
	var fractional float64
	for i := len(h.order) - 1; i >= 0; i-- {
		r, ok := h.runs[h.order[i]]
		if !ok {
			continue
		}
		cp := *r
		rep.Runs = append(rep.Runs, &cp)
		if !r.Done {
			rep.Active++
			fractional += r.Percent / 100
		}
	}
	if h.plan > 0 {
		rep.GridPercent = 100 * (float64(h.completed) + fractional) / float64(h.plan)
		if rep.GridPercent > 100 {
			rep.GridPercent = 100
		}
	}
	return rep
}

// WriteStatus writes the /status JSON.
func (h *Hub) WriteStatus(w io.Writer) error {
	rep := h.Status()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteMetrics writes the /metrics exposition.
func (h *Hub) WriteMetrics(w io.Writer) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.writeMetrics(w)
}
