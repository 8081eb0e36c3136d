package main

import (
	"encoding/json"
	"os"
	"sync"
)

// span is one timed interval at a layer boundary. Times are ns since the
// process started. parent is the index of the span that caused it, or
// noSpan for a root; the spans of one op hang under the op's span.
type span struct {
	name       string
	start, end int64
	parent     int32
	// count is 0 for a span that happened once in [start, end]. An
	// aggregate span stands for count occurrences whose durations sum to
	// end-start: the cycles of a run and the phases inside them are kept
	// this way, because a span per cycle would be millions.
	count int64
	// lane separates the ops a worker pool runs side by side.
	lane int32
}

const noSpan = int32(-1)

func (s *span) dur() int64 { return s.end - s.start }

// spanTree holds every span of a traced run in memory; it is written out
// once, when the run ends.
type spanTree struct {
	mu    sync.Mutex
	spans []span
	// samples are raw spans of one cycle in sampleEvery, kept beside the
	// aggregates so that a reader can see real cycles; their parent is
	// the aggregate span they are one occurrence of. They are not
	// children in the self-time sense: the aggregate already counts them.
	samples []span
	lanes   []bool
}

// sampleEvery is the raw-sample period in cycles.
const sampleEvery = 64

// add records a finished span and returns its index.
func (t *spanTree) add(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// begin records a span that is still open.
func (t *spanTree) begin(name string, parent, lane int32) int32 {
	return t.add(span{name: name, start: sinceStart(), parent: parent, lane: lane})
}

// finish closes an open span and returns its duration in ns.
func (t *spanTree) finish(id int32) int64 {
	now := sinceStart()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	return t.spans[id].dur()
}

// addSamples records raw sample spans.
func (t *spanTree) addSamples(ss []span) {
	t.mu.Lock()
	t.samples = append(t.samples, ss...)
	t.mu.Unlock()
}

// takeLane returns the lowest lane no running op holds.
func (t *spanTree) takeLane() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, busy := range t.lanes {
		if !busy {
			t.lanes[i] = true
			return int32(i)
		}
	}
	t.lanes = append(t.lanes, true)
	return int32(len(t.lanes) - 1)
}

func (t *spanTree) releaseLane(lane int32) {
	t.mu.Lock()
	t.lanes[lane] = false
	t.mu.Unlock()
}

// selfTimes returns, for every span, its duration minus the part of it
// its child spans cover. Children of one parent do not overlap here (a
// worker runs one op at a time, and an aggregate is a sum), so the
// covered part is the sum of their durations, clipped to the parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].dur()
	}
	for i := range spans {
		if p := spans[i].parent; p != noSpan {
			self[p] -= spans[i].dur()
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// selfShare is the self time of all spans called name over their total
// duration.
func selfShare(spans []span, name string) float64 {
	self := selfTimes(spans)
	var own, total int64
	for i := range spans {
		if spans[i].name == name {
			own += self[i]
			total += spans[i].dur()
		}
	}
	return float64(own) / float64(total)
}

// traceEvent is one complete ("X") event of the Chrome trace-event
// format; ts and dur are in µs.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the tree as Chrome trace-event JSON. An aggregate
// has no interval of its own, so it is drawn as one bar of its summed
// length, placed after its earlier siblings inside its parent. Raw
// samples go on a second thread of the same lane, at their real times.
func (t *spanTree) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	// placed is where each span is drawn; cursor is where the next
	// aggregate child of a span goes.
	placed := make([]int64, len(t.spans))
	cursor := make([]int64, len(t.spans))
	events := make([]traceEvent, 0, len(t.spans)+len(t.samples))
	for i, s := range t.spans {
		placed[i] = s.start
		args := map[string]any{"id": i, "self_us": float64(self[i]) / 1e3}
		if s.parent != noSpan {
			args["parent"] = s.parent
		}
		if s.count > 0 {
			// Spans are appended parent first, so the parent is placed.
			placed[i] = placed[s.parent] + cursor[s.parent]
			cursor[s.parent] += s.dur()
			args["count"] = s.count
		}
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 2 * s.lane,
			Ts: float64(placed[i]) / 1e3, Dur: float64(s.dur()) / 1e3, Args: args,
		})
	}
	for _, s := range t.samples {
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 2*s.lane + 1,
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Args: map[string]any{"sample_of": s.parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
