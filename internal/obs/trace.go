package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"nocsim/internal/router"
	"nocsim/internal/topo"
)

// EventKind labels one packet lifecycle stage transition.
type EventKind uint8

// Lifecycle event kinds, in the order a packet experiences them.
const (
	// EventInject: the head flit entered the network at the source
	// endpoint.
	EventInject EventKind = iota
	// EventRoute: the head flit reached the front of an input VC and its
	// route was computed (once per router).
	EventRoute
	// EventBlock: the packet failed VC allocation for the first
	// consecutive cycle at this router — the start of a blocking span.
	// FootprintVCs/BusyVCs snapshot the requested port's occupancy.
	EventBlock
	// EventGrant: the packet won output VC (Dir, VC); Waited is the
	// blocking-span length in cycles (0 = granted on the first attempt).
	EventGrant
	// EventHop: the head flit crossed the crossbar into output port Dir
	// on VC VC — one per hop, including the final ejection-port hop.
	EventHop
	// EventEject: the tail flit was consumed at the destination endpoint.
	EventEject
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventInject:
		return "inject"
	case EventRoute:
		return "route"
	case EventBlock:
		return "vc-block"
	case EventGrant:
		return "vc-grant"
	case EventHop:
		return "hop"
	case EventEject:
		return "eject"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one recorded lifecycle transition. Dir, VC, Waited,
// FootprintVCs and BusyVCs are meaningful only for the kinds that set
// them (see the kind docs).
type Event struct {
	Cycle  int64          `json:"cycle"`
	Kind   EventKind      `json:"-"`
	Node   int            `json:"node"`
	Packet uint64         `json:"packet"`
	Src    int            `json:"src"`
	Dest   int            `json:"dest"`
	Dir    topo.Direction `json:"-"`
	VC     int            `json:"vc"`
	// Class is the granted VC's class at grant time (EventGrant only).
	Class        router.VCClass `json:"-"`
	Waited       int64          `json:"waited,omitempty"`
	FootprintVCs int            `json:"footprint_vcs,omitempty"`
	BusyVCs      int            `json:"busy_vcs,omitempty"`
}

// jsonEvent is Event with the enums rendered as strings for the JSONL
// exporter.
type jsonEvent struct {
	Kind string `json:"kind"`
	Event
	Dir     string `json:"dir"`
	VCClass string `json:"vc_class,omitempty"`
}

// Tracer records packet lifecycle events into a bounded ring buffer.
// When the buffer is full the oldest events are overwritten; Dropped
// reports how many were lost. The zero value is not usable; construct
// with NewTracer.
type Tracer struct {
	ring  []Event
	total uint64
}

// DefaultTraceCapacity bounds the tracer's ring buffer when the caller
// does not choose one (6 MB of 96-byte events).
const DefaultTraceCapacity = 1 << 16

// MaxTraceCapacity is the largest ring a caller may ask for (1.5 GiB of
// events); sim.Config.Validate rejects more.
const MaxTraceCapacity = 1 << 24

// NewTracer returns a tracer retaining the most recent capacity events
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]Event, 0, capacity)}
}

// add appends one event, overwriting the oldest when full.
func (t *Tracer) add(e Event) {
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.total%uint64(cap(t.ring))] = e
	}
	t.total++
}

// Len returns the number of retained events.
func (t *Tracer) Len() int { return len(t.ring) }

// Total returns the number of events observed, including dropped ones.
func (t *Tracer) Total() uint64 { return t.total }

// Dropped returns the number of events overwritten by newer ones.
func (t *Tracer) Dropped() uint64 { return t.total - uint64(len(t.ring)) }

// Events returns the retained events in chronological order. The slice
// is freshly allocated.
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, len(t.ring))
	if t.total > uint64(cap(t.ring)) {
		// Ring wrapped: the oldest retained event sits at total % cap.
		start := int(t.total % uint64(cap(t.ring)))
		out = append(out, t.ring[start:]...)
		out = append(out, t.ring[:start]...)
		return out
	}
	return append(out, t.ring...)
}

// WriteJSONL writes the retained events as one JSON object per line,
// oldest first.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range t.Events() {
		je := jsonEvent{Kind: e.Kind.String(), Event: e, Dir: e.Dir.String()}
		if e.Kind == EventGrant {
			je.VCClass = e.Class.String()
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return nil
}
