package network_test

import (
	"math/rand"
	"reflect"
	"testing"

	"nocsim/internal/flit"
	"nocsim/internal/network"
	"nocsim/internal/obs"
	"nocsim/internal/router"
	"nocsim/internal/routing"
	"nocsim/internal/topo"
)

// seamCounts tallies the events one recording sink received, by kind.
type seamCounts struct {
	Failures, Injects, Routes, Grants, Hops, Ejects, Decisions int
	// Spans counts the failures that carried their packet; BadPacket the
	// failures that broke the rule that those are exactly the first of
	// each blocking span.
	Spans, BadPacket int
}

// seamRecorder implements all three router.Sinks interfaces; the table
// attaches a separate recorder per field.
type seamRecorder struct{ seamCounts }

func (r *seamRecorder) OnVCAllocFailure(_ int64, _ int, p *flit.Packet, _ topo.Direction, _, _ int, waited int64) {
	r.Failures++
	if p != nil {
		r.Spans++
	}
	if (p != nil) != (waited == 1) {
		r.BadPacket++
	}
}
func (r *seamRecorder) OnInject(int64, *flit.Packet)                     { r.Injects++ }
func (r *seamRecorder) OnRoute(int64, int, *flit.Packet, topo.Direction) { r.Routes++ }
func (r *seamRecorder) OnVCAllocGrant(int64, int, *flit.Packet, topo.Direction, int, router.VCClass, int64) {
	r.Grants++
}
func (r *seamRecorder) OnHeadTraverse(int64, int, *flit.Packet, topo.Direction, int) { r.Hops++ }
func (r *seamRecorder) OnEject(int64, *flit.Packet)                                  { r.Ejects++ }
func (r *seamRecorder) OnRouteDecision(int64, int, *flit.Packet, router.Decision)    { r.Decisions++ }

// seamOutcome is what the fabric did, as seen without any sink.
type seamOutcome struct {
	VCAllocFailures []int64
	OutputFlits     [][topo.NumPorts]int64
	Ejected         []uint64
}

// TestSinksSubsetsNeverPerturbTheRun is the seam's contract as a table:
// for every nil/non-nil subset of {Blocked, Packets, Decisions} a 4x4
// footprint mesh driven past saturation must not panic (a nil field is
// the off switch, and every event site tests it), each attached sink
// must see its events, in the same numbers whichever other sinks are
// attached, and the fabric outcome must be the same in all eight.
func TestSinksSubsetsNeverPerturbTheRun(t *testing.T) {
	const cycles = 400
	mesh := topo.MustNew(4, 4)

	var firstOutcome *seamOutcome
	// first holds each sink's totals from the first subset that attached
	// it; every later subset must reproduce them.
	first := map[string]seamCounts{}
	agree := func(t *testing.T, field string, got *seamRecorder) {
		t.Helper()
		if got == nil {
			return
		}
		if want, seen := first[field]; !seen {
			first[field] = got.seamCounts
		} else if want != got.seamCounts {
			t.Errorf("%s sink saw %+v, but %+v in an earlier subset", field, got.seamCounts, want)
		}
	}

	for subset := 0; subset < 8; subset++ {
		var blocked, packets, decisions *seamRecorder
		name := ""
		if subset&1 != 0 {
			blocked, name = &seamRecorder{}, name+"+blocked"
		}
		if subset&2 != 0 {
			packets, name = &seamRecorder{}, name+"+packets"
		}
		if subset&4 != 0 {
			decisions, name = &seamRecorder{}, name+"+decisions"
		}
		if name == "" {
			name = "none"
		}
		t.Run(name, func(t *testing.T) {
			// Attach on the concrete pointers: a nil *seamRecorder stored
			// in an interface field would be a non-nil interface, and the
			// router would call through it.
			var sinks router.Sinks
			if blocked != nil {
				sinks.Blocked = blocked
			}
			if packets != nil {
				sinks.Packets = packets
			}
			if decisions != nil {
				sinks.Decisions = decisions
			}
			// The disabled collector is a nil pointer; attaching it must
			// not turn any field into a non-nil interface around it.
			before := sinks
			(*obs.Collector)(nil).Attach(&sinks)
			if sinks != before {
				t.Fatalf("Attach on a nil collector changed the sinks: %+v -> %+v", before, sinks)
			}

			n := network.New(network.Config{
				Mesh:     mesh,
				VCs:      4,
				BufDepth: 4,
				Speedup:  2,
				Alg:      routing.MustNew("footprint"),
				Rand:     rand.New(rand.NewSource(1)),
				Sinks:    sinks,
			}, nil)
			got := &seamOutcome{}
			n.Sink = func(p *flit.Packet) { got.Ejected = append(got.Ejected, p.ID) }
			// Every node offers most cycles, half of it at one hotspot:
			// well past what 16 ejection ports can take.
			load := rand.New(rand.NewSource(2))
			var id uint64
			for c := 0; c < cycles; c++ {
				for src := 0; src < mesh.Nodes(); src++ {
					if load.Intn(4) == 0 {
						continue
					}
					dest := 5
					if load.Intn(2) == 0 {
						dest = load.Intn(mesh.Nodes())
					}
					if dest == src {
						continue
					}
					id++
					n.Offer(&flit.Packet{ID: id, Src: src, Dest: dest, Size: 1 + load.Intn(4), Born: n.Now()})
				}
				n.Step()
			}
			for node := 0; node < mesh.Nodes(); node++ {
				r := n.Router(node)
				got.VCAllocFailures = append(got.VCAllocFailures, r.VCAllocFailures())
				var flits [topo.NumPorts]int64
				for d := topo.East; d <= topo.Local; d++ {
					flits[d] = r.OutputFlits(d)
				}
				got.OutputFlits = append(got.OutputFlits, flits)
			}

			if len(got.Ejected) == 0 {
				t.Fatal("fixture ejected nothing")
			}
			if firstOutcome == nil {
				firstOutcome = got
			} else if !reflect.DeepEqual(firstOutcome, got) {
				t.Errorf("observers perturbed the run:\nnone: %+v\n%s: %+v", firstOutcome, name, got)
			}

			if blocked != nil {
				var fails int64
				for _, f := range got.VCAllocFailures {
					fails += f
				}
				if blocked.Failures == 0 || int64(blocked.Failures) != fails {
					t.Errorf("Blocked saw %d failures, routers counted %d", blocked.Failures, fails)
				}
				if blocked.Spans == 0 || blocked.Spans == blocked.Failures || blocked.BadPacket != 0 {
					t.Errorf("of %d failures %d carried a packet and %d broke \"packet exactly when waited == 1\"; want some, not all, and none",
						blocked.Failures, blocked.Spans, blocked.BadPacket)
				}
			}
			if packets != nil {
				c := packets.seamCounts
				if c.Injects == 0 || c.Routes == 0 || c.Grants == 0 || c.Hops == 0 || c.Ejects == 0 {
					t.Errorf("Packets sink missed a lifecycle event: %+v", c)
				}
				if c.Ejects != len(got.Ejected) {
					t.Errorf("Packets saw %d ejections, the network sink %d", c.Ejects, len(got.Ejected))
				}
			}
			if decisions != nil && decisions.Decisions == 0 {
				t.Error("Decisions sink saw no decision")
			}
			agree(t, "Blocked", blocked)
			agree(t, "Packets", packets)
			agree(t, "Decisions", decisions)
		})
	}
	if firstOutcome == nil || len(first) != 3 {
		t.Fatal("table did not run every subset")
	}
}

// clockRecorder implements all three router.Sinks interfaces and checks
// every event's cycle against the network's clock as it arrives.
type clockRecorder struct {
	t      *testing.T
	n      *network.Network
	counts seamCounts
}

func (r *clockRecorder) check(event string, now int64, node int) {
	if now != r.n.Now() {
		r.t.Fatalf("%s at node %d stamped cycle %d during cycle %d", event, node, now, r.n.Now())
	}
}

func (r *clockRecorder) OnVCAllocFailure(now int64, node int, _ *flit.Packet, _ topo.Direction, _, _ int, _ int64) {
	r.check("OnVCAllocFailure", now, node)
	r.counts.Failures++
}
func (r *clockRecorder) OnInject(now int64, p *flit.Packet) {
	r.check("OnInject", now, p.Src)
	r.counts.Injects++
}
func (r *clockRecorder) OnRoute(now int64, node int, _ *flit.Packet, _ topo.Direction) {
	r.check("OnRoute", now, node)
	r.counts.Routes++
}
func (r *clockRecorder) OnVCAllocGrant(now int64, node int, _ *flit.Packet, _ topo.Direction, _ int, _ router.VCClass, _ int64) {
	r.check("OnVCAllocGrant", now, node)
	r.counts.Grants++
}
func (r *clockRecorder) OnHeadTraverse(now int64, node int, _ *flit.Packet, _ topo.Direction, _ int) {
	r.check("OnHeadTraverse", now, node)
	r.counts.Hops++
}
func (r *clockRecorder) OnEject(now int64, p *flit.Packet) {
	r.check("OnEject", now, p.Dest)
	r.counts.Ejects++
}
func (r *clockRecorder) OnRouteDecision(now int64, node int, _ *flit.Packet, _ router.Decision) {
	r.check("OnRouteDecision", now, node)
	r.counts.Decisions++
}

// TestEventsCarryNetworkCycle holds every router and endpoint event to the
// cycle the network is stepping, for every algorithm, on on/off bursts
// whose 350-cycle idle gaps drain the fabric, so routers sleep through
// hundreds of cycles and wake again. A router that kept a clock of its
// own would stamp its events with the cycles it was stepped, not the
// network's.
func TestEventsCarryNetworkCycle(t *testing.T) {
	mesh := topo.MustNew(4, 4)
	for _, alg := range routing.Names() {
		t.Run(alg, func(t *testing.T) {
			rec := &clockRecorder{t: t}
			n := network.New(network.Config{
				Mesh:     mesh,
				VCs:      4,
				BufDepth: 4,
				Speedup:  2,
				Alg:      routing.MustNew(alg),
				Rand:     rand.New(rand.NewSource(1)),
				Sinks:    router.Sinks{Blocked: rec, Packets: rec, Decisions: rec},
			}, nil)
			rec.n = n
			load := rand.New(rand.NewSource(2))
			var id uint64
			for c := 0; c < 1800; c++ {
				if c%450 < 100 { // 100 cycles on, 350 off
					for src := 0; src < mesh.Nodes(); src++ {
						if dest := load.Intn(mesh.Nodes()); load.Float64() < 0.3 && dest != src {
							id++
							n.Offer(&flit.Packet{ID: id, Src: src, Dest: dest, Size: 1 + load.Intn(5), Born: n.Now()})
						}
					}
				}
				n.Step()
			}
			if n.InFlight() != 0 {
				t.Fatalf("%d packets still in flight after the last gap", n.InFlight())
			}
			c := rec.counts
			if c.Failures == 0 || c.Injects == 0 || c.Routes == 0 || c.Grants == 0 || c.Hops == 0 || c.Ejects == 0 || c.Decisions == 0 {
				t.Errorf("some event kind never fired, so its stamp went unchecked: %+v", c)
			}
		})
	}
}
