package router

import (
	"testing"

	"nocsim/internal/flit"
)

func newTestEndpoint() (*Endpoint, *Channel, *Channel) {
	inj := testChannel()
	ej := testChannel()
	_, es := testNodes(&scriptAlg{}, 2)
	es[3].Attach(inj, ej)
	return &es[3], inj, ej
}

// receiveAt hands e the credits and the flit staged on its channels, as
// the delivery pass does inside a network.
func receiveAt(e *Endpoint) {
	e.acceptCredits(returned(e.injCh))
	if f := sent(e.ejCh); f != nil {
		e.acceptFlit(f)
	}
}

func TestEndpointInjectsOneFlitPerCycle(t *testing.T) {
	e, inj, _ := newTestEndpoint()
	e.Offer(&flit.Packet{ID: 1, Src: 3, Dest: 7, Size: 3})
	for i := 0; i < 3; i++ {
		e.Inject(int64(i))
		f := sent(inj)
		if f == nil {
			t.Fatalf("cycle %d: no flit injected", i)
		}
		if f.Seq != i {
			t.Fatalf("cycle %d: seq %d", i, f.Seq)
		}
	}
	e.Inject(3)
	if sent(inj) != nil {
		t.Error("injected beyond packet length")
	}
	if e.QueueLen() != 0 {
		t.Errorf("queue len = %d after full injection", e.QueueLen())
	}
}

func TestEndpointRespectsCredits(t *testing.T) {
	e, inj, _ := newTestEndpoint()
	e.Offer(&flit.Packet{ID: 1, Src: 3, Dest: 7, Size: 10})
	// Buffer depth 4: after 4 flits the chosen VC is out of credits.
	n, usedVC := 0, -1
	for i := 0; i < 8; i++ {
		e.Inject(int64(i))
		if f := sent(inj); f != nil {
			n++
			usedVC = f.VC
		}
	}
	if n != 4 {
		t.Errorf("sent %d flits with 4 credits", n)
	}
	// Returning a credit for the held VC resumes injection.
	inj.SendCredit(flit.Credit{VC: uint8(usedVC)})
	receiveAt(e)
	e.Inject(100)
	if sent(inj) == nil {
		t.Error("injection did not resume after credits returned")
	}
}

func TestEndpointPacketHoldsOneVC(t *testing.T) {
	e, inj, _ := newTestEndpoint()
	e.Offer(&flit.Packet{ID: 1, Src: 3, Dest: 7, Size: 4})
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		e.Inject(int64(i))
		if f := sent(inj); f != nil {
			seen[f.VC] = true
		}
	}
	if len(seen) != 1 {
		t.Errorf("packet used %d VCs, want 1 (wormhole)", len(seen))
	}
}

func TestEndpointEjectionAndSink(t *testing.T) {
	e, _, ej := newTestEndpoint()
	var done *flit.Packet
	e.Sink = func(p *flit.Packet) { done = p }
	p := &flit.Packet{ID: 1, Src: 0, Dest: 3, Size: 2}
	fs := segment(p)
	for i, f := range fs {
		f.VC = 0
		ej.Send(f)
		receiveAt(e)
		e.Consume(int64(i))
	}
	if done == nil {
		t.Fatal("sink not called on tail consumption")
	}
	if done.Eject != 1 {
		t.Errorf("eject cycle = %d, want 1", done.Eject)
	}
	// Credits returned for both flits.
	if crs := returned(ej); len(crs) != 2 {
		t.Errorf("ejection credits = %d, want 2", len(crs))
	}
}

// ejectRecorder is a PacketSink that keeps what OnEject was shown; the
// endpoint under test never fires the other events.
type ejectRecorder struct {
	PacketSink
	seen flit.Packet
}

func (r *ejectRecorder) OnEject(_ int64, p *flit.Packet) { r.seen = *p }

// TestEndpointObserversSeePacketBeforeFree pins the order at the arena's
// packet free site: the packet sink and the Sink both read the ejected
// packet intact, and only then is its slot recycled (and so zeroed).
func TestEndpointObserversSeePacketBeforeFree(t *testing.T) {
	e, _, ej := newTestEndpoint()
	a := e.arena
	rec := &ejectRecorder{}
	e.SetPacketSink(rec)
	var sunk flit.Packet
	e.Sink = func(p *flit.Packet) { sunk = *p }

	p := a.NewPacket()
	p.ID, p.Src, p.Dest, p.Size, p.Born = 42, 1, 3, 1, 5
	f := a.NewFlit()
	f.Packet, f.Head, f.Tail = p, true, true
	ej.Send(f)
	receiveAt(e)
	e.Consume(17)

	for _, got := range []struct {
		who string
		p   flit.Packet
	}{{"Packets.OnEject", rec.seen}, {"Sink", sunk}} {
		if got.p.ID != 42 || got.p.Src != 1 || got.p.Dest != 3 || got.p.Born != 5 || got.p.Eject != 17 {
			t.Errorf("%s saw %+v, want ID 42 Src 1 Dest 3 Born 5 Eject 17", got.who, got.p)
		}
	}
	if st := a.Stats(); st.Packets.Live != 0 || st.Flits.Live != 0 {
		t.Errorf("after consumption arena holds %s, want nothing live", st)
	}
}

func TestEndpointConsumesOneFlitPerCycle(t *testing.T) {
	e, _, ej := newTestEndpoint()
	consumed := 0
	e.Sink = func(*flit.Packet) { consumed++ }
	// Two single-flit packets on different VCs, delivered same cycle is
	// impossible (1 flit/cycle link), but buffer both before consuming.
	for i, vc := range []int{0, 1} {
		p := &flit.Packet{ID: uint64(i + 1), Src: 0, Dest: 3, Size: 1}
		f := segment(p)[0]
		f.VC = vc
		ej.Send(f)
		receiveAt(e)
	}
	e.Consume(10)
	if consumed != 1 {
		t.Fatalf("consumed %d packets in one cycle, want 1 (ejection bandwidth)", consumed)
	}
	e.Consume(11)
	if consumed != 2 {
		t.Fatalf("second packet not consumed: %d", consumed)
	}
}

func TestEndpointWrongDestPanics(t *testing.T) {
	e, _, ej := newTestEndpoint()
	p := &flit.Packet{ID: 1, Src: 0, Dest: 9, Size: 1} // not node 3
	f := segment(p)[0]
	f.VC = 0
	ej.Send(f)
	receiveAt(e)
	defer func() {
		if recover() == nil {
			t.Error("misrouted packet not detected")
		}
	}()
	e.Consume(0)
}

func TestEndpointQueueLenCountsCurrentPacket(t *testing.T) {
	e, inj, _ := newTestEndpoint()
	e.Offer(&flit.Packet{ID: 1, Src: 3, Dest: 7, Size: 3})
	e.Offer(&flit.Packet{ID: 2, Src: 3, Dest: 7, Size: 1})
	if e.QueueLen() != 2 {
		t.Errorf("queue len = %d, want 2", e.QueueLen())
	}
	e.Inject(0) // starts packet 1
	sent(inj)
	if e.QueueLen() != 2 {
		t.Errorf("queue len after first flit = %d, want 2 (in-flight counts)", e.QueueLen())
	}
}

func TestEndpointSlowConsumeInterval(t *testing.T) {
	e, _, ej := newTestEndpoint()
	e.ConsumeInterval = 3 // one flit every 3 cycles
	consumed := 0
	e.Sink = func(*flit.Packet) { consumed++ }
	for i := 0; i < 4; i++ {
		p := &flit.Packet{ID: uint64(i + 1), Src: 0, Dest: 3, Size: 1}
		f := segment(p)[0]
		f.VC = i % 2
		ej.Send(f)
		receiveAt(e)
	}
	for now := int64(0); now < 12; now++ {
		e.Consume(now)
	}
	if consumed != 4 {
		t.Fatalf("consumed %d, want all 4 over 12 cycles", consumed)
	}
	// Rate check: exactly ceil(12/3) = 4 consume opportunities.
	e2, _, ej2 := newTestEndpoint()
	e2.ConsumeInterval = 4
	got := 0
	e2.Sink = func(*flit.Packet) { got++ }
	for i := 0; i < 8; i++ {
		p := &flit.Packet{ID: uint64(100 + i), Src: 0, Dest: 3, Size: 1}
		f := segment(p)[0]
		f.VC = i % 2
		if ej2.CanSend() {
			ej2.Send(f)
		}
		receiveAt(e2)
	}
	for now := int64(0); now < 8; now++ {
		e2.Consume(now)
	}
	if got != 2 {
		t.Fatalf("slow endpoint consumed %d in 8 cycles at interval 4, want 2", got)
	}
}

// TestEndpointLongQueueLeavesInOrder drains a saturated-size source queue:
// 10,000 single-flit packets, half of them offered while the others
// leave, must be injected in offer order with QueueLen exact after every
// step and the endpoint quiescent at the end.
func TestEndpointLongQueueLeavesInOrder(t *testing.T) {
	const total = 10000
	e, inj, _ := newTestEndpoint()
	offered := 0
	offer := func() {
		offered++
		e.Offer(&flit.Packet{ID: uint64(offered), Src: 3, Dest: 7, Size: 1})
	}
	for offered < total/2 {
		offer()
	}
	if e.QueueLen() != total/2 {
		t.Fatalf("QueueLen = %d after %d offers", e.QueueLen(), total/2)
	}
	for left := 1; left <= total; left++ {
		if left%2 == 0 {
			offer()
		}
		e.Inject(int64(left))
		f := sent(inj)
		if f == nil || f.Packet.ID != uint64(left) {
			t.Fatalf("step %d: injected %v, want packet %d", left, f, left)
		}
		if got, want := e.QueueLen(), offered-left; got != want {
			t.Fatalf("step %d: QueueLen = %d, want %d", left, got, want)
		}
		if e.Quiescent() != (left == offered) {
			t.Fatalf("step %d: Quiescent = %v with %d packets queued", left, e.Quiescent(), offered-left)
		}
		// Hand the buffer slot back, as the router would.
		inj.SendCredit(flit.Credit{VC: uint8(f.VC), Tail: true})
		receiveAt(e)
	}
	if offered != total || e.QueueLen() != 0 {
		t.Errorf("offered %d of %d packets, %d left queued", offered, total, e.QueueLen())
	}
}

// TestOfferAllocatesNothing: the source queue is linked through its
// packets, so 10,000 offers into one endpoint, a backlog far past
// saturation, allocate nothing, and the packets leave in the order they
// went in.
func TestOfferAllocatesNothing(t *testing.T) {
	const total = 10000
	e, inj, _ := newTestEndpoint()
	pkts := make([]flit.Packet, 2*total) // AllocsPerRun calls its function twice
	for i := range pkts {
		pkts[i] = flit.Packet{ID: uint64(i), Src: 3, Dest: 7, Size: 1}
	}
	next := 0
	if n := testing.AllocsPerRun(1, func() {
		for range total {
			e.Offer(&pkts[next])
			next++
		}
	}); n != 0 {
		t.Errorf("%d offers made %v allocations, want 0", total, n)
	}
	for i := range pkts {
		e.Inject(int64(i))
		f := sent(inj)
		if f == nil || f.Packet != &pkts[i] {
			t.Fatalf("injection %d: got %v, want packet %d", i, f, i)
		}
		inj.SendCredit(flit.Credit{VC: uint8(f.VC), Tail: true})
		receiveAt(e)
	}
	if !e.Quiescent() {
		t.Error("endpoint not quiescent after its queue drained")
	}
}
