package router

import (
	"slices"
	"testing"
	"unsafe"

	"nocsim/internal/flit"
	"nocsim/internal/topo"
)

// deliveryPass is the network's: every listed channel hands on what it
// holds, and the list empties.
func deliveryPass(l *Links) {
	for _, ch := range l.Busy {
		ch.Deliver()
	}
	l.Busy = l.Busy[:0]
}

// localLinks wires node 5's router and endpoint as a network does, by an
// injection and an ejection channel reporting to l.
func localLinks(l *Links) (r *Router, e *Endpoint, inj, ej *Channel) {
	rs, es := testNodes(&scriptAlg{}, 2)
	r, e = &rs[5], &es[5]
	inj, ej = new(Channel).Init(l), new(Channel).Init(l)
	r.AttachIn(topo.Local, inj)
	r.AttachOut(topo.Local, ej)
	e.Attach(inj, ej)
	return r, e, inj, ej
}

// TestChannelOneCycleLatency: a flit staged in one cycle wakes its
// receiving node, lists the link once, and reaches the receiver in the
// next pass, which empties the link and takes it off the list.
func TestChannelOneCycleLatency(t *testing.T) {
	l := &Links{Wake: make([]uint64, 1)}
	_, e, _, ej := localLinks(l)
	if !ej.CanSend() || ej.Busy() || len(l.Busy) != 0 {
		t.Fatal("fresh channel holds something")
	}
	f := &flit.Flit{VC: 1}
	ej.Send(f)
	if l.Wake[0] != 1<<5 {
		t.Errorf("wake set after Send = %b, want the receiving node 5 only", l.Wake[0])
	}
	if !slices.Equal(l.Busy, []*Channel{ej}) {
		t.Errorf("busy list after Send holds %d links, want the sent one", len(l.Busy))
	}
	deliveryPass(l)
	if got := e.ejBuf[1]; len(got) != 1 || got[0] != f {
		t.Errorf("receiver holds %v after the pass, want the sent flit", got)
	}
	if !ej.CanSend() || ej.Busy() || len(l.Busy) != 0 {
		t.Error("link not empty and unlisted after the pass")
	}
	deliveryPass(l)
	if len(e.ejBuf[1]) != 1 {
		t.Error("flit delivered twice")
	}
}

func TestChannelOverdrivePanics(t *testing.T) {
	ch := testChannel()
	ch.Send(&flit.Flit{})
	defer func() {
		if recover() == nil {
			t.Error("double Send did not panic")
		}
	}()
	ch.Send(&flit.Flit{})
}

// TestChannelHoldsUndelivered: until the pass, the link holds its flit and
// the sender may not stage another; after it, the next flit goes through.
func TestChannelHoldsUndelivered(t *testing.T) {
	l := &Links{Wake: make([]uint64, 1)}
	_, e, _, ej := localLinks(l)
	f1, f2 := &flit.Flit{Seq: 1}, &flit.Flit{Seq: 2}
	ej.Send(f1)
	if ej.CanSend() {
		t.Fatal("a second flit may be staged before the pass")
	}
	deliveryPass(l)
	if !ej.CanSend() {
		t.Fatal("the link still holds a flit after the pass")
	}
	ej.Send(f2)
	deliveryPass(l)
	if got := e.ejBuf[0]; !slices.Equal(got, []*flit.Flit{f1, f2}) {
		t.Errorf("receiver holds %v, want both flits in order", got)
	}
}

// TestChannelCredits: credits wake nobody, share the link's one listing
// with a flit staged in the same cycle, reach the sender, and leave the
// link empty and unlisted until the next credit relists it.
func TestChannelCredits(t *testing.T) {
	l := &Links{Wake: make([]uint64, 1)}
	r, e, inj, _ := localLinks(l)
	e.credits[0] = 3 // one buffer slot in use
	inj.SendCredit(flit.Credit{VC: 0, Tail: true})
	if l.Wake[0] != 0 {
		t.Errorf("a credit woke %b, want nobody", l.Wake[0])
	}
	f := headFlit(1, 6, 1)[0]
	inj.Send(f)
	if !slices.Equal(l.Busy, []*Channel{inj}) {
		t.Fatalf("busy list holds %d links, want the one link once", len(l.Busy))
	}
	deliveryPass(l)
	if r.bufFront(r.idx(topo.Local, 0)) != f {
		t.Error("the flit sharing the listing did not reach the router")
	}
	if e.credits[0] != 4 {
		t.Errorf("sender credits = %v, want VC 0 at 4", e.credits)
	}
	if inj.Busy() || len(l.Busy) != 0 {
		t.Error("credit delivered but the link still holds or lists it")
	}
	e.credits[1] = 3
	inj.SendCredit(flit.Credit{VC: 1})
	if !slices.Equal(l.Busy, []*Channel{inj}) {
		t.Error("an emptied link was not relisted by its next credit")
	}
	deliveryPass(l)
	if e.credits[1] != 4 {
		t.Errorf("credit after the relisting: sender credits = %v, want VC 1 at 4", e.credits)
	}
}

// TestChannelCreditsAccumulateIfUnread: the credits staged in one cycle
// accumulate until the pass — more of them than the inline array holds,
// as a router with speedup above 2 returns on one link — and all reach
// the sender.
func TestChannelCreditsAccumulateIfUnread(t *testing.T) {
	l := &Links{Wake: make([]uint64, 1)}
	_, e, inj, _ := localLinks(l)
	e.credits[0], e.credits[1] = 1, 2 // five buffer slots in use
	for _, vc := range []uint8{1, 0, 1, 0, 0} {
		inj.SendCredit(flit.Credit{VC: vc})
	}
	if n := len(l.Busy); n != 1 {
		t.Fatalf("five credits listed the link %d times, want once", n)
	}
	deliveryPass(l)
	if e.credits[0] != 4 || e.credits[1] != 4 {
		t.Errorf("sender credits = %v, want [4 4]", e.credits)
	}
}

// TestChannelSize: with two-byte credits a Channel, its inline credit
// array included, is 80 bytes.
func TestChannelSize(t *testing.T) {
	if got := unsafe.Sizeof(Channel{}); got != 80 {
		t.Errorf("Channel is %d bytes, want 80", got)
	}
}
