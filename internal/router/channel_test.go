package router

import (
	"testing"

	"nocsim/internal/flit"
)

func TestChannelOneCycleLatency(t *testing.T) {
	ch := testChannel()
	f := &flit.Flit{}
	if !ch.CanSend() {
		t.Fatal("fresh channel cannot send")
	}
	ch.Send(f)
	if ch.recv() != nil {
		t.Error("flit visible before Tick")
	}
	ch.Tick()
	if got := ch.recv(); got != f {
		t.Errorf("Recv = %v, want the sent flit", got)
	}
	if ch.recv() != nil {
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

func TestChannelHoldsUndelivered(t *testing.T) {
	ch := testChannel()
	f1 := &flit.Flit{Seq: 1}
	f2 := &flit.Flit{Seq: 2}
	ch.Send(f1)
	ch.Tick()
	// Receiver did not drain; sender may not overwrite.
	if ch.CanSend() {
		ch.Send(f2)
	}
	ch.Tick()
	if got := ch.recv(); got != f1 {
		t.Fatalf("first flit lost: %v", got)
	}
	ch.Tick()
	if got := ch.recv(); got != f2 {
		t.Fatalf("second flit lost: %v", got)
	}
}

func TestChannelCredits(t *testing.T) {
	ch := testChannel()
	ch.SendCredit(flit.Credit{VC: 3})
	ch.SendCredit(flit.Credit{VC: 1, Tail: true})
	if crs := ch.recvCredits(); len(crs) != 0 {
		t.Errorf("credits visible before Tick: %v", crs)
	}
	ch.Tick()
	crs := ch.recvCredits()
	if len(crs) != 2 || crs[0].VC != 3 || !crs[1].Tail {
		t.Errorf("credits = %v", crs)
	}
	ch.Tick()
	if crs := ch.recvCredits(); len(crs) != 0 {
		t.Errorf("credits delivered twice: %v", crs)
	}
}

func TestChannelCreditsAccumulateIfUnread(t *testing.T) {
	ch := testChannel()
	ch.SendCredit(flit.Credit{VC: 0})
	ch.Tick()
	ch.SendCredit(flit.Credit{VC: 1})
	ch.Tick()
	crs := ch.recvCredits()
	if len(crs) != 2 {
		t.Errorf("credits = %v, want 2 accumulated", crs)
	}
}
