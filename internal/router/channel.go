// Package router implements the cycle-accurate router microarchitecture of
// Table 2: an input-queued virtual-channel router with credit-based
// wormhole flow control, a priority-based VC allocator, round-robin switch
// arbitration, and internal speedup 2. It also tracks the per-VC "owner"
// registers that Footprint routing consumes.
package router

import "nocsim/internal/flit"

// Channel is a unidirectional link with one cycle of latency carrying one
// flit per cycle downstream and any number of credits per cycle upstream.
// The network calls Tick once per cycle, after all routers have run, to
// advance staged traffic to the deliverable position.
type Channel struct {
	// downstream flit pipeline
	staged  *flit.Flit
	arrived *flit.Flit
	// upstream credit pipeline
	stagedCredits  []flit.Credit
	arrivedCredits []flit.Credit
	creditBuf      [4]flit.Credit
}

// NewChannel returns an empty channel. Its credit slices start on its own
// array and hold Table 2's two credits a cycle (Speedup) without growing.
func NewChannel() *Channel {
	c := &Channel{}
	c.stagedCredits, c.arrivedCredits = c.creditBuf[:0:2], c.creditBuf[2:2]
	return c
}

// CanSend reports whether the sender may stage a flit this cycle.
func (c *Channel) CanSend() bool { return c.staged == nil }

// Busy reports whether the channel carries any traffic in either
// pipeline: a flit staged or awaiting delivery, or credits in flight. An
// idle channel's Tick is a no-op and it cannot wake either endpoint, so
// the network's active-set worklist skips it.
func (c *Channel) Busy() bool {
	return c.staged != nil || c.arrived != nil ||
		len(c.stagedCredits) > 0 || len(c.arrivedCredits) > 0
}

// Send stages f for delivery next cycle. It panics when called twice in
// one cycle; the link carries one flit per cycle.
func (c *Channel) Send(f *flit.Flit) {
	if c.staged != nil {
		panic("router: channel overdriven")
	}
	c.staged = f
}

// Recv returns the flit that arrived this cycle, or nil. The flit is
// consumed.
func (c *Channel) Recv() *flit.Flit {
	f := c.arrived
	c.arrived = nil
	return f
}

// SendCredit stages a credit for upstream delivery next cycle.
func (c *Channel) SendCredit(cr flit.Credit) {
	c.stagedCredits = append(c.stagedCredits, cr)
}

// RecvCredits returns the credits that arrived this cycle. The returned
// slice is valid until the channel's next Tick.
func (c *Channel) RecvCredits() []flit.Credit {
	crs := c.arrivedCredits
	c.arrivedCredits = c.arrivedCredits[:0]
	return crs
}

// Tick advances the one-cycle pipelines. Undelivered flits stay in the
// arrival slot (the receiver is obliged to drain it, which routers do —
// buffer space is guaranteed by credits).
func (c *Channel) Tick() {
	if c.arrived == nil {
		c.arrived = c.staged
		c.staged = nil
	}
	// Credits are always consumed by receivers each cycle; swap buffers.
	c.arrivedCredits = append(c.arrivedCredits, c.stagedCredits...)
	c.stagedCredits = c.stagedCredits[:0]
}
