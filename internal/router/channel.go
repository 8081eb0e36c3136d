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

	// The router (and its port) at each end, or the endpoint in its place,
	// and the end's node, set as they attach: flits go to the to end,
	// credits to the from end.
	fromR, toR *Router
	ep         *Endpoint
	// busy is the fabric's busy-link list and listed whether the channel
	// is on it already (or would be).
	busy             *[]*Channel
	fromNode, toNode int32
	fromPort, toPort uint8
	listed           bool
}

// Init readies a zero Channel in place and returns it. The credit slices
// start on its own array and hold Table 2's two credits a cycle (Speedup)
// without growing; busy is the list it joins when it is sent on.
func (c *Channel) Init(busy *[]*Channel) *Channel {
	c.stagedCredits, c.arrivedCredits = c.creditBuf[:0:2], c.creditBuf[2:2]
	c.busy = busy
	return c
}

// list puts the channel on the busy list; a no-op once listed.
func (c *Channel) list() {
	if !c.listed {
		c.listed = true
		*c.busy = append(*c.busy, c)
	}
}

// Ends returns the nodes at the sending and the receiving end; an
// injection or ejection channel names its node twice.
func (c *Channel) Ends() (from, to int) { return int(c.fromNode), int(c.toNode) }

// CanSend reports whether the sender may stage a flit this cycle.
func (c *Channel) CanSend() bool { return c.staged == nil }

// Busy reports whether the channel carries any traffic in either
// pipeline: a flit staged or awaiting delivery, or credits in flight. An
// idle channel's Tick is a no-op and it has nothing to deliver, so the
// network keeps it off the busy-link list until it is sent on again.
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
	c.list()
}

// recv returns the flit that arrived this cycle, or nil. The flit is
// consumed.
func (c *Channel) recv() *flit.Flit {
	f := c.arrived
	c.arrived = nil
	return f
}

// SendCredit stages a credit for upstream delivery next cycle.
func (c *Channel) SendCredit(cr flit.Credit) {
	c.stagedCredits = append(c.stagedCredits, cr)
	c.list()
}

// recvCredits returns the credits that arrived this cycle. The returned
// slice is valid until the channel's next Tick.
func (c *Channel) recvCredits() []flit.Credit {
	crs := c.arrivedCredits
	c.arrivedCredits = c.arrivedCredits[:0]
	return crs
}

// Deliver hands what arrived this cycle to the attached ends: the flit to
// the receiving end, the credits to the sender.
func (c *Channel) Deliver() {
	if f := c.recv(); f != nil {
		if c.toR != nil {
			c.toR.acceptFlit(int(c.toPort), f)
		} else {
			c.ep.acceptFlit(f)
		}
	}
	if crs := c.recvCredits(); len(crs) > 0 {
		if c.fromR != nil {
			c.fromR.acceptCredits(int(c.fromPort), crs)
		} else {
			c.ep.acceptCredits(crs)
		}
	}
}

// Tick advances the one-cycle pipelines. Undelivered flits stay in the
// arrival slot (the receiver is obliged to drain it, which routers do —
// buffer space is guaranteed by credits). It reports whether the channel
// is still Busy; one that is not forgets its listing and must be dropped.
func (c *Channel) Tick() bool {
	if c.arrived == nil {
		c.arrived = c.staged
		c.staged = nil
	}
	// Credits are always consumed by receivers each cycle; swap buffers.
	c.arrivedCredits = append(c.arrivedCredits, c.stagedCredits...)
	c.stagedCredits = c.stagedCredits[:0]
	c.listed = c.Busy()
	return c.listed
}
