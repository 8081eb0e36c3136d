// Package router implements the cycle-accurate router microarchitecture of
// Table 2: an input-queued virtual-channel router with credit-based
// wormhole flow control, a priority-based VC allocator, round-robin switch
// arbitration, and internal speedup 2. It also tracks the per-VC "owner"
// registers that Footprint routing consumes.
package router

import "nocsim/internal/flit"

// Channel is a unidirectional link with one cycle of latency: a register
// holding at most one flit for the receiving end and any number of credits
// for the sending end. What is staged in one cycle, the fabric's delivery
// pass at the top of the next hands on (Deliver), which empties the
// register.
type Channel struct {
	flit      *flit.Flit
	credits   []flit.Credit
	creditBuf [2]flit.Credit

	// The router (and its port) at each end, or the endpoint in its place,
	// and the receiving end's node, set as they attach: flits go to the to
	// end, credits to the from end.
	fromR, toR       *Router
	ep               *Endpoint
	links            *Links
	toNode           int32
	fromPort, toPort uint8
}

// Links is what a fabric's channels report to as they are sent on. Busy
// lists the channels holding a flit or credits for the next delivery
// pass, each once, in the order they were first staged on; Wake is the
// next cycle's worklist as a node bitset, on which Send sets the receiving
// node.
type Links struct {
	Busy []*Channel
	Wake []uint64
}

// Init readies a zero Channel in place and returns it. The credit slice
// starts on its own array and holds Table 2's two credits a cycle
// (Speedup) without growing; l is what it reports to when sent on.
func (c *Channel) Init(l *Links) *Channel {
	c.credits = c.creditBuf[:0]
	c.links = l
	return c
}

// list puts the channel on the busy list; call it before staging, so that
// a channel that already holds something, and so is listed, is not listed
// twice.
func (c *Channel) list() {
	if c.flit == nil && len(c.credits) == 0 {
		c.links.Busy = append(c.links.Busy, c)
	}
}

// Receiver returns the node at the receiving end, which Send wakes.
func (c *Channel) Receiver() int { return int(c.toNode) }

// CanSend reports whether the sender may stage a flit this cycle.
func (c *Channel) CanSend() bool { return c.flit == nil }

// Busy reports whether the channel holds a flit or credits for the next
// delivery pass, which is exactly when it is on the busy list.
func (c *Channel) Busy() bool { return c.flit != nil || len(c.credits) > 0 }

// Send stages f for delivery next cycle and wakes the receiving node. It
// panics when called twice in one cycle; the link carries one flit per
// cycle.
func (c *Channel) Send(f *flit.Flit) {
	if c.flit != nil {
		panic("router: channel overdriven")
	}
	c.list()
	c.flit = f
	c.links.Wake[c.toNode>>6] |= 1 << uint(c.toNode&63)
}

// SendCredit stages a credit for upstream delivery next cycle. It wakes
// nobody: a quiescent sender does nothing with a credit, and one that
// holds work has woken itself.
func (c *Channel) SendCredit(cr flit.Credit) {
	c.list()
	c.credits = append(c.credits, cr)
}

// Deliver hands what was staged last cycle to the attached ends — the flit
// to the receiving end, the credits to the sender — and empties the
// channel. Accepting either stages nothing on any link.
func (c *Channel) Deliver() {
	if f := c.flit; f != nil {
		c.flit = nil
		if c.toR != nil {
			c.toR.acceptFlit(int(c.toPort), f)
		} else {
			c.ep.acceptFlit(f)
		}
	}
	if len(c.credits) > 0 {
		if c.fromR != nil {
			c.fromR.acceptCredits(int(c.fromPort), c.credits)
		} else {
			c.ep.acceptCredits(c.credits)
		}
		c.credits = c.credits[:0]
	}
}
