package network

import "nocsim/internal/flit"

// channel is a unidirectional link with one cycle of latency: a register
// holding at most one flit for the receiving end and any number of credits
// for the sending end. What is staged in one cycle, the fabric's delivery
// pass at the top of the next hands on (deliver), which empties the
// register.
type channel struct {
	flit      *flit.Flit
	credits   []flit.Credit
	creditBuf [2]flit.Credit

	// The router (and its port) at each end, or the endpoint in its place,
	// and the receiving end's node, set as they attach: flits go to the to
	// end, credits to the from end. net is the fabric whose busy list and
	// wake set the channel reports to when sent on.
	fromR, toR       *Router
	ep               *Endpoint
	net              *Network
	toNode           int32
	fromPort, toPort uint8
}

// init readies a zero channel of fabric n in place and returns it. The
// credit slice starts on its own array and holds Table 2's two credits a
// cycle (Speedup) without growing.
func (c *channel) init(n *Network) *channel {
	c.credits = c.creditBuf[:0]
	c.net = n
	return c
}

// list puts the channel on the busy list; call it before staging, so that
// a channel that already holds something, and so is listed, is not listed
// twice.
func (c *channel) list() {
	if c.flit == nil && len(c.credits) == 0 {
		c.net.busy = append(c.net.busy, c)
	}
}

// canSend reports whether the sender may stage a flit this cycle.
func (c *channel) canSend() bool { return c.flit == nil }

// send stages f for delivery next cycle and wakes the receiving node. It
// panics when called twice in one cycle; the link carries one flit per
// cycle.
func (c *channel) send(f *flit.Flit) {
	if c.flit != nil {
		panic("network: channel overdriven")
	}
	c.list()
	c.flit = f
	c.net.wakeNode(int(c.toNode))
}

// sendCredit stages a credit for upstream delivery next cycle. It wakes
// nobody: a quiescent sender does nothing with a credit, and one that
// holds work has woken itself.
func (c *channel) sendCredit(cr flit.Credit) {
	c.list()
	c.credits = append(c.credits, cr)
}

// deliver hands what was staged last cycle to the attached ends — the flit
// to the receiving end, the credits to the sender — and empties the
// channel. Accepting either stages nothing on any link.
func (c *channel) deliver() {
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
