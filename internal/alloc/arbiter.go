// Package alloc provides the arbiters and allocators used by the router
// microarchitecture: a round-robin arbiter for switch allocation and a
// separable priority-based allocator for virtual-channel allocation, as
// configured in Table 2 of the Footprint paper ("priority-based VC
// allocator, Round-Robin switch arbiter").
package alloc

import "math/bits"

// RoundRobin is a classic round-robin arbiter over n <= 32 requesters (a
// request set is a uint32). The zero value is not usable.
type RoundRobin struct {
	n    int
	next int // index with the highest priority this round
}

// NewRoundRobin returns a round-robin arbiter for n requesters.
func NewRoundRobin(n int) *RoundRobin {
	a := MakeRoundRobin(n)
	return &a
}

// MakeRoundRobin is NewRoundRobin as a value, for an arbiter held inside
// the struct it arbitrates for.
func MakeRoundRobin(n int) RoundRobin {
	if n <= 0 || n > 32 {
		panic("alloc: round-robin arbiter needs 1 to 32 requesters")
	}
	return RoundRobin{n: n}
}

// Arbitrate packs the request vector into a mask for ArbitrateMask.
func (a *RoundRobin) Arbitrate(requests []bool) int {
	if len(requests) != a.n {
		panic("alloc: request vector size mismatch")
	}
	var req uint32
	for i, r := range requests {
		if r {
			req |= 1 << uint(i)
		}
	}
	return a.ArbitrateMask(req)
}

// ArbitrateMask grants the first requester (set bit of req) at or after
// the round-robin pointer, wrapping to the lowest, and advances the
// pointer past the winner; -1, pointer unmoved, when req is empty.
func (a *RoundRobin) ArbitrateMask(req uint32) int {
	if req>>uint(a.n) != 0 {
		panic("alloc: request bit at or above the arbiter's size")
	}
	if req == 0 {
		return -1
	}
	idx := bits.TrailingZeros32(req)
	if at := req >> uint(a.next); at != 0 {
		idx = a.next + bits.TrailingZeros32(at)
	}
	if a.next = idx + 1; a.next == a.n { // no modulo on the switch's hot path
		a.next = 0
	}
	return idx
}

// Priority orders virtual-channel requests as in Algorithm 1 of the paper.
// Higher values win allocation.
type Priority int

// Request priorities, lowest to highest (Algorithm 1, with one extra
// level for footprint register affinity): escape requests are Lowest,
// busy/adaptive requests Low, occupied footprint VCs Medium, idle VCs
// High, and idle VCs whose footprint register matches the requester's
// destination Highest.
const (
	None    Priority = iota // no request
	Lowest                  // escape VC
	Low                     // adaptive / busy VCs
	Medium                  // occupied footprint VCs
	High                    // idle VCs
	Highest                 // idle VCs with matching footprint register
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case None:
		return "none"
	case Lowest:
		return "lowest"
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	case Highest:
		return "highest"
	default:
		return "invalid"
	}
}

// PriorityRoundRobin arbitrates among prioritized requests: the highest
// priority level present wins, with round-robin fairness among equals.
type PriorityRoundRobin struct {
	n    int
	next int
	mask []bool // scratch
}

// NewPriorityRoundRobin returns a prioritized round-robin arbiter for n
// requesters.
func NewPriorityRoundRobin(n int) *PriorityRoundRobin {
	if n <= 0 {
		panic("alloc: priority arbiter needs at least one requester")
	}
	return &PriorityRoundRobin{n: n, mask: make([]bool, n)}
}

// Arbitrate returns the index of the winning request (priorities[i] > None)
// or -1. Ties at the top priority level are broken round-robin.
func (a *PriorityRoundRobin) Arbitrate(priorities []Priority) int {
	if len(priorities) != a.n {
		panic("alloc: priority vector size mismatch")
	}
	best := None
	for _, p := range priorities {
		if p > best {
			best = p
		}
	}
	if best == None {
		return -1
	}
	for i := range a.mask {
		a.mask[i] = priorities[i] == best
	}
	for i := 0; i < a.n; i++ {
		idx := (a.next + i) % a.n
		if a.mask[idx] {
			a.next = (idx + 1) % a.n
			return idx
		}
	}
	return -1
}
