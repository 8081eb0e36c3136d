package alloc

import "math/bits"

// VCRequest is one virtual-channel allocation request: requester (an input
// VC, identified by a dense index) asks for resource (an output VC, dense
// index) at the given priority.
type VCRequest struct {
	Requester int
	Resource  int
	Pri       Priority
}

// VCAllocator is a separable, priority-based allocator matching requesters
// (input VCs) to resources (output VCs). It implements the "priority-based
// VC allocator" of Table 2:
//
//  1. output stage: every requested resource picks its highest-priority
//     requester (round-robin among equals);
//  2. input stage: every requester that won several resources keeps the
//     highest-priority grant (round-robin among equals).
//
// A single iteration is performed per invocation, as in a single-cycle VA
// stage. The implementation is sparse: cost is proportional to the number
// of requests submitted, not requesters×resources, because the router
// invokes it every cycle.
type VCAllocator struct {
	numRequesters int
	numResources  int

	outNext []int32 // round-robin pointer per resource
	inNext  []int32 // round-robin pointer per requester

	// scratch, reused across calls; only touched entries are reset. The
	// touched lists have their bound; grants starts at the few a call makes.
	resPri      []uint8 // best priority seen per resource this call
	resWin      []int32 // winning requester per resource this call
	reqPri      []uint8 // best granted priority per requester
	reqWin      []int32 // winning resource per requester
	touchedRes  []int32
	touchedReqs []int32
	grants      []Grant
}

// NewVCAllocator returns an allocator for numRequesters input VCs and
// numResources output VCs.
func NewVCAllocator(numRequesters, numResources int) *VCAllocator {
	n := numRequesters + numResources
	a := MakeVCAllocator(numRequesters, numResources, make([]int32, 3*n), make([]uint8, n), make([]Grant, 0, 8))
	return &a
}

// MakeVCAllocator is NewVCAllocator as a value on memory the caller cuts:
// idx and pri hold 3 and 1 elements per requester and per resource, and
// grants is where Allocate starts its grant list (empty, any capacity).
func MakeVCAllocator(numRequesters, numResources int, idx []int32, pri []uint8, grants []Grant) VCAllocator {
	if numRequesters <= 0 || numResources <= 0 {
		panic("alloc: VC allocator needs positive dimensions")
	}
	if n := numRequesters + numResources; len(idx) != 3*n || len(pri) != n {
		panic("alloc: VC allocator arrays of the wrong size")
	}
	// Each array is cut with cap == len, so no append reaches the next.
	cut32 := func(n int) []int32 { s := idx[:n:n]; idx = idx[n:]; return s }
	cut8 := func(n int) []uint8 { s := pri[:n:n]; pri = pri[n:]; return s }
	a := VCAllocator{
		numRequesters: numRequesters,
		numResources:  numResources,
		outNext:       cut32(numResources),
		inNext:        cut32(numRequesters),
		resPri:        cut8(numResources),
		resWin:        cut32(numResources),
		reqPri:        cut8(numRequesters),
		reqWin:        cut32(numRequesters),
		touchedRes:    cut32(numResources)[:0],
		touchedReqs:   cut32(numRequesters)[:0],
		grants:        grants[:0],
	}
	for i := range a.resWin {
		a.resWin[i] = -1
	}
	for i := range a.reqWin {
		a.reqWin[i] = -1
	}
	return a
}

// rrBetter reports whether candidate a beats candidate b for a resource
// whose round-robin pointer is next, given equal priority: the index
// closest at-or-after the pointer (mod n) wins.
func rrBetter[T int | int32](a, b, next, n T) bool {
	da := a - next
	if da < 0 {
		da += n
	}
	db := b - next
	if db < 0 {
		db += n
	}
	return da < db
}

// GrantUncontended is Allocate for a requester q nobody competes with this
// call. q asks for the VCs pri[p]&free of the port whose VC 0 is resource
// base, at each priority p, and for resource esc at Lowest (esc < 0: not).
// Resources are independent in the output stage and requesters in the
// input stage, so q's grant is its own best candidate; it is returned (-1:
// nothing asked for) and both pointers advance as Allocate advances them.
func (a *VCAllocator) GrantUncontended(q, base int, pri *[Highest + 1]uint32, free uint32, esc int) int {
	next, r := int(a.inNext[q]), -1
	for p := Highest; p >= Lowest && r < 0; p-- {
		if m := pri[p] & free; m != 0 {
			// Nearest at or after the pointer: the lowest VC, unless the
			// pointer is inside the port with a candidate at or above it.
			if k := uint(next - base); next > base && m>>k != 0 {
				m = m >> k << k
			}
			r = base + bits.TrailingZeros32(m)
		}
		if p == Lowest && esc >= 0 && (r < 0 || rrBetter(esc, r, next, a.numResources)) {
			r = esc
		}
	}
	if r >= 0 { // out of range, q or r panics here: each array has its length
		a.outNext[r] = int32((q + 1) % a.numRequesters)
		a.inNext[q] = int32((r + 1) % a.numResources)
	}
	return r
}

// Grant is one requester→resource match produced by Allocate.
type Grant struct {
	Requester int
	Resource  int
}

// Allocate matches requesters to resources and returns the grants. Each
// requester receives at most one resource and each resource is granted to
// at most one requester. Requests with Pri == None are ignored. The
// returned slice is reused by the next call to Allocate.
func (a *VCAllocator) Allocate(reqs []VCRequest) []Grant {
	// Output stage: each resource picks its best requester.
	for _, rq := range reqs {
		if rq.Pri == None {
			continue
		}
		if rq.Requester < 0 || rq.Requester >= a.numRequesters ||
			rq.Resource < 0 || rq.Resource >= a.numResources {
			panic("alloc: VC request out of range")
		}
		r, q, pri := int32(rq.Resource), int32(rq.Requester), uint8(rq.Pri)
		if a.resWin[r] == -1 {
			a.touchedRes = append(a.touchedRes, r)
			a.resPri[r] = pri
			a.resWin[r] = q
			continue
		}
		if pri > a.resPri[r] ||
			(pri == a.resPri[r] && q != a.resWin[r] &&
				rrBetter(q, a.resWin[r], a.outNext[r], int32(a.numRequesters))) {
			a.resPri[r] = pri
			a.resWin[r] = q
		}
	}

	// Input stage: each requester keeps its best resource grant. Either
	// stage's scratch is reset as the next stage reads it.
	for _, r := range a.touchedRes {
		q, p := a.resWin[r], a.resPri[r]
		a.resWin[r], a.resPri[r] = -1, uint8(None)
		if a.reqWin[q] == -1 {
			a.touchedReqs = append(a.touchedReqs, q)
			a.reqPri[q] = p
			a.reqWin[q] = r
			continue
		}
		if p > a.reqPri[q] ||
			(p == a.reqPri[q] && r != a.reqWin[q] &&
				rrBetter(r, a.reqWin[q], a.inNext[q], int32(a.numResources))) {
			a.reqPri[q] = p
			a.reqWin[q] = r
		}
	}

	grants := a.grants[:0]
	for _, q := range a.touchedReqs {
		r := a.reqWin[q]
		a.reqWin[q], a.reqPri[q] = -1, uint8(None)
		grants = append(grants, Grant{Requester: int(q), Resource: int(r)})
		// Advance round-robin state past the winners.
		a.inNext[q] = (r + 1) % int32(a.numResources)
		a.outNext[r] = (q + 1) % int32(a.numRequesters)
	}
	a.grants, a.touchedRes, a.touchedReqs = grants, a.touchedRes[:0], a.touchedReqs[:0]
	return grants
}
