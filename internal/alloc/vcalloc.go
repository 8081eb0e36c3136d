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
//
// An allocator owns only what outlives a call, its round-robin pointers;
// a call's working memory is a VCScratch it points to, which allocators
// that are never called at the same time may share.
type VCAllocator struct {
	outNext []int32 // round-robin pointer per resource
	inNext  []int32 // round-robin pointer per requester
	sc      *VCScratch
}

// VCScratch is the working memory of one Allocate call. A call leaves it
// as it found it, resetting only the entries it touched, so it carries
// nothing from one call to the next and one VCScratch serves any number
// of allocators called one at a time (a fabric's routers share one). It
// is sized for the worst call and never grows.
type VCScratch struct {
	resPri      []uint8 // best priority seen per resource this call
	resWin      []int32 // winning requester per resource this call, -1 untouched
	reqPri      []uint8 // best granted priority per requester
	reqWin      []int32 // winning resource per requester, -1 untouched
	touchedRes  []int32
	touchedReqs []int32
	grants      []Grant
}

// NewVCAllocator returns an allocator for numRequesters input VCs and
// numResources output VCs, with a scratch of its own.
func NewVCAllocator(numRequesters, numResources int) *VCAllocator {
	n := numRequesters + numResources
	sc := MakeVCScratch(numRequesters, numResources, make([]int32, 2*n), make([]uint8, n),
		make([]Grant, min(numRequesters, numResources)))
	a := MakeVCAllocator(numRequesters, numResources, make([]int32, n), &sc)
	return &a
}

// MakeVCScratch returns the working memory of allocators with up to
// numRequesters requesters and numResources resources, on memory the
// caller cuts: idx holds 2 elements per requester and per resource, pri
// 1, and grants one per match a call can make, min(numRequesters,
// numResources).
func MakeVCScratch(numRequesters, numResources int, idx []int32, pri []uint8, grants []Grant) VCScratch {
	n := numRequesters + numResources
	if numRequesters <= 0 || numResources <= 0 {
		panic("alloc: VC allocator needs positive dimensions")
	}
	if len(idx) != 2*n || len(pri) != n || len(grants) != min(numRequesters, numResources) {
		panic("alloc: VC allocator scratch arrays of the wrong size")
	}
	// Each array is cut with cap == len, so no append reaches the next.
	cut32 := func(n int) []int32 { s := idx[:n:n]; idx = idx[n:]; return s }
	cut8 := func(n int) []uint8 { s := pri[:n:n]; pri = pri[n:]; return s }
	sc := VCScratch{
		resPri:      cut8(numResources),
		resWin:      cut32(numResources),
		reqPri:      cut8(numRequesters),
		reqWin:      cut32(numRequesters),
		touchedRes:  cut32(numResources)[:0],
		touchedReqs: cut32(numRequesters)[:0],
		grants:      grants[:0],
	}
	for i := range sc.resWin {
		sc.resWin[i] = -1
	}
	for i := range sc.reqWin {
		sc.reqWin[i] = -1
	}
	return sc
}

// MakeVCAllocator returns an allocator for numRequesters input VCs and
// numResources output VCs as a value: next, cut by the caller, holds its
// round-robin pointers, one per requester and per resource, and sc is
// the scratch its calls work in, sized for at least its dimensions.
func MakeVCAllocator(numRequesters, numResources int, next []int32, sc *VCScratch) VCAllocator {
	if numRequesters <= 0 || numResources <= 0 {
		panic("alloc: VC allocator needs positive dimensions")
	}
	if len(next) != numRequesters+numResources {
		panic("alloc: VC allocator pointers of the wrong size")
	}
	if len(sc.reqWin) < numRequesters || len(sc.resWin) < numResources {
		panic("alloc: VC allocator scratch smaller than the allocator")
	}
	return VCAllocator{
		outNext: next[:numResources:numResources],
		inNext:  next[numResources:],
		sc:      sc,
	}
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
		if p == Lowest && esc >= 0 && (r < 0 || rrBetter(esc, r, next, len(a.outNext))) {
			r = esc
		}
	}
	if r >= 0 { // out of range, q or r panics here: each array has its length
		a.outNext[r] = int32((q + 1) % len(a.inNext))
		a.inNext[q] = int32((r + 1) % len(a.outNext))
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
// returned slice is the scratch's, reused by the next call of any
// allocator that shares it.
func (a *VCAllocator) Allocate(reqs []VCRequest) []Grant {
	sc, nq, nr := a.sc, int32(len(a.inNext)), int32(len(a.outNext))
	// Output stage: each resource picks its best requester.
	for _, rq := range reqs {
		if rq.Pri == None {
			continue
		}
		if rq.Requester < 0 || rq.Requester >= int(nq) ||
			rq.Resource < 0 || rq.Resource >= int(nr) {
			panic("alloc: VC request out of range")
		}
		r, q, pri := int32(rq.Resource), int32(rq.Requester), uint8(rq.Pri)
		if sc.resWin[r] == -1 {
			sc.touchedRes = append(sc.touchedRes, r)
			sc.resPri[r] = pri
			sc.resWin[r] = q
			continue
		}
		if pri > sc.resPri[r] ||
			(pri == sc.resPri[r] && q != sc.resWin[r] &&
				rrBetter(q, sc.resWin[r], a.outNext[r], nq)) {
			sc.resPri[r] = pri
			sc.resWin[r] = q
		}
	}

	// Input stage: each requester keeps its best resource grant. Either
	// stage's scratch is reset as the next stage reads it.
	for _, r := range sc.touchedRes {
		q, p := sc.resWin[r], sc.resPri[r]
		sc.resWin[r], sc.resPri[r] = -1, uint8(None)
		if sc.reqWin[q] == -1 {
			sc.touchedReqs = append(sc.touchedReqs, q)
			sc.reqPri[q] = p
			sc.reqWin[q] = r
			continue
		}
		if p > sc.reqPri[q] ||
			(p == sc.reqPri[q] && r != sc.reqWin[q] &&
				rrBetter(r, sc.reqWin[q], a.inNext[q], nr)) {
			sc.reqPri[q] = p
			sc.reqWin[q] = r
		}
	}

	grants := sc.grants[:0]
	for _, q := range sc.touchedReqs {
		r := sc.reqWin[q]
		sc.reqWin[q], sc.reqPri[q] = -1, uint8(None)
		grants = append(grants, Grant{Requester: int(q), Resource: int(r)})
		// Advance round-robin state past the winners.
		a.inNext[q] = (r + 1) % nr
		a.outNext[r] = (q + 1) % nq
	}
	sc.grants, sc.touchedRes, sc.touchedReqs = grants, sc.touchedRes[:0], sc.touchedReqs[:0]
	return grants
}
