package alloc

import (
	"math/rand"
	"reflect"
	"testing"
)

// These tests hold GrantUncontended, the mask form the router uses when no
// output VC is requested twice, to Allocate on the same requests in list
// form: same grants in the same order, same round-robin pointers after.

// byteDeal deals fuzz input out a byte at a time, zeros once exhausted.
type byteDeal struct {
	data []byte
	pos  int
}

func (d *byteDeal) next() int {
	if d.pos >= len(d.data) {
		return 0
	}
	d.pos++
	return int(d.data[d.pos-1])
}

func (d *byteDeal) mask() uint32 {
	return uint32(d.next()) | uint32(d.next())<<8 | uint32(d.next())<<16 | uint32(d.next())<<24
}

// maskHead is one requester's requests in mask form: VCs of port per
// level, and the escape VC 0 of port esc (-1: none) at Lowest.
type maskHead struct {
	q, port int
	pri     [Highest + 1]uint32
	esc     int
}

// uncontendedScenario decodes ports x vcs output VCs with their free masks,
// round-robin pointers anywhere in range, and heads whose free requested
// VCs are pairwise disjoint — the precondition of GrantUncontended. Bits
// requested but not free, bits under None, a VC under Lowest beside an
// escape, an escape the head's own mask names too, and heads left with
// nothing to request are all allowed.
func uncontendedScenario(d *byteDeal) (ports, vcs int, free []uint32, inNext, outNext []int32, heads []maskHead) {
	ports, vcs = 1+d.next()%5, 1+d.next()%32
	n := ports * vcs
	all := uint32(1)<<uint(vcs) - 1
	free = make([]uint32, ports)
	for p := range free {
		free[p] = d.mask() & all
	}
	inNext, outNext = make([]int32, n), make([]int32, n)
	for i := 0; i < n; i++ {
		inNext[i], outNext[i] = int32(d.next()%n), int32(d.next()%n)
	}
	taken := make([]uint32, ports)
	for q := 0; q < n; q++ {
		if d.next()%3 != 0 {
			continue
		}
		h := maskHead{q: q, port: d.next() % ports, esc: -1}
		left := all &^ (taken[h.port] & free[h.port])
		h.pri[None] = d.mask() & all
		others := append([]uint32(nil), taken...)
		for p := Highest; p >= Lowest; p-- {
			h.pri[p] = d.mask() & left
			left &^= h.pri[p]
			taken[h.port] |= h.pri[p] & free[h.port]
		}
		// The escape may be a VC the head also asks for by mask.
		if e := d.next() % (ports + 1); e < ports && free[e]&^others[e]&1 != 0 {
			h.esc = e
			taken[e] |= 1
		}
		heads = append(heads, h)
	}
	return
}

// appendList expands q's requests on the port at base to list form as the
// router does: the free VCs in ascending order, each at its level; what is
// filed under None is no request.
func appendList(reqs []VCRequest, q, base int, pri [Highest + 1]uint32, free uint32) []VCRequest {
	for vc := 0; vc < 32; vc++ {
		for p := Highest; p >= Lowest; p-- {
			if pri[p]&free>>uint(vc)&1 != 0 {
				reqs = append(reqs, VCRequest{q, base + vc, p})
				break
			}
		}
	}
	return reqs
}

// checkUncontended runs the scenario through both forms on allocators
// with the same pointers and compares everything observable.
func checkUncontended(t *testing.T, d *byteDeal) {
	t.Helper()
	ports, vcs, free, inNext, outNext, heads := uncontendedScenario(d)
	n := ports * vcs
	list, mask := NewVCAllocator(n, n), NewVCAllocator(n, n)
	for _, a := range []*VCAllocator{list, mask} {
		copy(a.inNext, inNext)
		copy(a.outNext, outNext)
	}

	var reqs []VCRequest
	var got []Grant
	for _, h := range heads {
		reqs = appendList(reqs, h.q, h.port*vcs, h.pri, free[h.port])
		esc := -1
		if h.esc >= 0 {
			esc = h.esc * vcs
			reqs = append(reqs, VCRequest{h.q, esc, Lowest})
		}
		if r := mask.GrantUncontended(h.q, h.port*vcs, &h.pri, free[h.port], esc); r >= 0 {
			got = append(got, Grant{h.q, r})
		}
	}
	want := list.Allocate(reqs)
	if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("%dx%d VCs, free %x, heads %+v, inNext %v:\nmask form grants %v\nlist form grants %v",
			ports, vcs, free, heads, inNext, got, want)
	}
	if !reflect.DeepEqual(mask.inNext, list.inNext) || !reflect.DeepEqual(mask.outNext, list.outNext) {
		t.Fatalf("%dx%d VCs, heads %+v: pointers differ after %v:\nmask form in %v out %v\nlist form in %v out %v",
			ports, vcs, heads, want, mask.inNext, mask.outNext, list.inNext, list.outNext)
	}
}

func TestUncontendedMatchesAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, 64+rng.Intn(1024))
		rng.Read(data)
		checkUncontended(t, &byteDeal{data: data})
	}
}

// TestUncontendedPointerSweep walks a head's round-robin pointer over
// every resource — before, at, inside, just past and wrapping past its
// port's range — with the candidates at one level and an escape on
// another port competing at Lowest.
func TestUncontendedPointerSweep(t *testing.T) {
	const ports, vcs, q = 3, 4, 5
	for _, pri := range [][Highest + 1]uint32{
		{Low: 0b1010},
		{Lowest: 0b1010},
		{Lowest: 0b0100, Highest: 0b1000},
	} {
		for _, esc := range []int{-1, 0, 2 * vcs} {
			for next := 0; next < ports*vcs; next++ {
				list, mask := NewVCAllocator(ports*vcs, ports*vcs), NewVCAllocator(ports*vcs, ports*vcs)
				list.inNext[q], mask.inNext[q] = int32(next), int32(next)
				reqs := appendList(nil, q, vcs, pri, 0b1111)
				if esc >= 0 {
					reqs = append(reqs, VCRequest{q, esc, Lowest})
				}
				want := list.Allocate(reqs)
				got := mask.GrantUncontended(q, vcs, &pri, 0b1111, esc)
				if len(want) != 1 || want[0] != (Grant{q, got}) {
					t.Errorf("pri %v esc %d pointer %d: mask form grants %d, list form %v", pri, esc, next, got, want)
				}
				if !reflect.DeepEqual(mask.inNext, list.inNext) || !reflect.DeepEqual(mask.outNext, list.outNext) {
					t.Errorf("pri %v esc %d pointer %d: pointers differ", pri, esc, next)
				}
			}
		}
	}
}

func TestUncontendedOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range resource did not panic")
		}
	}()
	NewVCAllocator(4, 4).GrantUncontended(0, 4, &[Highest + 1]uint32{Low: 1}, 1, -1)
}

// FuzzUncontendedMatchesAllocate lets coverage steer the scenario bytes.
func FuzzUncontendedMatchesAllocate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{4, 31, 0xff, 0xff, 0xff, 0xff, 0xaa, 0xaa, 0xaa, 0xaa, 0x55, 0x55, 0x55, 0x55, 0x0f, 0xf0, 0x0f, 0xf0, 0xff, 0, 0xff, 0})
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{40, 200, 600, 1200} {
		seed := make([]byte, size)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkUncontended(t, &byteDeal{data: data}) })
}
