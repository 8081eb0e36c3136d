package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundRobinFairness(t *testing.T) {
	a := NewRoundRobin(4)
	all := []bool{true, true, true, true}
	var order []int
	for i := 0; i < 8; i++ {
		order = append(order, a.Arbitrate(all))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant sequence %v, want %v", order, want)
		}
	}
}

func TestRoundRobinSkipsIdle(t *testing.T) {
	a := NewRoundRobin(4)
	if got := a.Arbitrate([]bool{false, false, true, false}); got != 2 {
		t.Errorf("grant = %d, want 2", got)
	}
	// Pointer advanced past 2; only requester 0 active now.
	if got := a.Arbitrate([]bool{true, false, false, false}); got != 0 {
		t.Errorf("grant = %d, want 0", got)
	}
}

func TestRoundRobinNoRequest(t *testing.T) {
	a := NewRoundRobin(3)
	if got := a.Arbitrate([]bool{false, false, false}); got != -1 {
		t.Errorf("grant = %d, want -1", got)
	}
	// State unchanged: next grant starts from 0.
	if got := a.Arbitrate([]bool{true, true, true}); got != 0 {
		t.Errorf("grant = %d, want 0", got)
	}
}

func TestRoundRobinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("size mismatch did not panic")
		}
	}()
	NewRoundRobin(2).Arbitrate([]bool{true})
}

func TestNewRoundRobinValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRoundRobin(0) did not panic")
		}
	}()
	NewRoundRobin(0)
}

func TestPriorityRoundRobinPicksHighest(t *testing.T) {
	a := NewPriorityRoundRobin(4)
	got := a.Arbitrate([]Priority{Low, Highest, High, Highest})
	if got != 1 {
		t.Errorf("grant = %d, want 1 (first Highest)", got)
	}
	// Round robin among equals: next Highest tie should go to 3.
	got = a.Arbitrate([]Priority{Low, Highest, High, Highest})
	if got != 3 {
		t.Errorf("grant = %d, want 3", got)
	}
}

func TestPriorityRoundRobinNone(t *testing.T) {
	a := NewPriorityRoundRobin(2)
	if got := a.Arbitrate([]Priority{None, None}); got != -1 {
		t.Errorf("grant = %d, want -1", got)
	}
}

func TestPriorityOrdering(t *testing.T) {
	if !(None < Lowest && Lowest < Low && Low < High && High < Highest) {
		t.Error("priority ordering broken")
	}
	names := map[Priority]string{None: "none", Lowest: "lowest", Low: "low", High: "high", Highest: "highest"}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
	if Priority(99).String() != "invalid" {
		t.Error("invalid priority string")
	}
}

// Property: round-robin always grants a requester that actually requested.
func TestRoundRobinGrantsRequester(t *testing.T) {
	a := NewRoundRobin(8)
	f := func(bits uint8) bool {
		reqs := make([]bool, 8)
		any := false
		for i := range reqs {
			reqs[i] = bits&(1<<i) != 0
			any = any || reqs[i]
		}
		g := a.Arbitrate(reqs)
		if !any {
			return g == -1
		}
		return g >= 0 && g < 8 && reqs[g]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: under persistent full load, every requester is granted exactly
// once per n cycles (strong fairness).
func TestRoundRobinStrongFairness(t *testing.T) {
	const n = 5
	a := NewRoundRobin(n)
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	counts := make([]int, n)
	for i := 0; i < 10*n; i++ {
		counts[a.Arbitrate(all)]++
	}
	for i, c := range counts {
		if c != 10 {
			t.Errorf("requester %d granted %d times, want 10", i, c)
		}
	}
}

// scanArbitrate is the two-scan arbitration loop RoundRobin ran over a
// []bool before it took masks, kept as the reference ArbitrateMask is
// compared with: the winner among the set bits of req for a pointer at
// next, and the pointer after the grant.
func scanArbitrate(n, next int, req uint32) (winner, after int) {
	for idx := next; idx < n; idx++ {
		if req&(1<<uint(idx)) != 0 {
			return idx, (idx + 1) % n
		}
	}
	for idx := 0; idx < next; idx++ {
		if req&(1<<uint(idx)) != 0 {
			return idx, (idx + 1) % n
		}
	}
	return -1, next
}

// checkArbitrateMask runs one arbitration from pointer next on both forms.
func checkArbitrateMask(t *testing.T, n, next int, req uint32) {
	t.Helper()
	a := &RoundRobin{n: n, next: next}
	want, wantNext := scanArbitrate(n, next, req)
	if got := a.ArbitrateMask(req); got != want || a.next != wantNext {
		t.Fatalf("n=%d next=%d req=%#x: winner %d pointer %d, scan says %d and %d",
			n, next, req, got, a.next, want, wantNext)
	}
}

// TestArbitrateMaskMatchesScan holds the mask arbiter to the scan it
// replaced: every mask at every pointer for small arbiters, and a seeded
// sample at the switch allocator's widest sizes.
func TestArbitrateMaskMatchesScan(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for next := 0; next < n; next++ {
			for req := uint32(0); req < 1<<uint(n); req++ {
				checkArbitrateMask(t, n, next, req)
			}
		}
	}
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{10, 32} {
		for i := 0; i < 20000; i++ {
			req := rng.Uint32() >> uint(32-n)
			if i%2 == 0 {
				req &= rng.Uint32() & rng.Uint32() // sparse masks as well as dense
			}
			checkArbitrateMask(t, n, rng.Intn(n), req)
		}
	}
}

// FuzzArbitrateMask is the same comparison on fuzz-chosen sizes, pointers
// and masks, and holds Arbitrate([]bool) to the mask form it packs into.
func FuzzArbitrateMask(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint32(1))
	f.Add(uint8(5), uint8(3), uint32(0b00101))
	f.Add(uint8(5), uint8(4), uint32(0b01111))
	f.Add(uint8(10), uint8(9), uint32(0))
	f.Add(uint8(32), uint8(31), uint32(1<<31))
	f.Add(uint8(32), uint8(17), uint32(0xffff))
	f.Fuzz(func(t *testing.T, size, ptr uint8, req uint32) {
		n := 1 + int(size)%32
		next := int(ptr) % n
		req &= 1<<uint(n) - 1
		checkArbitrateMask(t, n, next, req)

		vec := make([]bool, n)
		for i := range vec {
			vec[i] = req&(1<<uint(i)) != 0
		}
		a, b := &RoundRobin{n: n, next: next}, &RoundRobin{n: n, next: next}
		if got, want := a.Arbitrate(vec), b.ArbitrateMask(req); got != want || a.next != b.next {
			t.Fatalf("n=%d next=%d req=%#x: Arbitrate %d pointer %d, ArbitrateMask %d pointer %d",
				n, next, req, got, a.next, want, b.next)
		}
	})
}

// TestRoundRobinMaskPanics: a request from a requester the arbiter does
// not have, and an arbiter wider than its mask, are bugs in the caller.
func TestRoundRobinMaskPanics(t *testing.T) {
	if got := NewRoundRobin(32).ArbitrateMask(1 << 31); got != 31 {
		t.Errorf("32-wide arbiter granted %d, want 31", got)
	}
	for name, f := range map[string]func(){
		"bit at n":      func() { NewRoundRobin(5).ArbitrateMask(1 << 5) },
		"bit above n":   func() { NewRoundRobin(5).ArbitrateMask(1<<31 | 1) },
		"33 requesters": func() { NewRoundRobin(33) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
