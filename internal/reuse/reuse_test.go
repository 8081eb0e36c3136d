package reuse

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestFit: an array that holds n elements is kept and all n come back
// zero, the ones past the old length too; a shorter one is replaced by a
// new array of exactly n.
func TestFit(t *testing.T) {
	s := make([]int, 8)
	for i := range s {
		s[i] = i + 1
	}
	kept := Fit(s[:3], 8)
	if len(kept) != 8 || &kept[0] != &s[0] {
		t.Fatalf("Fit on an array of 8 to 8: len %d, same array %v", len(kept), &kept[0] == &s[0])
	}
	for i, v := range kept {
		if v != 0 {
			t.Errorf("kept element %d = %d, want 0", i, v)
		}
	}
	s[0] = 9
	grown := Fit(s, 9)
	if len(grown) != 9 || cap(grown) != 9 || &grown[0] == &s[0] || grown[0] != 0 {
		t.Errorf("Fit on an array of 8 to 9: len %d, cap %d, same array %v, first %d; want a new zero array of 9",
			len(grown), cap(grown), &grown[0] == &s[0], grown[0])
	}
}

// TestPoolTake: Take prefers the accepted object put back last, falls
// back to the one put back last, and returns nil on an empty pool.
func TestPoolTake(t *testing.T) {
	var p Pool[int]
	if x := p.Take(nil); x != nil {
		t.Fatalf("Take on an empty pool = %v, want nil", x)
	}
	a, b, c := new(int), new(int), new(int)
	*a, *b, *c = 1, 2, 3
	p.Put(a)
	p.Put(b)
	p.Put(c)
	if x := p.Take(func(x *int) bool { return *x < 3 }); x != b {
		t.Errorf("Take preferring 1 and 2 = %d, want 2", *x)
	}
	if x := p.Take(func(*int) bool { return false }); x != c {
		t.Errorf("Take preferring none = %d, want 3, the last put", *x)
	}
	if x := p.Take(nil); x != a {
		t.Errorf("Take = %d, want 1, the one left", *x)
	}
	if x := p.Take(nil); x != nil {
		t.Errorf("Take on a drained pool = %d, want nil", *x)
	}
}

// TestPoolConcurrentTakePut: goroutines that take, use and put back
// objects of one pool, with and without a preference, never hold one
// object at once.
func TestPoolConcurrentTakePut(t *testing.T) {
	type obj struct {
		held atomic.Bool
		size int
	}
	const workers, rounds = 8, 2000
	var p Pool[obj]
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				var prefer func(*obj) bool
				if r%2 == 0 {
					prefer = func(o *obj) bool { return o.size >= w }
				}
				o := p.Take(prefer)
				if o == nil {
					o = &obj{size: w}
				}
				if !o.held.CompareAndSwap(false, true) {
					t.Error("Take handed out an object another taker holds")
					return
				}
				o.size = max(o.size, w)
				o.held.Store(false)
				p.Put(o)
			}
		}()
	}
	wg.Wait()
}
