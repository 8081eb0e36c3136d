package alloc

import (
	"math/rand"
	"reflect"
	"testing"
)

// checkSharedScratch builds two allocators of fuzz-chosen sizes on one
// VCScratch and, beside them, the same two with scratches of their own,
// then calls each pair alternately on the same fuzz-chosen requests: a
// call on one allocator must leave nothing in the scratch the other's next
// call sees, so the shared pair must match the private pair call by call
// — grants, grant order, round-robin pointers.
func checkSharedScratch(t *testing.T, d *byteDeal) {
	t.Helper()
	var nq, nr [2]int
	for k := range nq {
		nq[k], nr[k] = 1+d.next()%24, 1+d.next()%24
	}
	q, r := max(nq[0], nq[1]), max(nr[0], nr[1])
	sc := MakeVCScratch(q, r, make([]int32, 2*(q+r)), make([]uint8, q+r), make([]Grant, min(q, r)))
	var shared, private [2]*VCAllocator
	for k := range shared {
		a := MakeVCAllocator(nq[k], nr[k], make([]int32, nq[k]+nr[k]), &sc)
		shared[k], private[k] = &a, NewVCAllocator(nq[k], nr[k])
		for i := range a.inNext {
			a.inNext[i] = int32(d.next() % nr[k])
		}
		for i := range a.outNext {
			a.outNext[i] = int32(d.next() % nq[k])
		}
		copy(private[k].inNext, a.inNext)
		copy(private[k].outNext, a.outNext)
	}
	for call := 0; call < 16; call++ {
		k := call % 2
		reqs := make([]VCRequest, d.next()%48)
		for i := range reqs {
			reqs[i] = VCRequest{Requester: d.next() % nq[k], Resource: d.next() % nr[k], Pri: Priority(d.next() % int(Highest+1))}
		}
		want := append([]Grant(nil), private[k].Allocate(reqs)...)
		got := shared[k].Allocate(reqs)
		if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d on allocator %d (%dx%d), requests %v:\nshared scratch grants %v\nown scratch grants    %v",
				call, k, nq[k], nr[k], reqs, got, want)
		}
		for j := range shared {
			if !reflect.DeepEqual(shared[j].inNext, private[j].inNext) || !reflect.DeepEqual(shared[j].outNext, private[j].outNext) {
				t.Fatalf("call %d on allocator %d: allocator %d's pointers differ:\nshared scratch in %v out %v\nown scratch    in %v out %v",
					call, k, j, shared[j].inNext, shared[j].outNext, private[j].inNext, private[j].outNext)
			}
		}
	}
}

func TestSharedScratchMatchesPrivate(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, 64+rng.Intn(2048))
		rng.Read(data)
		checkSharedScratch(t, &byteDeal{data: data})
	}
}

// FuzzSharedScratchMatchesPrivate lets coverage steer the sizes, pointers
// and requests.
func FuzzSharedScratchMatchesPrivate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 3, 3, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 4, 0, 0, 5, 1, 0, 5, 2, 1, 3})
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{100, 600, 2000} {
		seed := make([]byte, size)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkSharedScratch(t, &byteDeal{data: data}) })
}

func TestAllocatorLargerThanScratchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("an allocator larger than its scratch did not panic")
		}
	}()
	sc := MakeVCScratch(2, 2, make([]int32, 8), make([]uint8, 4), make([]Grant, 2))
	MakeVCAllocator(3, 2, make([]int32, 5), &sc)
}
