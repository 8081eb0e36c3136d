// Package reuse keeps the memory of a finished run for the next one to be
// built on: Fit keeps an array when it is large enough, cleared, and Pool
// hands a finished run's memory to a later run (DESIGN.md, "Recycling").
package reuse

import (
	"slices"
	"sync"
)

// Fit returns s as n zero elements: on s's array when it holds n, else on
// a new one.
func Fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Pool holds objects put back for reuse, last put back first, for any
// goroutine to take. It is not a sync.Pool, which hands out any item whatever
// its capacity and drops its items at every GC, and at random under the
// race detector. The zero Pool is empty.
type Pool[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Take removes and returns the object put back last among those prefer
// accepts, else the one put back last, else nil. A nil prefer accepts
// none. prefer runs under the pool's lock, so it may read the pooled
// objects but must not call the pool.
func (p *Pool[T]) Take(prefer func(*T) bool) *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return nil
	}
	i := n - 1
	for j := i; prefer != nil && j >= 0; j-- {
		if prefer(p.free[j]) {
			i = j
			break
		}
	}
	x := p.free[i]
	p.free = slices.Delete(p.free, i, i+1)
	return x
}

// Put returns x to the pool.
func (p *Pool[T]) Put(x *T) {
	p.mu.Lock()
	p.free = append(p.free, x)
	p.mu.Unlock()
}
