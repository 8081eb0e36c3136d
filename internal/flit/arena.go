package flit

import "fmt"

// This file is the fabric's memory layout for near-zero steady-state
// allocation: a per-run arena that owns every Flit and Packet moving
// through one network. Slots are recycled through free-lists and zeroed
// as they are freed, so a pointer kept across a free reads a zero value
// at once instead of the slot's next tenant.
//
// Slabs are chunked so slot pointers stay stable for the arena's
// lifetime: the rest of the simulator keeps passing *Flit and *Packet
// around (channels, input buffers, metrics sinks) and those pointers
// remain valid exactly until the owning Free call.

// arenaChunkSize is the slot count per slab chunk. Chunks are never
// reallocated, so slot pointers are stable.
const arenaChunkSize = 1024

// PoolStats describes one slot pool of an arena.
type PoolStats struct {
	// Live is the number of currently allocated slots; Free the number
	// of recycled slots awaiting reuse; HighWater the maximum Live ever
	// observed (the pool's working-set size).
	Live      int `json:"live"`
	Free      int `json:"free"`
	HighWater int `json:"high_water"`
	// Allocs counts every allocation served; Reused counts the subset
	// served from the free-list rather than by growing a slab. A
	// steady-state loop has Allocs ≈ Reused.
	Allocs uint64 `json:"allocs"`
	Reused uint64 `json:"reused"`
}

// ArenaStats is the arena's self-accounting, one pool per slot type. Like
// every runtime self-metric it is deterministic for a deterministic
// fabric: the counters move only on fabric events.
type ArenaStats struct {
	Flits   PoolStats `json:"flits"`
	Packets PoolStats `json:"packets"`
}

// String renders the stats as a one-line report.
func (s ArenaStats) String() string {
	return fmt.Sprintf(
		"flits live=%d free=%d hw=%d reuse=%d/%d; packets live=%d free=%d hw=%d reuse=%d/%d",
		s.Flits.Live, s.Flits.Free, s.Flits.HighWater, s.Flits.Reused, s.Flits.Allocs,
		s.Packets.Live, s.Packets.Free, s.Packets.HighWater, s.Packets.Reused, s.Packets.Allocs)
}

// Arena owns the Flits and Packets of one network. It is not safe for
// concurrent use; one network is stepped by one goroutine.
type Arena struct {
	flits   pool[Flit]
	packets pool[Packet]
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// pool is one chunked slab with a free-list.
type pool[T any] struct {
	chunks [][]T
	slots  int  // slots cut from the chunks so far
	free   []*T // recycled slots (LIFO keeps slots cache-warm)
	stats  PoolStats
}

// alloc hands out a zeroed slot: fresh slab slots are zero as made,
// recycled ones were zeroed by release.
func (p *pool[T]) alloc() *T {
	var s *T
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
		p.stats.Reused++
	} else {
		if p.slots%arenaChunkSize == 0 {
			p.chunks = append(p.chunks, make([]T, arenaChunkSize))
		}
		s = &p.chunks[len(p.chunks)-1][p.slots%arenaChunkSize]
		p.slots++
	}
	p.stats.Allocs++
	p.stats.Live++
	if p.stats.Live > p.stats.HighWater {
		p.stats.HighWater = p.stats.Live
	}
	return s
}

// release zeroes slot s and recycles it. The slot is zeroed here, not on
// reuse: a pointer kept across the free reads a zero value at once
// instead of a plausible one until the next tenant, and no longer names
// its arena, so freeing it again is a no-op.
func (p *pool[T]) release(s *T) {
	var zero T
	*s = zero
	p.free = append(p.free, s)
	p.stats.Live--
}

func (p *pool[T]) snapshot() PoolStats {
	s := p.stats
	s.Free = len(p.free)
	return s
}

// NewFlit allocates a zeroed flit. The flit stays valid until FreeFlit.
func (a *Arena) NewFlit() *Flit {
	f := a.flits.alloc()
	f.arena = a
	return f
}

// FreeFlit returns f's slot to the arena. f must not be used afterwards.
// Freeing a flit that is not arena-managed (heap-allocated, or already
// freed) is a no-op; freeing a flit owned by another arena panics.
func (a *Arena) FreeFlit(f *Flit) {
	if f.arena == nil {
		return
	}
	if f.arena != a {
		panic("flit: flit freed into foreign arena")
	}
	a.flits.release(f)
}

// NewPacket allocates a zeroed packet. The packet pointer stays stable —
// trace players key in-flight state by it — until FreePacket.
func (a *Arena) NewPacket() *Packet {
	p := a.packets.alloc()
	p.arena = a
	return p
}

// FreePacket recycles p. Packets not managed by any arena (plain
// heap-allocated ones from arena-unaware injectors) are ignored, so the
// endpoint can free unconditionally at ejection.
func (a *Arena) FreePacket(p *Packet) {
	if p.arena == nil {
		return
	}
	if p.arena != a {
		panic("flit: packet freed into foreign arena")
	}
	a.packets.release(p)
}

// Stats reports the arena's live/free/high-water accounting.
func (a *Arena) Stats() ArenaStats {
	return ArenaStats{Flits: a.flits.snapshot(), Packets: a.packets.snapshot()}
}
