package flit

import "fmt"

// This file is the fabric's memory layout for near-zero steady-state
// allocation: a per-run arena that owns every Flit and Packet moving
// through one network. Slots are recycled through free-lists and guarded
// by generation-tagged handles — a recycled slot bumps its generation, so
// any stale Handle kept across a free is detected by Get/free instead of
// silently aliasing the slot's next tenant.
//
// Slabs are chunked so slot pointers stay stable for the arena's
// lifetime: the rest of the simulator keeps passing *Flit and *Packet
// around (channels, input buffers, metrics sinks) and those pointers
// remain valid exactly until the owning Free call.

// Handle identifies one arena slot with its allocation generation: the
// low 32 bits are the slot index, the high 32 bits the generation the
// slot had when allocated. The zero Handle is never issued (generations
// start at 1), so a zero value always means "not arena-managed".
type Handle uint64

// handleOf packs a slot index and generation into a Handle.
func handleOf(idx int, gen uint32) Handle {
	return Handle(uint64(gen)<<32 | uint64(uint32(idx)))
}

// Index returns the slot index of the handle.
func (h Handle) Index() int { return int(uint32(h)) }

// Generation returns the allocation generation of the handle.
func (h Handle) Generation() uint32 { return uint32(h >> 32) }

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

// pool is one chunked slab with a free-list and generation tags.
type pool[T any] struct {
	chunks [][]T
	gens   []uint32 // per slot; bumped on free
	free   []uint32 // recycled slot indexes (LIFO keeps slots cache-warm)
	stats  PoolStats
}

// slot returns the address of slot idx.
func (p *pool[T]) slot(idx int) *T {
	return &p.chunks[idx/arenaChunkSize][idx%arenaChunkSize]
}

// alloc hands out a zeroed slot and its handle: fresh slab slots are
// zero as made, recycled ones were zeroed by release.
func (p *pool[T]) alloc() (*T, Handle) {
	var idx int
	if n := len(p.free); n > 0 {
		idx = int(p.free[n-1])
		p.free = p.free[:n-1]
		p.stats.Reused++
	} else {
		idx = len(p.gens)
		if idx/arenaChunkSize == len(p.chunks) {
			p.chunks = append(p.chunks, make([]T, arenaChunkSize))
		}
		p.gens = append(p.gens, 1)
	}
	p.stats.Allocs++
	p.stats.Live++
	if p.stats.Live > p.stats.HighWater {
		p.stats.HighWater = p.stats.Live
	}
	return p.slot(idx), handleOf(idx, p.gens[idx])
}

// get resolves a handle, panicking on stale generations: a Handle that
// outlived its slot's Free must never alias the slot's next tenant.
func (p *pool[T]) get(h Handle, kind string) *T {
	idx := h.Index()
	if idx >= len(p.gens) || h.Generation() == 0 {
		panic(fmt.Sprintf("flit: %s handle %#x outside arena", kind, uint64(h)))
	}
	if g := p.gens[idx]; g != h.Generation() {
		panic(fmt.Sprintf("flit: stale %s handle %#x (slot %d at generation %d)",
			kind, uint64(h), idx, g))
	}
	return p.slot(idx)
}

// release recycles the slot behind h. The generation bump invalidates
// every outstanding copy of the handle, so double frees panic too. The
// slot is zeroed here, not on reuse: a pointer kept across the free reads
// a zero value at once instead of a plausible one until the next tenant.
func (p *pool[T]) release(h Handle, kind string) {
	var zero T
	*p.get(h, kind) = zero // get validates index and generation
	idx := h.Index()
	p.gens[idx]++
	if p.gens[idx] == 0 {
		// Generation wrapped; skip 0 so issued handles never read as
		// "not arena-managed".
		p.gens[idx] = 1
	}
	p.free = append(p.free, uint32(idx))
	p.stats.Live--
}

func (p *pool[T]) snapshot() PoolStats {
	s := p.stats
	s.Free = len(p.free)
	return s
}

// NewFlit allocates a zeroed flit. The flit stays valid until FreeFlit.
func (a *Arena) NewFlit() *Flit {
	f, h := a.flits.alloc()
	f.arena = a
	f.handle = h
	return f
}

// Flit resolves a flit handle, panicking when the handle is stale (the
// slot has been freed, and possibly recycled, since the handle was
// issued).
func (a *Arena) Flit(h Handle) *Flit { return a.flits.get(h, "flit") }

// FreeFlit returns f's slot to the arena. f must not be used afterwards;
// any retained Handle to it goes stale. Freeing a flit that is not
// arena-managed (heap-allocated, e.g. by flit.Segment) is a no-op;
// freeing a flit owned by another arena panics.
func (a *Arena) FreeFlit(f *Flit) {
	if f.arena == nil {
		return
	}
	if f.arena != a {
		panic("flit: flit freed into foreign arena")
	}
	a.flits.release(f.handle, "flit")
}

// NewPacket allocates a zeroed packet. The packet pointer stays stable —
// trace players key in-flight state by it — until FreePacket.
func (a *Arena) NewPacket() *Packet {
	p, h := a.packets.alloc()
	p.arena = a
	p.handle = h
	return p
}

// Packet resolves a packet handle, panicking when stale.
func (a *Arena) Packet(h Handle) *Packet { return a.packets.get(h, "packet") }

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
	a.packets.release(p.handle, "packet")
}

// Stats reports the arena's live/free/high-water accounting.
func (a *Arena) Stats() ArenaStats {
	return ArenaStats{Flits: a.flits.snapshot(), Packets: a.packets.snapshot()}
}
