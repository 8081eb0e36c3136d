// Package traffic generates the synthetic workloads of the paper's
// evaluation: uniform random, transpose, shuffle and bit-complement
// patterns, explicit permutation flows, and the hotspot configuration of
// Table 3 with uniform background traffic.
package traffic

import (
	"fmt"
	"math/rand"
	"strings"

	"nocsim/internal/flit"
	"nocsim/internal/topo"
)

// Pattern maps a source node to the destination of its next packet.
type Pattern interface {
	// Dest returns the destination for a packet from src, or ok=false
	// when src does not generate traffic under this pattern (e.g. the
	// diagonal of a transpose).
	Dest(src int, rng *rand.Rand) (dest int, ok bool)
}

// Uniform sends every packet to a destination drawn uniformly from all
// other nodes.
type Uniform struct{ Nodes int }

// Dest implements Pattern.
func (u Uniform) Dest(src int, rng *rand.Rand) (int, bool) {
	if u.Nodes < 2 {
		return 0, false
	}
	d := rng.Intn(u.Nodes - 1)
	if d >= src {
		d++
	}
	return d, true
}

// Transpose sends (x, y) to (y, x); diagonal nodes are silent. The mesh
// must be square.
type Transpose struct{ Mesh topo.Mesh }

// Dest implements Pattern.
func (t Transpose) Dest(src int, _ *rand.Rand) (int, bool) {
	if t.Mesh.Width != t.Mesh.Height {
		panic("traffic: transpose requires a square mesh")
	}
	c := t.Mesh.Coord(src)
	d := t.Mesh.Node(topo.Coord{X: c.Y, Y: c.X})
	if d == src {
		return 0, false
	}
	return d, true
}

// Shuffle rotates the node address left by one bit: dest = (2*src +
// 2*src/N) mod N. The node count must be a power of two.
type Shuffle struct{ Nodes int }

// Dest implements Pattern.
func (s Shuffle) Dest(src int, _ *rand.Rand) (int, bool) {
	if s.Nodes&(s.Nodes-1) != 0 {
		panic("traffic: shuffle requires a power-of-two node count")
	}
	d := (2*src + 2*src/s.Nodes) % s.Nodes
	if d == src {
		return 0, false
	}
	return d, true
}

// BitComplement sends node i to node N-1-i.
type BitComplement struct{ Nodes int }

// Dest implements Pattern.
func (b BitComplement) Dest(src int, _ *rand.Rand) (int, bool) {
	d := b.Nodes - 1 - src
	if d == src {
		return 0, false
	}
	return d, true
}

// Permutation sends each listed source to its fixed destination; other
// nodes are silent.
type Permutation struct{ Flows map[int]int }

// Dest implements Pattern.
func (p Permutation) Dest(src int, _ *rand.Rand) (int, bool) {
	d, ok := p.Flows[src]
	return d, ok
}

// patterns is the pattern table: every pattern ByName builds, in the
// order Names lists them, with the condition a mesh must meet for it and
// its constructor.
var patterns = []struct {
	name string
	// fits returns why pattern name is not defined on m, or nil.
	fits func(name string, m topo.Mesh) error
	make func(m topo.Mesh) Pattern
}{
	{"uniform", twoNodes, func(m topo.Mesh) Pattern { return Uniform{Nodes: m.Nodes()} }},
	{"transpose", square, func(m topo.Mesh) Pattern { return Transpose{Mesh: m} }},
	{"shuffle", powerOfTwo, func(m topo.Mesh) Pattern { return Shuffle{Nodes: m.Nodes()} }},
	{"bitcomp", twoNodes, func(m topo.Mesh) Pattern { return BitComplement{Nodes: m.Nodes()} }},
}

// twoNodes is every pattern's condition: a single node has nowhere to
// send.
func twoNodes(_ string, m topo.Mesh) error {
	if m.Nodes() < 2 {
		return fmt.Errorf("traffic: a %dx%d mesh has no second node to send to", m.Width, m.Height)
	}
	return nil
}

// square is twoNodes on a mesh as wide as it is high.
func square(name string, m topo.Mesh) error {
	if m.Width != m.Height {
		return fmt.Errorf("traffic: %s requires a square mesh, have %dx%d", name, m.Width, m.Height)
	}
	return twoNodes(name, m)
}

// powerOfTwo is twoNodes on a power-of-two node count.
func powerOfTwo(name string, m topo.Mesh) error {
	if m.Nodes()&(m.Nodes()-1) != 0 {
		return fmt.Errorf("traffic: %s requires a power-of-two node count, have %d", name, m.Nodes())
	}
	return twoNodes(name, m)
}

// Names lists the patterns ByName builds, in table order.
func Names() []string {
	names := make([]string, len(patterns))
	for i, p := range patterns {
		names[i] = p.name
	}
	return names
}

// ByName constructs the named pattern for mesh m. It returns an error
// when the name is not in the table or the pattern is not defined on m,
// so a pattern it returns never panics in Dest.
func ByName(name string, m topo.Mesh) (Pattern, error) {
	for _, p := range patterns {
		if p.name == name {
			if err := p.fits(name, m); err != nil {
				return nil, err
			}
			return p.make(m), nil
		}
	}
	return nil, fmt.Errorf("traffic: unknown pattern %q (want %s)", name, strings.Join(Names(), "|"))
}

// SizeFn draws a packet size in flits.
type SizeFn func(rng *rand.Rand) int

// FixedSize returns a SizeFn for constant n-flit packets.
func FixedSize(n int) SizeFn {
	if n < 1 {
		panic("traffic: packet size must be >= 1")
	}
	return func(*rand.Rand) int { return n }
}

// UniformSize returns a SizeFn drawing sizes uniformly from [lo, hi]; the
// paper's variable-size evaluation uses 1..6 flits.
func UniformSize(lo, hi int) SizeFn {
	if lo < 1 || hi < lo {
		panic("traffic: invalid size range")
	}
	return func(rng *rand.Rand) int { return lo + rng.Intn(hi-lo+1) }
}

// SizeRange returns the SizeFn for packet sizes drawn uniformly from
// [lo, hi] flits (constant when lo == hi), or an error for a range no
// packet can have. Callers holding user input use it in place of
// FixedSize and UniformSize, which panic.
func SizeRange(lo, hi int) (SizeFn, error) {
	switch {
	case lo < 1:
		return nil, fmt.Errorf("traffic: packet size must be >= 1 flit, have %d", lo)
	case hi < lo:
		return nil, fmt.Errorf("traffic: invalid packet size range %d..%d", lo, hi)
	case lo == hi:
		return FixedSize(lo), nil
	}
	return UniformSize(lo, hi), nil
}

// CheckRate rejects an offered load a Bernoulli source cannot inject: a
// node's injection port takes one flit per cycle, so a load outside
// [0, 1] flits/node/cycle (or NaN) is an error rather than being clamped.
func CheckRate(rate float64) error {
	if !(rate >= 0 && rate <= 1) {
		return fmt.Errorf("traffic: offered load must be within 0..1 flits/node/cycle, have %v", rate)
	}
	return nil
}

// MeanSize estimates the expectation of a SizeFn by sampling; generators
// use it to convert a flit injection rate into a packet probability.
func MeanSize(f SizeFn, rng *rand.Rand) float64 {
	const samples = 4096
	sum := 0
	for i := 0; i < samples; i++ {
		sum += f(rng)
	}
	return float64(sum) / samples
}

// Generator injects Bernoulli traffic: each source node independently
// generates a packet with probability Rate/mean(Size) per cycle, so the
// offered load equals Rate flits per node per cycle.
type Generator struct {
	// Nodes are the source nodes; nil means every node of the mesh.
	Nodes   []int
	Pattern Pattern
	// Rate is the offered load in flits per source node per cycle.
	Rate  float64
	Size  SizeFn
	Class flit.Class

	prob   float64
	nextID uint64
	rng    *rand.Rand
	arena  *flit.Arena
}

// UseArena makes the generator allocate packets from a instead of the
// heap; the network's endpoints recycle them at ejection. Call before
// Tick.
func (g *Generator) UseArena(a *flit.Arena) { g.arena = a }

// newPacket allocates one packet, arena-backed when an arena is set.
func (g *Generator) newPacket() *flit.Packet {
	if g.arena != nil {
		return g.arena.NewPacket()
	}
	return &flit.Packet{}
}

// Init prepares the generator for mesh m using rng for all randomness.
// It must be called once before Tick.
func (g *Generator) Init(m topo.Mesh, rng *rand.Rand) {
	if g.Size == nil {
		g.Size = FixedSize(1)
	}
	if g.Nodes == nil {
		g.Nodes = make([]int, m.Nodes())
		for i := range g.Nodes {
			g.Nodes[i] = i
		}
	}
	g.rng = rng
	g.prob = g.Rate / MeanSize(g.Size, rng)
	if g.prob > 1 {
		g.prob = 1
	}
}

// Tick generates this cycle's packets, passing each to offer with Born set
// to now.
func (g *Generator) Tick(now int64, offer func(*flit.Packet)) {
	for _, src := range g.Nodes {
		if g.rng.Float64() >= g.prob {
			continue
		}
		dest, ok := g.Pattern.Dest(src, g.rng)
		if !ok {
			continue
		}
		g.nextID++
		p := g.newPacket()
		p.ID = g.nextID
		p.Src = src
		p.Dest = dest
		p.Size = g.Size(g.rng)
		p.Class = g.Class
		p.Born = now
		offer(p)
	}
}
