package traffic

import (
	"math/rand"

	"nocsim/internal/topo"
)

// This file adds the remaining classic synthetic patterns of the
// interconnection-networks literature (Dally & Towles, ch. 3); uniform,
// transpose, shuffle and bit-complement live in traffic.go.

// Tornado sends each node halfway around its row: (x, y) -> ((x + W/2 - 1)
// mod W, y), the canonical adversarial pattern for ring-like dimensions.
type Tornado struct{ Mesh topo.Mesh }

// Name implements Pattern.
func (Tornado) Name() string { return "tornado" }

// Dest implements Pattern.
func (t Tornado) Dest(src int, _ *rand.Rand) (int, bool) {
	c := t.Mesh.Coord(src)
	shift := t.Mesh.Width/2 - 1
	if shift <= 0 {
		return 0, false
	}
	d := t.Mesh.Node(topo.Coord{X: (c.X + shift) % t.Mesh.Width, Y: c.Y})
	if d == src {
		return 0, false
	}
	return d, true
}

// BitReverse sends node i to the node whose address is i's bit-reversal.
// The node count must be a power of two.
type BitReverse struct{ Nodes int }

// Name implements Pattern.
func (BitReverse) Name() string { return "bitrev" }

// Dest implements Pattern.
func (b BitReverse) Dest(src int, _ *rand.Rand) (int, bool) {
	if b.Nodes&(b.Nodes-1) != 0 {
		panic("traffic: bit-reverse requires a power-of-two node count")
	}
	bits := 0
	for 1<<bits < b.Nodes {
		bits++
	}
	d := 0
	for i := 0; i < bits; i++ {
		if src&(1<<i) != 0 {
			d |= 1 << (bits - 1 - i)
		}
	}
	if d == src {
		return 0, false
	}
	return d, true
}

// Neighbor sends each node to its east neighbour (wrapping within the
// row), the gentlest possible pattern; useful as a locality baseline.
type Neighbor struct{ Mesh topo.Mesh }

// Name implements Pattern.
func (Neighbor) Name() string { return "neighbor" }

// Dest implements Pattern.
func (n Neighbor) Dest(src int, _ *rand.Rand) (int, bool) {
	c := n.Mesh.Coord(src)
	d := n.Mesh.Node(topo.Coord{X: (c.X + 1) % n.Mesh.Width, Y: c.Y})
	if d == src {
		return 0, false
	}
	return d, true
}
