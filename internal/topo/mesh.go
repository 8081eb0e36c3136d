// Package topo models the 2D mesh topology used throughout the simulator:
// node coordinates, router port directions, and minimal-path enumeration.
//
// Nodes are numbered row-major: node = y*Width + x, matching the figures in
// the Footprint paper (ISCA'17), where n0 is the top-left corner of the mesh.
package topo

import "fmt"

// Direction identifies a router port. The four cardinal directions connect
// to neighbouring routers; Local connects to the endpoint (NIC).
type Direction uint8

// Router port directions.
const (
	East Direction = iota
	West
	North
	South
	Local
	numDirections
)

// NumPorts is the number of ports on a mesh router, including the local port.
const NumPorts = int(numDirections)

// String returns the conventional one-letter compass name.
func (d Direction) String() string {
	switch d {
	case East:
		return "E"
	case West:
		return "W"
	case North:
		return "N"
	case South:
		return "S"
	case Local:
		return "L"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Opposite returns the direction a flit arrives from when it was sent
// toward d: a flit leaving a router's East port enters the neighbour's
// West port.
func (d Direction) Opposite() Direction {
	switch d {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	case Local:
		return Local
	default:
		panic(fmt.Sprintf("topo: Opposite of invalid direction %d", int(d)))
	}
}

// Coord is a node position on the mesh. X grows eastward, Y grows southward
// (row-major node numbering as in the paper's figures).
type Coord struct {
	X, Y int
}

// Mesh is a Width×Height 2D mesh. The zero value is not usable; construct
// with New.
type Mesh struct {
	Width  int
	Height int
	// recipW is ⌈2^32/Width⌉, precomputed by New so Coord can turn its
	// node/Width division — on the route-computation hot path for every
	// algorithm — into a multiply and shift. The quotient
	// (node*recipW)>>32 is exact for node < 2^16 and Width < 2^16
	// (Granlund–Montgomery round-up invariant: node*Width < 2^32), which
	// New guarantees by bounding the node count. Zero (a Mesh built
	// without New) falls back to plain division.
	recipW uint64
}

// maxNodes bounds the mesh size so the reciprocal-multiply Coord stays
// exact. 65535 routers is more than an order of magnitude beyond the
// largest mesh in the paper's experiments (32×32).
const maxNodes = 1<<16 - 1

// New returns a Width×Height mesh. Width and Height must be positive.
func New(width, height int) (Mesh, error) {
	if width <= 0 || height <= 0 {
		return Mesh{}, fmt.Errorf("topo: invalid mesh dimensions %dx%d", width, height)
	}
	if width*height > maxNodes {
		return Mesh{}, fmt.Errorf("topo: mesh %dx%d exceeds %d nodes", width, height, maxNodes)
	}
	return Mesh{
		Width:  width,
		Height: height,
		recipW: (1<<32 + uint64(width) - 1) / uint64(width),
	}, nil
}

// MustNew is New but panics on invalid dimensions; intended for tests and
// literals with constant dimensions.
func MustNew(width, height int) Mesh {
	m, err := New(width, height)
	if err != nil {
		panic(err)
	}
	return m
}

// Nodes returns the number of nodes (= routers = endpoints) in the mesh.
func (m Mesh) Nodes() int { return m.Width * m.Height }

// Coord returns the coordinates of node id.
func (m Mesh) Coord(node int) Coord {
	if m.recipW != 0 {
		y := int(uint64(uint32(node)) * m.recipW >> 32)
		return Coord{X: node - y*m.Width, Y: y}
	}
	return Coord{X: node % m.Width, Y: node / m.Width}
}

// Node returns the node id at coordinate c.
func (m Mesh) Node(c Coord) int { return c.Y*m.Width + c.X }

// Contains reports whether c lies on the mesh.
func (m Mesh) Contains(c Coord) bool {
	return c.X >= 0 && c.X < m.Width && c.Y >= 0 && c.Y < m.Height
}

// Neighbor returns the node adjacent to node in direction d and true, or
// -1 and false when the port faces the mesh edge (or d is Local).
func (m Mesh) Neighbor(node int, d Direction) (int, bool) {
	c := m.Coord(node)
	switch d {
	case East:
		c.X++
	case West:
		c.X--
	case North:
		c.Y--
	case South:
		c.Y++
	case Local:
		return -1, false
	default:
		panic(fmt.Sprintf("topo: Neighbor of invalid direction %d", int(d)))
	}
	if !m.Contains(c) {
		return -1, false
	}
	return m.Node(c), true
}

// MinimalDirs returns the productive directions from cur toward dest:
// at most one X-dimension direction and one Y-dimension direction.
// Both returned booleans are false when cur == dest.
func (m Mesh) MinimalDirs(cur, dest int) (dx Direction, hasX bool, dy Direction, hasY bool) {
	cc, dc := m.Coord(cur), m.Coord(dest)
	if dc.X > cc.X {
		dx, hasX = East, true
	} else if dc.X < cc.X {
		dx, hasX = West, true
	}
	if dc.Y > cc.Y {
		dy, hasY = South, true
	} else if dc.Y < cc.Y {
		dy, hasY = North, true
	}
	return dx, hasX, dy, hasY
}

// Hops returns the minimal hop count between two nodes.
func (m Mesh) Hops(a, b int) int {
	ca, cb := m.Coord(a), m.Coord(b)
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y)
}

// MinimalPathCount returns the number of distinct minimal paths between two
// nodes: C(dx+dy, dx). Used by the adaptiveness metrics.
func (m Mesh) MinimalPathCount(a, b int) int {
	ca, cb := m.Coord(a), m.Coord(b)
	dx, dy := abs(ca.X-cb.X), abs(ca.Y-cb.Y)
	return binomial(dx+dy, dx)
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1
	for i := 1; i <= k; i++ {
		r = r * (n - k + i) / i
	}
	return r
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
