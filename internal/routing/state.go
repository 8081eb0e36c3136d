package routing

import (
	"math/bits"

	"nocsim/internal/topo"
)

// State is the routing-visible state of one router as plain data: bit v
// of a mask describes VC v of the port. The router that owns a State
// writes it where its output VCs change hands; routing algorithms and
// the neighbours' DownstreamIdle only read it, through the fields or the
// read methods below.
type State struct {
	// VCs is the number of virtual channels per physical channel.
	VCs int
	// Lo is the first adaptive VC under the router's own algorithm: 1
	// when VC 0 is its escape channel, else 0.
	Lo int
	// Idle[d] is the mask of port d's idle VCs: those that hold no flits
	// downstream and are not allocated, so have no owner.
	Idle [topo.NumPorts]uint32
	// Owner[int(d)*VCs+v] is the owner register of VC v of port d (Section
	// 4.4): the destination of the packets occupying it, -1 once drained.
	// Only SetOwner writes it, so that Owners stays in step.
	Owner []int32
	// Owners[int(d)*Mesh.Nodes()+dest] is the mask of port d's VCs whose
	// Owner is dest (its footprint VCs toward dest): an index over Owner
	// built only for an algorithm whose decisions read it, nil otherwise.
	Owners []uint32
	// RegOwner[int(d)*VCs+v] is the persistent footprint register of VC v
	// of port d: the destination of the last packet allocated to it,
	// surviving drains until overwritten; -1 before the first.
	RegOwner []int32
	// Mesh is the topology and Pos the router's own position on it.
	Mesh topo.Mesh
	Pos  topo.Coord
}

// NewState returns the State of node's router on m under alg, every VC
// idle and unowned. Only Footprint, whose decisions read the owner index,
// gets one: no other State holds anything sized by the mesh.
func NewState(m topo.Mesh, node, vcs int, alg Algorithm) State {
	regs, index := StateLen(m, vcs, alg)
	return NewStateOn(m, node, vcs, alg, make([]int32, regs), make([]uint32, index))
}

// StateLen returns how many owner registers and owner-index entries a
// State of vcs VCs on m under alg holds: the lengths NewStateOn takes.
// The index is Footprint's alone, so it is 0 for every other algorithm.
func StateLen(m topo.Mesh, vcs int, alg Algorithm) (regs, index int) {
	if _, ok := alg.(*Footprint); ok {
		index = topo.NumPorts * m.Nodes()
	}
	return 2 * topo.NumPorts * vcs, index
}

// NewStateOn is NewState on memory the caller cuts, zeroed, of the
// lengths StateLen gives: regs becomes Owner and RegOwner, and index
// Owners (nil when the length is 0).
func NewStateOn(m topo.Mesh, node, vcs int, alg Algorithm, regs []int32, index []uint32) State {
	if r, i := StateLen(m, vcs, alg); len(regs) != r || len(index) != i {
		panic("routing: State registers or owner index of the wrong size")
	}
	n := topo.NumPorts * vcs
	for i := range regs {
		regs[i] = -1
	}
	s := State{
		VCs:      vcs,
		Owner:    regs[:n:n],
		RegOwner: regs[n:],
		Mesh:     m,
		Pos:      m.Coord(node),
	}
	if alg.UsesEscape() {
		s.Lo = 1
	}
	if len(index) > 0 {
		s.Owners = index
	}
	for d := range s.Idle {
		s.Idle[d] = vcMask(0, vcs)
	}
	return s
}

// SetOwner sets the owner register of VC v of port d to dest (-1 on
// drain) and keeps the index, where there is one, in step: the one write
// path of Owner and Owners.
func (s *State) SetOwner(d topo.Direction, v, dest int) {
	i := int(d)*s.VCs + v
	old := int(s.Owner[i])
	s.Owner[i] = int32(dest)
	if s.Owners == nil || old == dest {
		return
	}
	row, bit := s.Owners[int(d)*s.Mesh.Nodes():], uint32(1)<<uint(v)
	if old >= 0 {
		row[old] &^= bit
	}
	if dest >= 0 {
		row[dest] |= bit
	}
}

// IdleCount returns the number of idle VCs of port d in [lo, VCs).
func (s *State) IdleCount(d topo.Direction, lo int) int {
	return bits.OnesCount32(s.Idle[d] >> uint(lo))
}

// OwnerBits returns the mask of port d's VCs occupied by packets to dest,
// read from the index: only a decision that was given one calls it.
func (s *State) OwnerBits(d topo.Direction, dest int) uint32 {
	return s.Owners[int(d)*s.Mesh.Nodes()+dest]
}

// OwnerMask is OwnerBits for every State: the index entry where there is
// one, else a scan of the port's owner registers. Everything outside a
// decision reads owners through it.
func (s *State) OwnerMask(d topo.Direction, dest int) uint32 {
	if s.Owners != nil {
		return s.OwnerBits(d, dest)
	}
	return naming(s.Owner[int(d)*s.VCs:(int(d)+1)*s.VCs], dest)
}

// FootprintCount returns the number of VCs of port d in [lo, VCs)
// occupied by packets to dest.
func (s *State) FootprintCount(d topo.Direction, dest, lo int) int {
	return bits.OnesCount32(s.OwnerBits(d, dest) >> uint(lo))
}

// RegOwnerBits returns the mask of port d's VCs whose persistent
// footprint register names dest. Footprint uses it to re-grant a
// just-drained footprint VC to its own flow first.
func (s *State) RegOwnerBits(d topo.Direction, dest int) uint32 {
	return naming(s.RegOwner[int(d)*s.VCs:(int(d)+1)*s.VCs], dest)
}

// naming returns the mask of the registers in regs that hold dest,
// without a branch per register: x|-x has its top bit set unless x is 0.
func naming(regs []int32, dest int) uint32 {
	var m uint32
	for v, reg := range regs {
		x := uint32(reg ^ int32(dest))
		m |= ((x|-x)>>31 ^ 1) << uint(v)
	}
	return m
}

// MinimalDirs is Mesh.MinimalDirs from this router toward dest. Which way
// a head is going is close to random from one head to the next, so the
// sign of each offset picks the direction arithmetically (East/West are
// 0/1 and North/South 2/3) where comparing would branch.
func (s *State) MinimalDirs(dest int) (dx topo.Direction, hasX bool, dy topo.Direction, hasY bool) {
	c := s.Mesh.Coord(dest)
	ex, ey := c.X-s.Pos.X, c.Y-s.Pos.Y
	dx = topo.East + topo.Direction(uint(ex)>>63)
	if ey != 0 {
		dy = topo.South - topo.Direction(uint(ey)>>63)
	}
	return dx, ex != 0, dy, ey != 0
}

// IdleToward returns the number of idle adaptive VCs over this router's
// productive output ports toward dest (the ejection port when dest is
// this node): what a neighbour's DownstreamIdle reports.
func (s *State) IdleToward(dest int) int {
	dx, hasX, dy, hasY := s.MinimalDirs(dest)
	if !hasX && !hasY {
		return s.IdleCount(topo.Local, s.Lo)
	}
	n := 0
	if hasX {
		n = s.IdleCount(dx, s.Lo)
	}
	if hasY {
		n += s.IdleCount(dy, s.Lo)
	}
	return n
}
