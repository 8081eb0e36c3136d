package obs

import (
	"fmt"
	"sort"
	"strings"

	"nocsim/internal/network"
	"nocsim/internal/topo"
)

// InputVCSnap is one non-idle input virtual channel in a fabric snapshot.
type InputVCSnap struct {
	Port     string `json:"port"`
	VC       int    `json:"vc"`
	State    string `json:"state"` // routing | active
	Buffered int    `json:"buffered"`
	PacketID uint64 `json:"packet,omitempty"`
	Dest     int    `json:"dest"`
	// Blocked is the consecutive cycles the head packet has failed VC
	// allocation (routing state).
	Blocked int64 `json:"blocked,omitempty"`
	// ReqPort is the output port the blocked packet requested (routing
	// state, once routed).
	ReqPort string `json:"req_port,omitempty"`
	// OutPort/OutVC are the granted output VC (active state).
	OutPort string `json:"out_port,omitempty"`
	OutVC   int    `json:"out_vc,omitempty"`
	// CreditStalled marks an active VC with buffered flits whose output
	// VC has no downstream credits: backpressure from the next hop.
	CreditStalled bool `json:"credit_stalled,omitempty"`
}

// OutputVCSnap is one non-idle output virtual channel in a fabric
// snapshot. Footprint marks a VC currently occupied by packets of a
// single destination — the paper's footprint channel class.
type OutputVCSnap struct {
	Port            string `json:"port"`
	VC              int    `json:"vc"`
	Allocated       bool   `json:"allocated"`
	Credits         int    `json:"credits"`
	Owner           int    `json:"owner"`
	RegOwner        int    `json:"reg_owner"`
	AwaitTailCredit bool   `json:"await_tail_credit,omitempty"`
	Footprint       bool   `json:"footprint,omitempty"`
}

// RouterSnap is one router's non-idle VC state.
type RouterSnap struct {
	Node      int            `json:"node"`
	X         int            `json:"x"`
	Y         int            `json:"y"`
	InputVCs  []InputVCSnap  `json:"input_vcs,omitempty"`
	OutputVCs []OutputVCSnap `json:"output_vcs,omitempty"`
	// EjectionBacklog is the flit count buffered in the endpoint's
	// ejection unit (all VCs); a persistent backlog marks endpoint
	// congestion.
	EjectionBacklog int `json:"ejection_backlog,omitempty"`
	// SourceQueue is the endpoint's source-queue depth in packets.
	SourceQueue int `json:"source_queue,omitempty"`
}

// ChainLink is one hop of a head-flit blocked-on chain.
type ChainLink struct {
	Node   int    `json:"node"`
	Port   string `json:"port"`
	VC     int    `json:"vc"`
	Packet uint64 `json:"packet,omitempty"`
	Dest   int    `json:"dest"`
	// Reason explains what this link waits on: "vc-alloc" (no output VC
	// grant), "no-credit" (downstream buffer full).
	Reason string `json:"reason"`
}

// BlockChain is one blocked-on chain: the head link's packet waits on the
// second link's VC, and so on downstream. Terminal explains how the chain
// ends: "ejection-stalled" (endpoint backlog), "cycle" (the chain closed
// on itself — a deadlock signature), "moving" (the tail still has
// credits) or "end".
type BlockChain struct {
	Links    []ChainLink `json:"links"`
	Terminal string      `json:"terminal"`
}

// String renders the chain as a one-line arrow diagram.
func (c BlockChain) String() string {
	var b strings.Builder
	for i, l := range c.Links {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "n%d.%s%d(p%d>%d %s)", l.Node, l.Port, l.VC, l.Packet, l.Dest, l.Reason)
	}
	fmt.Fprintf(&b, " [%s]", c.Terminal)
	return b.String()
}

// FabricSnapshot is a structured dump of the whole fabric at one cycle:
// every non-idle VC plus the head-flit blocked-on chains. It is the
// watchdog's stall post-mortem.
type FabricSnapshot struct {
	Cycle      int64        `json:"cycle"`
	Width      int          `json:"width"`
	Height     int          `json:"height"`
	InFlight   int          `json:"in_flight"`
	Routers    []RouterSnap `json:"routers"`
	Chains     []BlockChain `json:"chains,omitempty"`
	BlockedVCs int          `json:"blocked_vcs"`
}

// maxChains bounds the number of reported blocked-on chains (the longest
// are kept); maxChainLen bounds each walk.
const (
	maxChains   = 16
	maxChainLen = 64
)

// Capture dumps the live state of net: per-router per-port per-VC input
// and output state (footprint class, credit levels) and the head-flit
// blocked-on chains. It must be called from the goroutine stepping the
// network.
func Capture(net *network.Network) *FabricSnapshot {
	mesh := net.Mesh()
	snap := &FabricSnapshot{
		Cycle:    net.Now(),
		Width:    mesh.Width,
		Height:   mesh.Height,
		InFlight: net.InFlight(),
	}
	for id := 0; id < net.Nodes(); id++ {
		r := net.Router(id)
		ep := net.Endpoint(id)
		c := mesh.Coord(id)
		rs := RouterSnap{Node: id, X: c.X, Y: c.Y, SourceQueue: ep.QueueLen()}
		for v := 0; v < r.VCs(); v++ {
			rs.EjectionBacklog += ep.EjectionBacklog(v)
		}
		for d := topo.East; d <= topo.Local; d++ {
			for v := 0; v < r.VCs(); v++ {
				iv := r.InputVCSnapshot(d, v)
				if iv.State != network.VCStateIdle {
					is := InputVCSnap{
						Port:     d.String(),
						VC:       v,
						State:    iv.State,
						Buffered: iv.Buffered,
						PacketID: iv.PacketID,
						Dest:     iv.PacketDest,
					}
					switch iv.State {
					case network.VCStateRouting:
						is.Blocked = iv.Blocked
						if iv.Routed {
							is.ReqPort = iv.ReqDir.String()
						}
						if iv.Blocked > 0 {
							snap.BlockedVCs++
						}
					case network.VCStateActive:
						is.OutPort = iv.OutDir.String()
						is.OutVC = iv.OutVC
						ov := r.OutputVCSnapshot(iv.OutDir, iv.OutVC)
						if iv.Buffered > 0 && ov.Credits == 0 {
							is.CreditStalled = true
							snap.BlockedVCs++
						}
					}
					rs.InputVCs = append(rs.InputVCs, is)
				}
				ov := r.OutputVCSnapshot(d, v)
				if r.State().Idle[d]>>uint(v)&1 == 0 || ov.RegOwner >= 0 {
					rs.OutputVCs = append(rs.OutputVCs, OutputVCSnap{
						Port:            d.String(),
						VC:              v,
						Allocated:       ov.Allocated,
						Credits:         ov.Credits,
						Owner:           ov.Owner,
						RegOwner:        ov.RegOwner,
						AwaitTailCredit: ov.AwaitTailCredit,
						Footprint:       ov.Owner >= 0,
					})
				}
			}
		}
		snap.Routers = append(snap.Routers, rs)
	}
	snap.Chains = captureChains(net)
	return snap
}

// vcKey identifies one input VC fabric-wide for chain walks.
type vcKey struct {
	node int
	port topo.Direction
	vc   int
}

// captureChains walks the head-flit blocked-on relation: a routing-state
// VC waits on a VC grant at its requested output port; an active VC with
// no downstream credits waits on the downstream router's input VC. Chains
// that close on themselves are deadlock cycles.
func captureChains(net *network.Network) []BlockChain {
	mesh := net.Mesh()
	var starts []vcKey
	for id := 0; id < net.Nodes(); id++ {
		r := net.Router(id)
		for d := topo.East; d <= topo.Local; d++ {
			for v := 0; v < r.VCs(); v++ {
				iv := r.InputVCSnapshot(d, v)
				switch iv.State {
				case network.VCStateRouting:
					if iv.Blocked > 0 {
						starts = append(starts, vcKey{id, d, v})
					}
				case network.VCStateActive:
					if iv.Buffered > 0 && r.OutputVCSnapshot(iv.OutDir, iv.OutVC).Credits == 0 {
						starts = append(starts, vcKey{id, d, v})
					}
				}
			}
		}
	}
	var chains []BlockChain
	for _, s := range starts {
		chain := walkChain(net, mesh, s)
		if len(chain.Links) > 0 {
			chains = append(chains, chain)
		}
	}
	// Longest chains first; they name the congestion tree's trunk.
	sort.SliceStable(chains, func(i, j int) bool { return len(chains[i].Links) > len(chains[j].Links) })
	if len(chains) > maxChains {
		chains = chains[:maxChains]
	}
	return chains
}

// walkChain follows the blocked-on relation from start until the chain
// moves, ends, cycles, or hits the length cap.
func walkChain(net *network.Network, mesh topo.Mesh, start vcKey) BlockChain {
	var chain BlockChain
	visited := map[vcKey]bool{}
	cur := start
	for len(chain.Links) < maxChainLen {
		if visited[cur] {
			chain.Terminal = "cycle"
			return chain
		}
		visited[cur] = true
		r := net.Router(cur.node)
		iv := r.InputVCSnapshot(cur.port, cur.vc)
		link := ChainLink{
			Node:   cur.node,
			Port:   cur.port.String(),
			VC:     cur.vc,
			Packet: iv.PacketID,
			Dest:   iv.PacketDest,
		}
		switch iv.State {
		case network.VCStateRouting:
			if iv.Blocked == 0 || !iv.Routed {
				chain.Terminal = "end"
				return chain
			}
			link.Reason = "vc-alloc"
			chain.Links = append(chain.Links, link)
			// The packet waits for a VC at its requested output port.
			// Follow the busy VC holding it up: its own footprint VC when
			// one exists (waiting on its own flow), else the first busy VC.
			next, ok := busyVCAt(r, iv.ReqDir, iv.PacketDest)
			if !ok {
				chain.Terminal = "end"
				return chain
			}
			nk, terminal := downstreamOf(net, mesh, cur.node, iv.ReqDir, next)
			if terminal != "" {
				chain.Terminal = terminal
				return chain
			}
			cur = nk
		case network.VCStateActive:
			ov := r.OutputVCSnapshot(iv.OutDir, iv.OutVC)
			if iv.Buffered == 0 || ov.Credits > 0 {
				chain.Terminal = "moving"
				return chain
			}
			link.Reason = "no-credit"
			chain.Links = append(chain.Links, link)
			nk, terminal := downstreamOf(net, mesh, cur.node, iv.OutDir, iv.OutVC)
			if terminal != "" {
				chain.Terminal = terminal
				return chain
			}
			cur = nk
		default:
			chain.Terminal = "end"
			return chain
		}
	}
	chain.Terminal = "end"
	return chain
}

// busyVCAt picks the output VC at port d that the blocked packet most
// plausibly waits on: a footprint VC owned by its destination when one
// exists, else the first non-idle VC.
func busyVCAt(r *network.Router, d topo.Direction, dest int) (int, bool) {
	first, idle := -1, r.State().Idle[d]
	for v := 0; v < r.VCs(); v++ {
		if idle>>uint(v)&1 != 0 {
			continue
		}
		if r.OutputVCSnapshot(d, v).Owner == dest {
			return v, true
		}
		if first < 0 {
			first = v
		}
	}
	return first, first >= 0
}

// downstreamOf resolves the input VC fed by output VC (d, v) of node. A
// Local port terminates at the endpoint's ejection unit; a mesh edge
// (which cannot happen for allocated VCs) terminates the walk.
func downstreamOf(net *network.Network, mesh topo.Mesh, node int, d topo.Direction, v int) (vcKey, string) {
	if d == topo.Local {
		return vcKey{}, "ejection-stalled"
	}
	nb, ok := mesh.Neighbor(node, d)
	if !ok {
		return vcKey{}, "end"
	}
	return vcKey{nb, d.Opposite(), v}, ""
}

// Summary renders the snapshot's headline facts and its longest chains as
// a short multi-line report for stderr.
func (s *FabricSnapshot) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fabric snapshot @ cycle %d: %dx%d mesh, %d packets in flight, %d blocked VCs, %d chains\n",
		s.Cycle, s.Width, s.Height, s.InFlight, s.BlockedVCs, len(s.Chains))
	n := len(s.Chains)
	if n > 5 {
		n = 5
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  chain %d: %s\n", i+1, s.Chains[i].String())
	}
	return b.String()
}
