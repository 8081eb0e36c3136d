package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"nocsim/internal/flit"
	"nocsim/internal/network"
	"nocsim/internal/topo"
)

// Heatmap accumulates per-link flit counts and per-node ejected-flit
// counts over an observation window — the data behind the CSV link
// heatmaps. The window is opened and closed by the simulation around its
// measurement phase, so the node totals reconcile exactly with the
// run's Accepted throughput.
type Heatmap struct {
	start, end int64
	open       bool
	closed     bool

	// base/final snapshot per-port cumulative link flit counts at window
	// open/close, indexed [node*NumPorts + dir].
	base, final []int64
	// nodeEject counts flits of packets whose tail was consumed at each
	// node within the window — the same accounting the simulation uses
	// for Accepted.
	nodeEject []int64

	mesh topo.Mesh
}

// NewHeatmap returns an idle heatmap; OpenWindow arms it.
func NewHeatmap() *Heatmap { return &Heatmap{} }

// OpenWindow snapshots the fabric's link counters and starts counting
// ejections for cycles in [start, end).
func (h *Heatmap) OpenWindow(net *network.Network, mesh topo.Mesh, start, end int64) {
	P := topo.NumPorts
	h.mesh = mesh
	h.start, h.end = start, end
	h.open, h.closed = true, false
	h.base = make([]int64, net.Nodes()*P)
	h.nodeEject = make([]int64, net.Nodes())
	for id := 0; id < net.Nodes(); id++ {
		r := net.Router(id)
		for d := topo.East; d <= topo.Local; d++ {
			h.base[id*P+int(d)] = r.OutputFlits(d)
		}
	}
}

// CloseWindow snapshots the link counters again; the per-link loads are
// the deltas against OpenWindow.
func (h *Heatmap) CloseWindow(net *network.Network) {
	if !h.open {
		return
	}
	P := topo.NumPorts
	h.final = make([]int64, len(h.base))
	for id := 0; id < net.Nodes(); id++ {
		r := net.Router(id)
		for d := topo.East; d <= topo.Local; d++ {
			h.final[id*P+int(d)] = r.OutputFlits(d)
		}
	}
	h.closed = true
}

// onEject counts an ejected packet's flits when the ejection falls in
// the window.
func (h *Heatmap) onEject(now int64, p *flit.Packet) {
	if h.open && now >= h.start && now < h.end {
		h.nodeEject[p.Dest] += int64(p.Size)
	}
}

// Cycles returns the window length.
func (h *Heatmap) Cycles() int64 { return h.end - h.start }

// TotalEjected returns the flits ejected fabric-wide within the window;
// it equals Result.Accepted × nodes × measurement cycles.
func (h *Heatmap) TotalEjected() int64 {
	var total int64
	for _, n := range h.nodeEject {
		total += n
	}
	return total
}

// LinkFlits returns the flits node sent through output port d during the
// window (0 before CloseWindow).
func (h *Heatmap) LinkFlits(node int, d topo.Direction) int64 {
	if !h.closed {
		return 0
	}
	i := node*topo.NumPorts + int(d)
	return h.final[i] - h.base[i]
}

// WriteCSV renders the heatmap. The file has two sections introduced by
// '#' comment lines:
//
//  1. a mesh_height × mesh_width grid of flits ejected per node
//     (row-major, matching the paper's node numbering) whose total
//     reconciles with Result.Accepted, and
//  2. one row per directed link — from,to,dir,flits,flits_per_cycle —
//     including each node's ejection link (dir L, to = the node itself).
func (h *Heatmap) WriteCSV(w io.Writer) error {
	if !h.closed {
		return fmt.Errorf("obs: heatmap window not closed")
	}
	m := h.mesh
	cycles := h.Cycles()
	if _, err := fmt.Fprintf(w, "# nocsim heatmap, %dx%d mesh, window [%d,%d) = %d cycles\n",
		m.Width, m.Height, h.start, h.end, cycles); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# ejected flits per node, %d rows x %d cols (total %d)\n",
		m.Height, m.Width, h.TotalEjected()); err != nil {
		return err
	}
	for y := 0; y < m.Height; y++ {
		for x := 0; x < m.Width; x++ {
			sep := ","
			if x == m.Width-1 {
				sep = "\n"
			}
			if _, err := fmt.Fprintf(w, "%d%s", h.nodeEject[m.Node(topo.Coord{X: x, Y: y})], sep); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintln(w, "# directed links: from,to,dir,flits,flits_per_cycle"); err != nil {
		return err
	}
	for _, l := range h.links(true) {
		if _, err := fmt.Fprintf(w, "%d,%d,%s,%d,%.4f\n", l.From, l.To, l.Dir, l.Flits, l.Utilization); err != nil {
			return err
		}
	}
	return nil
}

// LinkLoad is one directed link's load over the window.
type LinkLoad struct {
	From, To    int
	Dir         topo.Direction
	Flits       int64
	Utilization float64 // flits per cycle, 0..1
}

// links lists the window's directed links in node, then direction
// order: every inter-router link and, with local set, each node's
// ejection link (Dir Local, To = From). Empty before CloseWindow.
func (h *Heatmap) links(local bool) []LinkLoad {
	if !h.closed {
		return nil
	}
	var out []LinkLoad
	cycles := h.Cycles()
	for id := 0; id < h.mesh.Nodes(); id++ {
		for d := topo.East; d <= topo.Local; d++ {
			to, ok := id, local
			if d != topo.Local {
				to, ok = h.mesh.Neighbor(id, d)
			}
			if !ok {
				continue
			}
			l := LinkLoad{From: id, To: to, Dir: d, Flits: h.LinkFlits(id, d)}
			if cycles > 0 {
				l.Utilization = float64(l.Flits) / float64(cycles)
			}
			out = append(out, l)
		}
	}
	return out
}

// Links returns the load of every inter-router link over the window.
func (h *Heatmap) Links() []LinkLoad { return h.links(false) }

// Hottest returns the n most loaded inter-router links, most loaded
// first; ties keep node, then direction order.
func (h *Heatmap) Hottest(n int) []LinkLoad {
	links := h.Links()
	sort.SliceStable(links, func(i, j int) bool { return links[i].Flits > links[j].Flits })
	return links[:min(n, len(links))]
}

// MeanUtilization returns the average utilization over the inter-router
// links, 0 for an empty window.
func (h *Heatmap) MeanUtilization() float64 {
	links := h.Links()
	if len(links) == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range links {
		sum += l.Utilization
	}
	return sum / float64(len(links))
}

// heatRunes maps utilization deciles to ASCII shades.
var heatRunes = []byte(" .:-=+*#%@")

func heatRune(u float64) byte {
	return heatRunes[max(0, min(int(u*float64(len(heatRunes))), len(heatRunes)-1))]
}

// EgressGrid renders per-node egress load (the mean utilization of a
// node's outgoing inter-router links) as an ASCII grid — a quick visual
// of where congestion sits on the mesh.
func (h *Heatmap) EgressGrid() string {
	m := h.mesh
	load := make([]float64, m.Nodes())
	cnt := make([]int, m.Nodes())
	for _, l := range h.Links() {
		load[l.From] += l.Utilization
		cnt[l.From]++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "egress load heatmap (%c = 0%% ... %c = 100%%)\n", heatRunes[0], heatRunes[len(heatRunes)-1])
	for y := 0; y < m.Height; y++ {
		for x := 0; x < m.Width; x++ {
			n := m.Node(topo.Coord{X: x, Y: y})
			u := 0.0
			if cnt[n] > 0 {
				u = load[n] / float64(cnt[n])
			}
			b.WriteByte(heatRune(u))
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}
