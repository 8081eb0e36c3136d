package trace

import (
	"fmt"
	"math/rand"
	"sort"

	"nocsim/internal/topo"
)

// Workload is a synthetic model of one PARSEC 2.0 application's on-chip
// traffic, standing in for the Netrace-generated trace the paper uses.
//
// The model separates two traffic components, mirroring a directory-based
// CMP:
//
//   - peer traffic: core-to-core sharing, spread over each core's fixed
//     peer set — the traffic Footprint protects from HoL blocking;
//   - directory traffic: a subset of cores (DirSharers) stream read
//     requests and 5-flit writebacks at the four directory/memory nodes,
//     which is what oversubscribes endpoints and grows congestion trees
//     (the paper's memory-controller hotspot analogy).
//
// The models are calibrated qualitatively from the paper's own
// observations and PARSEC's published characterization rather than from
// the unavailable traces: Fluidanimate generates heavy, directory-bound
// traffic (highest HoL blocking degree, biggest Footprint gain);
// Bodytrack's tiny peer sets make its blocking the purest (smallest
// opportunity); X264 and Canneal are light enough that routing barely
// matters.
type Workload struct {
	Name string
	// PeerRate is each core's probability of generating a peer packet
	// per bursting cycle.
	PeerRate float64
	// DirRate is each directory-sharing core's probability of
	// generating a directory request per bursting cycle.
	DirRate float64
	// DirSharers is how many cores issue directory traffic; the paper's
	// Table 3 uses two sources per hotspot, and data-parallel PARSEC
	// apps concentrate misses on a worker subset.
	DirSharers int
	// DutyCycle is the fraction of time a core is bursting; 1 means
	// smooth traffic.
	DutyCycle float64
	// BurstLen is the mean burst length in cycles.
	BurstLen int
	// ShareDegree is the number of distinct peers a core communicates
	// with; small values concentrate peer traffic (more footprint reuse,
	// higher blocking purity).
	ShareDegree int
	// ReplyFraction is the fraction of read requests that trigger a
	// dependent 5-flit data reply from the destination.
	ReplyFraction float64
	// WriteFraction is the fraction of directory requests that are
	// 5-flit writebacks (no reply); writebacks are what saturate the
	// directories' ejection bandwidth.
	WriteFraction float64
	// MaxOutstanding bounds each core's in-flight requests,
	// Netrace-style: request i depends on the completion of request
	// i-MaxOutstanding, so cores self-throttle under congestion instead
	// of queueing unboundedly.
	MaxOutstanding int
	// Sync makes all cores burst in the same phase, modelling
	// barrier-synchronized applications.
	Sync bool
}

// Workloads returns the eight PARSEC 2.0 applications of Figure 10.
func Workloads() []Workload {
	// Directory inflow per directory ≈ DirSharers·DirRate·Duty·meanSize/4
	// flits/cycle with meanSize = (1-WriteFraction) + 5·WriteFraction.
	// Fluidanimate's ~1.3 persistently oversubscribes the directories
	// (ejection bandwidth is 1 flit/cycle); the other workloads stay
	// below 1 with at most transient excursions.
	return []Workload{
		{Name: "blackscholes", PeerRate: 0.003, DirRate: 0.010, DirSharers: 8, DutyCycle: 0.9, BurstLen: 200, ShareDegree: 2, ReplyFraction: 0.8, WriteFraction: 0.2, MaxOutstanding: 8},
		{Name: "bodytrack", PeerRate: 0.010, DirRate: 0.100, DirSharers: 4, DutyCycle: 0.8, BurstLen: 150, ShareDegree: 2, ReplyFraction: 0.4, WriteFraction: 0.3, MaxOutstanding: 8, Sync: true},
		{Name: "canneal", PeerRate: 0.008, DirRate: 0.030, DirSharers: 16, DutyCycle: 0.9, BurstLen: 300, ShareDegree: 12, ReplyFraction: 0.7, WriteFraction: 0.3, MaxOutstanding: 8},
		{Name: "dedup", PeerRate: 0.020, DirRate: 0.060, DirSharers: 12, DutyCycle: 0.7, BurstLen: 120, ShareDegree: 6, ReplyFraction: 0.4, WriteFraction: 0.3, MaxOutstanding: 8},
		{Name: "ferret", PeerRate: 0.025, DirRate: 0.080, DirSharers: 12, DutyCycle: 0.7, BurstLen: 120, ShareDegree: 8, ReplyFraction: 0.4, WriteFraction: 0.3, MaxOutstanding: 8},
		{Name: "fluidanimate", PeerRate: 0.060, DirRate: 0.085, DirSharers: 16, DutyCycle: 0.9, BurstLen: 100, ShareDegree: 10, ReplyFraction: 0.6, WriteFraction: 0.5, MaxOutstanding: 16},
		{Name: "vips", PeerRate: 0.025, DirRate: 0.070, DirSharers: 12, DutyCycle: 0.8, BurstLen: 150, ShareDegree: 6, ReplyFraction: 0.45, WriteFraction: 0.3, MaxOutstanding: 8, Sync: true},
		{Name: "x264", PeerRate: 0.012, DirRate: 0.020, DirSharers: 8, DutyCycle: 0.9, BurstLen: 250, ShareDegree: 3, ReplyFraction: 0.5, WriteFraction: 0.2, MaxOutstanding: 8},
	}
}

// Validate reports the first parameter of w that Generate cannot honour:
// a fraction (PeerRate, DirRate, DutyCycle, ReplyFraction or
// WriteFraction) outside [0, 1] or NaN, or a BurstLen below 1.
func (w Workload) Validate() error {
	names := [...]string{"PeerRate", "DirRate", "DutyCycle", "ReplyFraction", "WriteFraction"}
	for i, v := range [...]float64{w.PeerRate, w.DirRate, w.DutyCycle, w.ReplyFraction, w.WriteFraction} {
		if !(v >= 0 && v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("trace: workload %q: %s %v is not a fraction in [0, 1]", w.Name, names[i], v)
		}
	}
	if w.BurstLen < 1 {
		return fmt.Errorf("trace: workload %q: BurstLen %d is below 1", w.Name, w.BurstLen)
	}
	return nil
}

// WorkloadByName finds a workload model.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("trace: unknown PARSEC workload %q", name)
}

// directoryNodes returns the four directory/memory-controller nodes of
// the mesh, placed at the edge midpoints as in common memory-controller
// floorplans, so their congestion trees sit where peer traffic actually
// crosses. On a mesh too small for four distinct midpoints some
// coincide, and every one is on the mesh.
func directoryNodes(m topo.Mesh) []int {
	midX, midY := m.Width/2, m.Height/2
	return []int{
		midX,                                  // top edge
		midY * m.Width,                        // left edge
		(midY+1)*m.Width - 1,                  // right edge
		(m.Height-1)*m.Width + max(midX-1, 0), // bottom edge
	}
}

// Generate synthesizes a trace of the workload on mesh m covering the
// given number of cycles. Generation is deterministic in seed. Control
// packets are single-flit; writebacks and data replies are five flits.
// w must pass Validate; Generate panics with Validate's error otherwise.
func Generate(w Workload, m topo.Mesh, cycles int64, seed int64) []Record {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	dirs := directoryNodes(m)
	nodes := m.Nodes()

	// Fixed peer sets per core, giving each workload its sharing
	// structure; a mesh with fewer other nodes than ShareDegree makes
	// every other node a peer, and a one-node mesh none.
	peers := make([][]int, nodes)
	for n := 0; n < nodes; n++ {
		deg := min(max(w.ShareDegree, 1), nodes-1)
		set := map[int]bool{}
		for len(set) < deg {
			p := rng.Intn(nodes)
			if p != n {
				set[p] = true
			}
		}
		for p := range set {
			peers[n] = append(peers[n], p)
		}
		sort.Ints(peers[n])
	}

	// The directory-sharing cores, spread deterministically over the
	// mesh (avoiding the directories themselves).
	isDir := map[int]bool{}
	for _, d := range dirs {
		isDir[d] = true
	}
	isSharer := make([]bool, nodes)
	stride := nodes / max(w.DirSharers, 1)
	if stride < 1 {
		stride = 1
	}
	count := 0
	for n := 0; n < nodes && count < w.DirSharers; n += stride {
		if !isDir[n] {
			isSharer[n] = true
			count++
		}
	}

	// On/off burst state per core; synchronized workloads share entry 0.
	burstNodes := nodes
	if w.Sync {
		burstNodes = 1
	}
	bursting := make([]bool, burstNodes)
	left := make([]int, burstNodes)
	for n := range bursting {
		bursting[n] = rng.Float64() < w.DutyCycle
		left[n] = 1 + rng.Intn(2*w.BurstLen)
	}

	// completions[n] is the ring of each core's recent transaction
	// completion IDs (the reply when one exists, else the request); a new
	// request depends on the completion MaxOutstanding transactions back.
	completions := make([][]uint64, nodes)

	var records []Record
	var nextID uint64
	emit := func(cyc int64, src, dest, size int, wantsReply bool) {
		nextID++
		req := Record{ID: nextID, Cycle: cyc, Src: src, Dest: dest, Size: size}
		if win := w.MaxOutstanding; win > 0 && len(completions[src]) >= win {
			req.Dep = completions[src][len(completions[src])-win]
		}
		records = append(records, req)
		completion := req.ID
		if wantsReply && rng.Float64() < w.ReplyFraction {
			nextID++
			reply := Record{
				ID:    nextID,
				Cycle: cyc, // eligible immediately, gated by Dep
				Src:   dest,
				Dest:  src,
				Size:  5,
				Dep:   req.ID,
			}
			records = append(records, reply)
			completion = reply.ID
		}
		completions[src] = append(completions[src], completion)
	}

	for cyc := int64(0); cyc < cycles; cyc++ {
		for b := range bursting {
			if left[b]--; left[b] <= 0 {
				// Flip burst state; off periods scale to honour the
				// duty cycle.
				if bursting[b] {
					offLen := float64(w.BurstLen) * (1 - w.DutyCycle) / max(w.DutyCycle, 0.05)
					left[b] = 1 + rng.Intn(int(2*offLen)+1)
				} else {
					left[b] = 1 + rng.Intn(2*w.BurstLen)
				}
				bursting[b] = !bursting[b]
			}
		}
		for n := 0; n < nodes; n++ {
			bn := n
			if w.Sync {
				bn = 0
			}
			if !bursting[bn] {
				continue
			}
			// Peer traffic: every core with a peer.
			if len(peers[n]) > 0 && rng.Float64() < w.PeerRate {
				emit(cyc, n, peers[n][rng.Intn(len(peers[n]))], 1, true)
			}
			// Directory traffic: sharer cores only.
			if isSharer[n] && rng.Float64() < w.DirRate {
				dest := dirs[rng.Intn(len(dirs))]
				if dest == n {
					continue
				}
				if rng.Float64() < w.WriteFraction {
					emit(cyc, n, dest, 5, false) // writeback
				} else {
					emit(cyc, n, dest, 1, true) // read
				}
			}
		}
	}
	return records
}
