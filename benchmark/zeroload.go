package main

import (
	"fmt"
	"math/rand"

	"nocsim"
	"nocsim/internal/topo"
)

// onePacket injects a single packet at cycle 0.
type onePacket struct {
	src, dest, size int
}

func (onePacket) Init(topo.Mesh, *rand.Rand) {}

func (p onePacket) Tick(now int64, offer func(*nocsim.Packet)) {
	if now == 0 {
		offer(&nocsim.Packet{Src: p.src, Dest: p.dest, Size: p.size})
	}
}

// zeroLoadLatency sends one packet of size flits over hops hops of an
// idle 8×8 fabric and returns its latency in cycles.
func zeroLoadLatency(alg string, hops, size int) (float64, error) {
	cfg := table2(alg, 1, 0, 1, 1000)
	m := nocsim.Mesh(cfg)
	x := min(hops, m.Width-1)
	dest := m.Node(topo.Coord{X: x, Y: hops - x})
	s, err := nocsim.New(cfg, onePacket{src: 0, dest: dest, size: size})
	if err != nil {
		return 0, err
	}
	res := s.Run()
	if !res.Stable || res.MeasuredEjected != 1 {
		return 0, fmt.Errorf("zero-load %s %d hops %d flits: packet not delivered", alg, hops, size)
	}
	return res.AvgLatency(nocsim.ClassBackground), nil
}

// zeroLoadCheck is the low-load exactness test of the analytic router
// and channel latency model (Qian, arXiv:1406.3790): on an idle fabric a
// packet's latency is affine in its hop count and in its length. The
// three constants are learned from the smallest cases, (1 hop, 1 flit),
// (2 hops, 1 flit) and (1 hop, 2 flits); every hop count an 8×8 mesh
// has and sizes up to 6 flits must then match exactly, under a
// deterministic and an adaptive algorithm.
func zeroLoadCheck() error {
	for _, alg := range []string{"dor", "footprint"} {
		var base, perHop, perFlit float64
		for size := 1; size <= 6; size++ {
			for hops := 1; hops <= 14; hops++ {
				got, err := zeroLoadLatency(alg, hops, size)
				if err != nil {
					return err
				}
				switch {
				case hops == 1 && size == 1:
					base = got
					continue
				case hops == 2 && size == 1:
					perHop = got - base
					continue
				case hops == 1 && size == 2:
					perFlit = got - base
					continue
				}
				want := base + perHop*float64(hops-1) + perFlit*float64(size-1)
				if got != want {
					return fmt.Errorf("zero-load %s: %d hops, %d flits took %v cycles, affine model says %v (base %v, %v per hop, %v per flit)",
						alg, hops, size, got, want, base, perHop, perFlit)
				}
			}
		}
		if perHop <= 0 || perFlit <= 0 {
			return fmt.Errorf("zero-load %s: degenerate model, %v per hop, %v per flit", alg, perHop, perFlit)
		}
	}
	return nil
}
