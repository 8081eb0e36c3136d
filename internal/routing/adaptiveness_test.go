package routing

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"nocsim/internal/topo"
)

// mustAlg builds the named algorithm or fails the test.
func mustAlg(t *testing.T, name string) Algorithm {
	t.Helper()
	a, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestPortAdaptivenessGoldens pins Equation 1 on hand-computed 4×4-mesh
// pairs. Node numbering is row-major: node 5 is (1,1), node 15 is (3,3).
func TestPortAdaptivenessGoldens(t *testing.T) {
	m := topo.MustNew(4, 4)

	// Sanity: the minimal-quadrant path counts behind every ratio.
	if got := m.MinimalPathCount(0, 5); got != 2 {
		t.Fatalf("MinimalPathCount(0,5) = %d, want 2", got)
	}
	if got := m.MinimalPathCount(0, 15); got != 20 {
		t.Fatalf("MinimalPathCount(0,15) = %d, want 20", got)
	}

	cases := []struct {
		alg       string
		src, dest int
		want      float64
	}{
		// DOR follows exactly one of the minimal paths.
		{"dor", 0, 5, 1.0 / 2},   // one diagonal hop: 2 paths, 1 allowed
		{"dor", 0, 15, 1.0 / 20}, // full diagonal: C(6,3)=20 paths, 1 allowed
		{"dor", 0, 3, 1},         // aligned pair: the single path is DOR's
		{"dor", 0, 12, 1},
		// Fully adaptive algorithms may take every minimal path.
		{"footprint", 0, 5, 1},
		{"footprint", 0, 15, 1},
		{"footprint", 12, 3, 1},
		{"dbar", 0, 15, 1},
		{"dbar", 15, 0, 1},
		// Degenerate pair.
		{"footprint", 7, 7, 1},
	}
	for _, c := range cases {
		got := PortAdaptiveness(m, mustAlg(t, c.alg), c.src, c.dest)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PortAdaptiveness(%s, %d->%d) = %v, want %v", c.alg, c.src, c.dest, got, c.want)
		}
	}
}

// TestPortAdaptivenessOddEven pins the turn model's partial adaptiveness:
// strictly between DOR's single path and full adaptiveness on unaligned
// pairs, and never above the fully adaptive bound anywhere.
func TestPortAdaptivenessOddEven(t *testing.T) {
	m := topo.MustNew(4, 4)
	oe := mustAlg(t, "oddeven")
	full := mustAlg(t, "footprint")

	got := PortAdaptiveness(m, oe, 0, 15)
	if got <= 1.0/20 || got > 1 {
		t.Errorf("odd-even PortAdaptiveness(0->15) = %v, want in (1/20, 1]", got)
	}
	for s := 0; s < m.Nodes(); s++ {
		for d := 0; d < m.Nodes(); d++ {
			po, pf := PortAdaptiveness(m, oe, s, d), PortAdaptiveness(m, full, s, d)
			if po <= 0 || po > pf+1e-12 {
				t.Fatalf("odd-even PortAdaptiveness(%d->%d) = %v outside (0, %v]", s, d, po, pf)
			}
		}
	}
}

// TestAllowedPortsBound checks the static choice set of every
// configuration: at every (node, dest) pair the allowed ports are a
// subset of the minimal ports, and fully adaptive algorithms (DBAR and
// its overlays, Footprint) allow all of them.
func TestAllowedPortsBound(t *testing.T) {
	m := topo.MustNew(4, 4)
	for _, name := range Names() {
		alg := mustAlg(t, name)
		for s := 0; s < m.Nodes(); s++ {
			for d := 0; d < m.Nodes(); d++ {
				if s == d {
					continue
				}
				dx, hasX, dy, hasY := m.MinimalDirs(s, d)
				minimal := 0
				if hasX {
					minimal++
				}
				if hasY {
					minimal++
				}
				ports := allowedPorts(m, alg, s, d, topo.Local)
				if len(ports) == 0 || len(ports) > minimal {
					t.Fatalf("%s: allowedPorts(%d->%d) = %v, want 1..%d ports", name, s, d, ports, minimal)
				}
				for _, p := range ports {
					if !((hasX && p == dx) || (hasY && p == dy)) {
						t.Fatalf("%s: allowedPorts(%d->%d) offers non-minimal port %v", name, s, d, p)
					}
				}
				if name == "footprint" || strings.HasPrefix(name, "dbar") {
					if len(ports) != minimal {
						t.Fatalf("%s: allowedPorts(%d->%d) = %v, fully adaptive should allow all %d minimal ports",
							name, s, d, ports, minimal)
					}
				}
			}
		}
	}
}

// TestOverlayAllowsBasePorts: an overlay picks VCs, never ports, so
// every "+xordet" and "+voqsw" configuration allows exactly its base's
// ports at every (node, dest, arrival port), and so has its base's
// P_adapt in Table 1.
func TestOverlayAllowsBasePorts(t *testing.T) {
	for _, name := range Names() {
		baseName, _, isOverlay := strings.Cut(name, "+")
		if !isOverlay {
			continue
		}
		t.Run(name, func(t *testing.T) {
			alg, base := mustAlg(t, name), mustAlg(t, baseName)
			for _, m := range []topo.Mesh{topo.MustNew(4, 4), topo.MustNew(8, 8)} {
				for s := 0; s < m.Nodes(); s++ {
					for d := 0; d < m.Nodes(); d++ {
						if s == d {
							continue
						}
						for in := topo.East; in <= topo.Local; in++ {
							got, want := allowedPorts(m, alg, s, d, in), allowedPorts(m, base, s, d, in)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%dx%d: allowedPorts(%d->%d, in %v) = %v, want %s's %v",
									m.Width, m.Height, s, d, in, got, baseName, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestVCAdaptivenessGoldens pins Equation 2's case analysis: Footprint
// adapts over the n−1 adaptive VCs (escape channels score 1 under the
// Duato-specific reading), oblivious VC selection scores 0.
func TestVCAdaptivenessGoldens(t *testing.T) {
	cases := []struct {
		alg    string
		nVCs   int
		escape bool
		want   float64
	}{
		{"footprint", 10, false, 0.9},
		{"footprint", 10, true, 1},
		{"footprint", 2, false, 0.5},
		{"dbar", 10, false, 0},
		{"oddeven", 10, false, 0},
		{"dor", 10, false, 0},
	}
	for _, c := range cases {
		got := VCAdaptiveness(mustAlg(t, c.alg), c.nVCs, c.escape)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("VCAdaptiveness(%s, %d, escape=%v) = %v, want %v", c.alg, c.nVCs, c.escape, got, c.want)
		}
	}
}
