package traffic

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"nocsim/internal/flit"
	"nocsim/internal/topo"
)

func TestUniformDest(t *testing.T) {
	u := Uniform{Nodes: 16}
	rng := rand.New(rand.NewSource(1))
	seen := map[int]int{}
	for i := 0; i < 15000; i++ {
		d, ok := u.Dest(5, rng)
		if !ok {
			t.Fatal("uniform must always generate")
		}
		if d == 5 {
			t.Fatal("uniform sent to self")
		}
		if d < 0 || d >= 16 {
			t.Fatalf("dest out of range: %d", d)
		}
		seen[d]++
	}
	// Every other node should be hit roughly 1000 times.
	for n := 0; n < 16; n++ {
		if n == 5 {
			continue
		}
		if seen[n] < 800 || seen[n] > 1200 {
			t.Errorf("node %d hit %d times, want ~1000", n, seen[n])
		}
	}
}

func TestUniformDegenerate(t *testing.T) {
	u := Uniform{Nodes: 1}
	if _, ok := u.Dest(0, rand.New(rand.NewSource(1))); ok {
		t.Error("single-node uniform should be silent")
	}
}

func TestTranspose(t *testing.T) {
	m := topo.MustNew(4, 4)
	tr := Transpose{Mesh: m}
	// (1,2) = node 9 -> (2,1) = node 6.
	d, ok := tr.Dest(9, nil)
	if !ok || d != 6 {
		t.Errorf("transpose(9) = %d,%v, want 6,true", d, ok)
	}
	// Diagonal silent: node 5 = (1,1).
	if _, ok := tr.Dest(5, nil); ok {
		t.Error("diagonal node should be silent")
	}
}

func TestTransposeNonSquarePanics(t *testing.T) {
	tr := Transpose{Mesh: topo.MustNew(4, 2)}
	defer func() {
		if recover() == nil {
			t.Error("non-square transpose did not panic")
		}
	}()
	tr.Dest(1, nil)
}

func TestShuffle(t *testing.T) {
	s := Shuffle{Nodes: 8}
	// Shuffle = rotate-left of 3-bit address: 3 (011) -> 6 (110).
	d, ok := s.Dest(3, nil)
	if !ok || d != 6 {
		t.Errorf("shuffle(3) = %d,%v, want 6,true", d, ok)
	}
	// 5 (101) -> 3 (011).
	d, ok = s.Dest(5, nil)
	if !ok || d != 3 {
		t.Errorf("shuffle(5) = %d, want 3", d)
	}
	// 0 and 7 map to themselves: silent.
	if _, ok := s.Dest(0, nil); ok {
		t.Error("shuffle(0) should be silent")
	}
	if _, ok := s.Dest(7, nil); ok {
		t.Error("shuffle(7) should be silent")
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	s := Shuffle{Nodes: 64}
	seen := map[int]bool{}
	for n := 0; n < 64; n++ {
		d, ok := s.Dest(n, nil)
		if !ok {
			d = n // self-mapping fixed points
		}
		if seen[d] {
			t.Fatalf("shuffle maps two sources to %d", d)
		}
		seen[d] = true
	}
}

func TestShuffleNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two shuffle did not panic")
		}
	}()
	Shuffle{Nodes: 12}.Dest(1, nil)
}

func TestBitComplement(t *testing.T) {
	b := BitComplement{Nodes: 16}
	if d, ok := b.Dest(3, nil); !ok || d != 12 {
		t.Errorf("bitcomp(3) = %d, want 12", d)
	}
}

func TestPermutation(t *testing.T) {
	p := Permutation{Flows: map[int]int{1: 2}}
	if d, ok := p.Dest(1, nil); !ok || d != 2 {
		t.Error("permutation flow broken")
	}
	if _, ok := p.Dest(3, nil); ok {
		t.Error("non-flow source should be silent")
	}
}

func TestByName(t *testing.T) {
	m := topo.MustNew(8, 8)
	rng := rand.New(rand.NewSource(1))
	for _, name := range Names() {
		p, err := ByName(name, m)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		// Every node of the mesh draws a destination without panicking.
		for src := 0; src < m.Nodes(); src++ {
			if d, ok := p.Dest(src, rng); ok && (d == src || d < 0 || d >= m.Nodes()) {
				t.Errorf("%s: Dest(%d) = %d", name, src, d)
			}
		}
	}
	if _, err := ByName("nope", m); err == nil {
		t.Error("unknown pattern should error")
	}
}

// TestByNameExtendedPatterns: tornado, bit-reversal and neighbour traffic
// are not in the table, so ByName rejects them with an error that lists
// the patterns it has.
func TestByNameExtendedPatterns(t *testing.T) {
	m := topo.MustNew(8, 8)
	for _, name := range []string{"tornado", "bitrev", "neighbor"} {
		_, err := ByName(name, m)
		if err == nil {
			t.Errorf("ByName(%q) accepted", name)
			continue
		}
		for _, want := range Names() {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ByName(%q) error %q does not list %q", name, err, want)
			}
		}
	}
}

func TestSizeFns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := FixedSize(3)
	for i := 0; i < 10; i++ {
		if f(rng) != 3 {
			t.Fatal("FixedSize not fixed")
		}
	}
	u := UniformSize(1, 6)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		s := u(rng)
		if s < 1 || s > 6 {
			t.Fatalf("size %d out of range", s)
		}
		seen[s] = true
	}
	for s := 1; s <= 6; s++ {
		if !seen[s] {
			t.Errorf("size %d never drawn", s)
		}
	}
	if m := MeanSize(u, rng); math.Abs(m-3.5) > 0.2 {
		t.Errorf("MeanSize = %v, want ~3.5", m)
	}
}

func TestSizeFnValidation(t *testing.T) {
	for _, f := range []func(){
		func() { FixedSize(0) },
		func() { UniformSize(0, 3) },
		func() { UniformSize(4, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid size fn did not panic")
				}
			}()
			f()
		}()
	}
}

func TestGeneratorRate(t *testing.T) {
	m := topo.MustNew(8, 8)
	g := &Generator{Pattern: Uniform{Nodes: 64}, Rate: 0.3}
	g.Init(m, rand.New(rand.NewSource(3)))
	flits := 0
	const cycles = 5000
	for c := int64(0); c < cycles; c++ {
		g.Tick(c, func(p *flit.Packet) {
			flits += p.Size
			if p.Born != c {
				t.Fatal("Born not set to now")
			}
		})
	}
	got := float64(flits) / float64(cycles) / 64
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("offered load = %v flits/node/cycle, want ~0.3", got)
	}
}

func TestGeneratorVariableSizeRate(t *testing.T) {
	m := topo.MustNew(4, 4)
	g := &Generator{Pattern: Uniform{Nodes: 16}, Rate: 0.5, Size: UniformSize(1, 6)}
	g.Init(m, rand.New(rand.NewSource(4)))
	flits := 0
	const cycles = 20000
	for c := int64(0); c < cycles; c++ {
		g.Tick(c, func(p *flit.Packet) { flits += p.Size })
	}
	got := float64(flits) / float64(cycles) / 16
	if math.Abs(got-0.5) > 0.05 {
		t.Errorf("offered load = %v flits/node/cycle, want ~0.5", got)
	}
}

func TestGeneratorNodeSubsetAndClass(t *testing.T) {
	m := topo.MustNew(8, 8)
	g := &Generator{
		Nodes:   []int{4, 12},
		Pattern: Permutation{Flows: map[int]int{4: 13, 12: 13}},
		Rate:    1.0,
		Class:   flit.ClassHotspot,
	}
	g.Init(m, rand.New(rand.NewSource(5)))
	count := 0
	g.Tick(0, func(p *flit.Packet) {
		count++
		if p.Class != flit.ClassHotspot {
			t.Error("class not propagated")
		}
		if p.Src != 4 && p.Src != 12 {
			t.Errorf("unexpected source %d", p.Src)
		}
		if p.Dest != 13 {
			t.Errorf("unexpected dest %d", p.Dest)
		}
	})
	if count != 2 {
		t.Errorf("rate-1.0 subset generated %d packets, want 2", count)
	}
}

func TestHotspotFlows(t *testing.T) {
	flows := HotspotFlows()
	if len(flows.Flows) != 8 {
		t.Fatalf("want 8 flows, got %d", len(flows.Flows))
	}
	// Each of Table 3's four hotspots has exactly two sources.
	counts := map[int]int{}
	for _, d := range flows.Flows {
		counts[d]++
	}
	for _, h := range []int{63, 56, 0, 7} {
		if counts[h] != 2 {
			t.Errorf("hotspot %d has %d flows, want 2", h, counts[h])
		}
	}
	// The 8 sources of Table 3 include the 4 hotspot endpoints, so 56
	// nodes remain for background traffic.
	bg := BackgroundNodes(topo.MustNew(8, 8))
	if len(bg) != 56 {
		t.Errorf("background nodes = %d, want 56", len(bg))
	}
	for _, n := range bg {
		if _, isSrc := flows.Flows[n]; isSrc {
			t.Errorf("background node %d is a hotspot source", n)
		}
	}
}
