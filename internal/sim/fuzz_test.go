package sim

import (
	"testing"

	"nocsim/internal/routing"
	"nocsim/internal/traffic"
)

// fuzzPatterns are the traffic pattern names a fuzz input picks from:
// the four of the pattern table, then four that ByName rejects.
var fuzzPatterns = []string{"uniform", "transpose", "shuffle", "bitcomp", "tornado", "bitrev", "neighbor", "bogus"}

// FuzzValidateThenRun feeds hostile configurations through the checks a
// user's input meets — Config.Validate, the pattern and packet-size
// checks, New — and runs whatever they accept for 200 cycles. Accepted
// must mean runnable: an input the checks let through may end stable or
// saturated, but never in a panic. The mesh, VC count, buffer depth,
// speedup, algorithm (every routing name, plus an unknown one),
// pattern, load, packet-size range and a slow endpoint all come from the
// input, each range reaching past what the checks accept.
func FuzzValidateThenRun(f *testing.F) {
	// seed encodes one input: mesh width and height, VCs, buffer depth (two
	// bytes, high first), speedup, algorithm index, pattern index, load in
	// 255ths, packet-size range, warm-up and measurement split, RNG seed,
	// and a slow endpoint.
	seed := func(w, h, vcs, depth, speedup, alg, pattern, load, lo, hi int) []byte {
		return []byte{byte(w + 1), byte(h + 1), byte(vcs), byte(depth >> 8), byte(depth), byte(speedup),
			byte(alg), byte(pattern), byte(load), byte(lo), byte(hi), 40, 100, 1, 0}
	}
	names := routing.Names()
	for i := range names {
		f.Add(seed(4, 4, 4, 4, 2, i, 0, 120, 1, 6))  // every algorithm, 1–6 flits
		f.Add(seed(4, 4, 32, 1, 5, i, 0, 255, 5, 9)) // 32 VCs, depth 1, speedup 5, saturated
		f.Add(seed(1, 6, 2, 1, 3, i, 0, 200, 3, 3))  // 1×N, packets longer than a buffer
		f.Add(seed(6, 1, 1, 2, 4, i, 3, 180, 1, 4))  // N×1, one VC (an error for escape-VC algorithms)
		f.Add(seed(2, 2, 2, 1, 3, i, 1, 255, 2, 5))  // 2×2 transpose at full load
		f.Add(seed(3, 5, 32, 2, 4, i, 0, 90, 1, 1))  // 3×5, 32 VCs
		f.Add(seed(8, 1, 2, 1, 5, i, 0, 255, 6, 6))  // 8×1, speedup 5
		f.Add(seed(1, 1, 2, 4, 2, i, 0, 100, 1, 1))  // one node: nowhere to send
		f.Add(seed(4, 4, 33, 0, 0, i, 7, 100, 0, 0)) // out of range everywhere
		f.Add(seed(-1, 3, 2, 4, 2, i, 0, 100, 2, 1)) // no mesh, empty size range
		f.Add(seed(4, 2, 2, 4, 1, i, 2, 150, 1, 3))  // shuffle on 8 nodes, speedup 1
		f.Add(seed(3, 3, 10, 4, 2, i, 5, 150, 1, 3)) // bit reversal: not in the table

		f.Add(seed(3, 2, 3, 255, 2, i, 0, 255, 1, 9)) // the deepest buffer, saturated
		f.Add(seed(3, 2, 3, 256, 2, i, 0, 255, 1, 9)) // one flit deeper than a byte counts
	}
	f.Add(seed(5, 5, 3, 1, 3, len(names), 0, 10, 1, 2)) // unknown algorithm
	slow := seed(4, 4, 4, 2, 3, 0, 0, 200, 1, 3)
	f.Add(append(slow[:len(slow)-1], 6, 3)) // node 5 consumes every third cycle
	f.Add(append(slow[:len(slow)-1], 6, 0)) // a consume interval of 0: rejected

	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		cfg := DefaultConfig()
		cfg.Width, cfg.Height = next()%11-1, next()%11-1
		cfg.VCs = next() % 35
		cfg.BufDepth = (next()<<8 | next()) % 261 // 0..260, past router.MaxBufDepth
		cfg.Speedup = next() % 6
		if a := next() % (len(names) + 1); a < len(names) {
			cfg.Algorithm = names[a]
		} else {
			cfg.Algorithm = "bogus"
		}
		pattern := fuzzPatterns[next()%len(fuzzPatterns)]
		load := float64(next()) / 255
		lo, hi := next()%10, next()%10
		cfg.WarmupCycles = int64(next() % 100)
		cfg.MeasureCycles = 1 + int64(next()%100)
		cfg.DrainCycles = 200 - cfg.WarmupCycles - cfg.MeasureCycles
		cfg.Seed = int64(next())
		if node := next(); node > 0 {
			cfg.SlowEndpoints = map[int]int{node%101 - 1: next() % 4}
		}

		size, err := traffic.SizeRange(lo, hi)
		if err != nil {
			return
		}
		gen, err := PatternGenerator(cfg, pattern, size, load)
		if err != nil {
			return
		}
		s, err := New(cfg, gen)
		if err != nil {
			return
		}
		if res := s.Run(); res.Runtime.Cycles > 200 {
			t.Fatalf("%+v ran %d cycles, want at most 200", cfg, res.Runtime.Cycles)
		}
	})
}
