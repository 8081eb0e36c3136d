// Hotspot isolation: the paper's Figure 9 scenario. The eight persistent
// flows of Table 3 oversubscribe four endpoints while every other node
// sends uniform background traffic at 30% load; the example prints the
// background traffic's mean latency under Footprint and DBAR at four
// hotspot rates. EXPERIMENTS.md, Figure 9, sets the measured curves
// against the paper's.
package main

import (
	"fmt"
	"log"

	"nocsim"
)

func main() {
	cfg := nocsim.DefaultConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 1500, 2500, 8000

	rates := []float64{0.15, 0.30, 0.45, 0.60}
	curves := map[string][]nocsim.SweepPoint{}
	for _, alg := range []string{"footprint", "dbar"} {
		cfg.Algorithm = alg
		pts, err := nocsim.HotspotCurve(cfg, 0.3, rates)
		if err != nil {
			log.Fatal(err)
		}
		curves[alg] = pts
	}

	fmt.Println("== background latency under endpoint congestion (Table 3 flows + 30% uniform) ==")
	fmt.Printf("%-10s %14s %14s\n", "hot rate", "footprint", "dbar")
	for i, r := range rates {
		cell := func(alg string) string {
			res := curves[alg][i].Result
			if !res.Stable {
				return "saturated"
			}
			return fmt.Sprintf("%.1f cycles", res.AvgLatency(nocsim.ClassBackground))
		}
		fmt.Printf("%-10.2f %14s %14s\n", r, cell("footprint"), cell("dbar"))
	}

	fmt.Println("\nEach cell is the mean latency of the background class; \"saturated\"")
	fmt.Println("marks a run whose measured packets did not all drain. EXPERIMENTS.md,")
	fmt.Println("Figure 9, compares these curves with the paper's.")
}
