package main

import (
	"bytes"
	"time"

	"nocsim"
	"nocsim/internal/sim"
	"nocsim/internal/trace"
)

// traceFixtures reports the trace layer on its own: generating a PARSEC
// model trace, writing and reading it back, and what the player's Tick
// costs per cycle of one replay through the public entry point.
func traceFixtures(m metricSet, fx fixtureBudget) error {
	const cycles = 3000
	cfg := table2("footprint", sim.DeriveSeed(fx.seed, "fixture/trace/run"), 0, cycles, 4*cycles)
	wl, err := trace.WorkloadByName("x264")
	if err != nil {
		return err
	}
	seed := sim.DeriveSeed(fx.seed, "fixture/trace/x264")

	var records []trace.Record
	genMs := make([]float64, fx.samples)
	for i := range genMs {
		t0 := time.Now()
		records = trace.Generate(wl, cfg.Mesh(), cycles, seed)
		genMs[i] = float64(time.Since(t0)) / 1e6 / (float64(len(records)) / 1000)
	}
	m["trace.generate_ms_per_krecord"] = median(genMs)

	mbPerS := make([]float64, fx.samples)
	for i := range mbPerS {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := trace.Write(&buf, records); err != nil {
			return err
		}
		size := buf.Len()
		if _, err := trace.Read(&buf); err != nil {
			return err
		}
		mbPerS[i] = float64(size) / (1 << 20) / time.Since(t0).Seconds()
	}
	m["trace.codec_mb_per_s"] = median(mbPerS)

	tickNs := make([]float64, fx.samples)
	for i := range tickNs {
		player := &timedInjector{inner: nocsim.NewTracePlayer(records), smp: &sampler{}}
		s, err := nocsim.New(cfg, player)
		if err != nil {
			return err
		}
		res := s.Run()
		tickNs[i] = float64(player.ns) / float64(res.Runtime.Cycles)
	}
	m["trace.player_tick_ns_per_cycle"] = median(tickNs)
	return nil
}
