package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cells"
	"repro/internal/expt"
	"repro/internal/mc"
	"repro/internal/ssta"
	"repro/internal/timing"
	"repro/internal/variation"
)

// timeSetups runs the workload's set-up setups times. Before each one,
// release drops the previous set-up's state and a forced GC collects it,
// outside the timed region, so a set-up neither pays for nor is held in
// memory beside the one before it. In a traced run the odd set-ups are
// traced, so the set-up half of the tracing overhead is measured too;
// setup_s is the median of the untraced ones.
func (e *env) timeSetups(release func(), setup func(tr *tracer) error) (plain, traced []float64, err error) {
	for i := 0; i < setups; i++ {
		tr := e.traceFor(i%2 == 1)
		release()
		runtime.GC()
		t0 := time.Now()
		if err := setup(tr); err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		d := time.Since(t0).Seconds()
		if tr != nil {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
	}
	return plain, traced, nil
}

// prepareBenches prepares the named presets with the paper's default
// options, one "setup.prepare" span each when traced (the "setup" layer is
// kept out of the per-pass self times).
func prepareBenches(names []string, tr *tracer) ([]*expt.Bench, error) {
	out := make([]*expt.Bench, len(names))
	for i, name := range names {
		id := tr.begin("setup.prepare", -1, -1)
		b, err := expt.PreparePreset(name, expt.Options{})
		tr.end(id)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// probePrepare times the two halves of bench preparation from outside —
// SSTA (ssta.New + PairDelays) and the period Monte Carlo — on each
// prepared bench, summed over the workload's circuits.
func (e *env) probePrepare(benches []*expt.Bench) error {
	var sstaS, periodS float64
	for _, b := range benches {
		t0 := time.Now()
		a, err := ssta.New(b.Circuit, variation.NewModel(cells.Default()))
		if err != nil {
			return err
		}
		a.PairDelays()
		sstaS += time.Since(t0).Seconds()
		t0 = time.Now()
		mc.New(b.Graph, b.Opt.Seed+2).PeriodDistribution(b.Opt.PeriodSamples)
		periodS += time.Since(t0).Seconds()
	}
	e.layers.set("ssta.prepare_s", sstaS, len(benches))
	e.layers.set("mc.period_s", periodS, len(benches))
	return nil
}

// realizeSeconds times the realization of chips [0, n) of the (g, seed)
// universe with a no-op consumer: the mc layer's share of any pass over
// those chips.
func realizeSeconds(g *timing.Graph, seed uint64, n int) float64 {
	t0 := time.Now()
	mc.New(g, seed).ForEachRangeBatch(0, n, func(int, *timing.Chip) {})
	return time.Since(t0).Seconds()
}

// digestOf returns the JSON encoding of v as a string, for comparing
// outputs across passes.
func digestOf(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: unencodable output: %v", err))
	}
	return string(data)
}
