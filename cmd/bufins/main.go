// Command bufins runs the paper's sampling-based buffer-insertion flow on a
// circuit and reports the chosen buffer locations, windows, final ranges
// and groups.
//
// Usage:
//
//	bufins -preset s9234 -target mu -samples 2000
//	bufins -bench my.bench -period 2200 -samples 1000
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/expt"
	"repro/internal/insertion"
	"repro/internal/tabular"
)

// fatalf is the single failure path: message to stderr, non-zero exit.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bufins: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		preset   = flag.String("preset", "", "paper benchmark circuit")
		bench    = flag.String("bench", "", ".bench netlist file")
		target   = flag.String("target", "mu", "period target: mu | mu+s | mu+2s (ignored with -period)")
		period   = flag.Float64("period", 0, "explicit target clock period in ps")
		samples  = flag.Int("samples", 2000, "insertion Monte Carlo samples (paper: 10000)")
		seed     = flag.Uint64("seed", 0xF00D, "sampling seed")
		maxBuf   = flag.Int("maxbuffers", 0, "cap on physical buffers (0 = none)")
		evalN    = flag.Int("eval", 4000, "fresh chips for yield measurement (0 = skip)")
		savePlan = flag.String("saveplan", "", "write the buffer plan as JSON to this file")
		topCrit  = flag.Int("critical", 5, "print the k most failure-prone register pairs (0 = skip)")
	)
	flag.Parse()

	sys, err := loadBench(*preset, *bench)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(sys.Summary())

	T := *period
	if T == 0 {
		switch *target {
		case "mu":
			T = sys.TargetPeriod(0)
		case "mu+s":
			T = sys.TargetPeriod(1)
		case "mu+2s":
			T = sys.TargetPeriod(2)
		default:
			fatalf("unknown target %q", *target)
		}
	}
	fmt.Printf("target period: %.1f ps (buffer range %.1f ps, 20 steps)\n\n", T, T/8)

	if *topCrit > 0 {
		tc := tabular.New("launch FF", "capture FF", "mean slack", "sigma", "P(fail)")
		tc.SetTitle(fmt.Sprintf("%d most failure-prone register pairs at %.1f ps:", *topCrit, T))
		for _, r := range sys.Graph.CriticalPairs(T, *topCrit) {
			tc.AddRowf(r.Launch, r.Capture, r.MeanSlack, r.StdSlack, fmt.Sprintf("%.4f", r.FailProb))
		}
		fmt.Println(tc)
	}

	res, err := sys.Insert(T, insertion.Config{Samples: *samples, Seed: *seed, MaxBuffers: *maxBuf})
	if err != nil {
		fatalf("%v", err)
	}
	if *savePlan != "" {
		f, err := os.Create(*savePlan)
		if err != nil {
			fatalf("%v", err)
		}
		plan := res.Plan(sys.Name)
		if err := plan.Save(f); err != nil {
			fatalf("%v", err)
		}
		f.Close()
		fmt.Printf("plan written to %s\n\n", *savePlan)
	}

	tb := tabular.New("FF", "window lo", "range lo", "range hi", "steps", "uses", "avg")
	tb.SetTitle(fmt.Sprintf("Per-FF buffers (%d):", len(res.Buffers)))
	for _, b := range res.Buffers {
		tb.AddRowf(b.FF, b.Lower, b.Lo, b.Hi, b.RangeSteps, b.Uses, b.Avg)
	}
	fmt.Println(tb)

	tg := tabular.New("group", "FFs", "lo", "hi", "steps", "uses")
	tg.SetTitle(fmt.Sprintf("Physical buffers after grouping (Nb=%d, Ab=%.2f steps):",
		res.NumPhysicalBuffers(), res.AvgRangeSteps()))
	for i, g := range res.Groups {
		tg.AddRowf(i, fmt.Sprint(g.FFs), g.Lo, g.Hi, g.RangeSteps(res.Cfg.Spec.Step()), g.Uses)
	}
	fmt.Println(tg)

	st := res.Stats
	fmt.Printf("flow: %d samples, %d clean, %d unfixable (step1), %d self-loop, missing=%.4f skippedB1=%v\n",
		st.Samples, st.ZeroViolation, st.InfeasibleStep1, st.SelfLoopFailures, st.MissingFrac, st.SkippedB1)

	if *evalN > 0 {
		rep, err := sys.MeasureYield(res, T, *evalN, 0)
		if err != nil {
			fatalf("%v", err)
		}
		lo, hi := rep.Tuned.WilsonCI(0.95)
		fmt.Printf("\nyield at %.1f ps over %d fresh chips:\n", T, *evalN)
		fmt.Printf("  Yo = %6.2f %%\n  Y  = %6.2f %%  (95%% CI %.2f–%.2f)\n  Yi = %+6.2f points\n",
			rep.Original.Percent(), rep.Tuned.Percent(), 100*lo, 100*hi, rep.Improvement())
	}
}

func loadBench(preset, bench string) (*expt.Bench, error) {
	switch {
	case preset != "":
		return expt.PreparePreset(preset, expt.Options{})
	case bench != "":
		f, err := os.Open(bench)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return expt.PrepareBench(f, bench, expt.Options{})
	default:
		return nil, fmt.Errorf("need -preset or -bench")
	}
}
