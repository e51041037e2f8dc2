// Quickstart: generate a small sequential circuit, insert post-silicon
// clock-tuning buffers for the mean required period, and measure the yield
// improvement — the paper's whole story in ~40 lines.
package main

import (
	"fmt"
	"log"

	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/insertion"
)

func main() {
	// A 50-FF, 300-gate synthetic circuit with process variation and
	// injected clock skews (the experimental setup of the paper, scaled
	// down to run in seconds).
	c, err := gen.Generate(gen.Config{NumFFs: 50, NumGates: 300, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := expt.Prepare(c, expt.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sys.Summary())

	// Target the mean required period µT: without tuning, half of all
	// manufactured chips fail here.
	T := sys.TargetPeriod(0)
	fmt.Printf("target clock period: %.1f ps\n", T)

	// Run the sampling-based three-step flow (Fig. 3 of the paper).
	res, err := sys.Insert(T, insertion.Config{Samples: 1000, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted %d physical buffers (avg range %.1f of %d steps)\n",
		res.NumPhysicalBuffers(), res.AvgRangeSteps(), res.Cfg.Spec.Steps)
	for i, g := range res.Groups {
		fmt.Printf("  buffer %d: FFs %v, window [%.1f, %.1f] ps\n", i, g.FFs, g.Lo, g.Hi)
	}

	// Measure yield on 4000 fresh virtual chips.
	rep, err := sys.MeasureYield(res, T, 4000, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("yield: %.2f %% → %.2f %%  (improvement %+.2f points)\n",
		rep.Original.Percent(), rep.Tuned.Percent(), rep.Improvement())
}
