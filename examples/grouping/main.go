// Grouping: demonstrates §III-C on a bus-like circuit — parallel pipeline
// lanes whose flip-flops see the same critical stage, so their tuning
// values correlate strongly and the flow merges them into shared physical
// buffers. Sweeps the correlation threshold rt to show the buffer-count /
// yield trade-off.
package main

import (
	"fmt"
	"log"

	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/insertion"
	"repro/internal/tabular"
)

func main() {
	// A narrow locality window makes lanes of neighboring FFs share launch
	// cones — the structure that produces correlated tuning.
	c, err := gen.Generate(gen.Config{
		Name: "buslike", NumFFs: 48, NumGates: 280,
		LocalityWindow: 3, MaxSources: 3, Seed: 2026,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := expt.Prepare(c, expt.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sys.Summary())
	T := sys.TargetPeriod(0)

	tb := tabular.New("rt", "per-FF buffers", "groups (Nb)", "largest group", "Y(%)", "Yi(%)")
	tb.SetTitle(fmt.Sprintf("grouping threshold sweep at T = %.1f ps (dt = 10):", T))
	for _, rt := range []float64{0.95, 0.8, 0.6, 0.4} {
		res, err := sys.Insert(T, insertion.Config{
			Samples: 800, Seed: 7, CorrThreshold: rt,
		})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := sys.MeasureYield(res, T, 3000, 0)
		if err != nil {
			log.Fatal(err)
		}
		largest := 0
		for _, g := range res.Groups {
			if len(g.FFs) > largest {
				largest = len(g.FFs)
			}
		}
		tb.AddRowf(rt, len(res.Buffers), len(res.Groups), largest,
			rep.Tuned.Percent(), rep.Improvement())
	}
	fmt.Println(tb)
	fmt.Println("lower rt merges more buffers (smaller Nb, less area) at some yield cost;")
	fmt.Println("the paper picks rt = 0.8 as the sweet spot.")
}
