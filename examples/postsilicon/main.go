// Post-silicon: the paper's future-work scenario. After the design-time
// flow fixes buffer locations and ranges, every manufactured chip is tested
// and its buffers configured individually. This example "manufactures" 20
// virtual chips, configures each with the exact and the greedy tuner, and
// shows which failing chips were rescued and at what configuration cost.
package main

import (
	"fmt"
	"log"

	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/tabular"
	"repro/internal/timing"
	"repro/internal/tuner"
)

func main() {
	c, err := gen.Generate(gen.Config{NumFFs: 40, NumGates: 240, Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := expt.Prepare(c, expt.Options{})
	if err != nil {
		log.Fatal(err)
	}
	T := sys.TargetPeriod(0)
	fmt.Printf("%s\ntarget period %.1f ps\n\n", sys.Summary(), T)

	res, err := sys.Insert(T, insertion.Config{Samples: 800, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design-time: %d physical buffers inserted\n\n", res.NumPhysicalBuffers())

	tn, err := tuner.New(sys.Graph, res.Cfg.Spec, res.Groups)
	if err != nil {
		log.Fatal(err)
	}

	chips := sampleChips(sys.Graph, 20, 0xC41F)
	tb := tabular.New("chip", "passes untuned", "fate", "buffers set", "total steps")
	tb.SetTitle("post-silicon configuration of 20 manufactured chips:")
	for k, ch := range chips {
		if sys.Graph.FeasibleAtZero(ch, T) {
			tb.AddRowf(k, "yes", "ships as-is", 0, 0)
			continue
		}
		a, err := tn.GreedyMinimal(ch, T)
		if err != nil {
			tb.AddRowf(k, "no", "UNFIXABLE", "-", "-")
			continue
		}
		tb.AddRowf(k, "no", "rescued", a.Configured, a.TotalSteps)
	}
	fmt.Println(tb)

	// Population-level cost: exact vs greedy configuration.
	many := sampleChips(sys.Graph, 500, 0xC41F)
	exact := tn.Population(many, T, false)
	greedy := tn.Population(many, T, true)
	fmt.Println("configuration cost over 500 chips:")
	fmt.Printf("  exact : %v\n", exact)
	fmt.Printf("  greedy: %v\n", greedy)
}

// sampleChips "manufactures" n virtual chips, deterministic in seed.
func sampleChips(g *timing.Graph, n int, seed uint64) []*timing.Chip {
	eng := mc.New(g, seed)
	chips := make([]*timing.Chip, n)
	for k := range chips {
		chips[k] = eng.Chip(k)
	}
	return chips
}
