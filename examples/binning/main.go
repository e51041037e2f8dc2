// Binning: the clock-binning scenario from the paper's conclusion. Chips
// are sorted into speed bins (sellable clock periods); post-silicon tuning
// lets slow chips reconfigure into faster bins, shifting the population
// toward premium bins and shrinking scrap.
package main

import (
	"fmt"
	"log"

	"repro/internal/binning"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/tabular"
	"repro/internal/yield"
)

func main() {
	c, err := gen.Generate(gen.Config{NumFFs: 60, NumGates: 360, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := expt.Prepare(c, expt.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sys.Summary())

	// Insert buffers for the premium bin's period (µT − σT is ambitious;
	// µT keeps the area bill small — a design decision the bin ladder
	// makes visible).
	T := sys.TargetPeriod(0)
	res, err := sys.Insert(T, insertion.Config{Samples: 800, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted %d buffers for T = %.1f ps\n\n", res.NumPhysicalBuffers(), T)

	ev, err := yield.NewEvaluator(sys.Graph, res.Cfg.Spec, res.Groups)
	if err != nil {
		log.Fatal(err)
	}

	bins := binning.MuSigmaBins(sys.Period)
	untuned, tuned, err := binning.Compare(sys.Graph, ev, bins, mc.New(sys.Graph, 0xB145), 5000)
	if err != nil {
		log.Fatal(err)
	}

	tb := tabular.New("bin period (ps)", "untuned chips", "untuned %", "tuned chips", "tuned %")
	tb.SetTitle("speed-bin population over 5000 manufactured chips:")
	for i := range bins {
		tb.AddRowf(fmt.Sprintf("%.1f", untuned.Bins[i]),
			untuned.Counts[i], 100*untuned.Fractions()[i],
			tuned.Counts[i], 100*tuned.Fractions()[i])
	}
	tb.AddRowf("scrap", untuned.Scrap, 100*untuned.ScrapRate(),
		tuned.Scrap, 100*tuned.ScrapRate())
	fmt.Println(tb)
	fmt.Printf("mean sellable period: %.1f ps → %.1f ps\n",
		untuned.MeanPeriod(), tuned.MeanPeriod())
}
