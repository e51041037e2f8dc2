package insertion

import (
	"math"
	"testing"

	"repro/internal/cells"
	"repro/internal/gen"
	"repro/internal/mc"
	"repro/internal/milp"
	"repro/internal/ssta"
	"repro/internal/timing"
	"repro/internal/variation"
)

// s9234MuT prepares the s9234 preset as expt.Prepare does at its default
// options (3% hold-safe skew, 4,000-chip period distribution, seed 0xBEEF)
// and returns the timing graph with its µT period.
func s9234MuT(t *testing.T) (*timing.Graph, float64) {
	t.Helper()
	p, err := gen.PresetByName("s9234")
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ssta.New(c, variation.NewModel(cells.Default()))
	if err != nil {
		t.Fatal(err)
	}
	g := timing.Build(a, nil)
	g = g.WithSkew(g.HoldSafeSkews(timing.SkewSigma(g.Pairs, 0.03), 0xBEEF+1))
	return g, mc.New(g, 0xBEEF+2).PeriodDistribution(4000).Mu
}

// TestSampleSolveWarmMatchesCold: over the first 200 s9234 µT samples, the
// warm-started branch-and-bound (hot dives, basis exchange restores) must
// reach the same per-component optima as the cold path (milp NoWarm), in
// both the step-1 floating and the step-2 fixed formulation: the min-count
// nk exactly, the concentration objective within 1e-9 relative. Tied
// argmins may differ between the paths; the objectives may not.
func TestSampleSolveWarmMatchesCold(t *testing.T) {
	g, muT := s9234MuT(t)
	cfg := Config{T: muT, Samples: 200, Seed: 0xF00D}
	sb, err := NewSampleBench(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	eng := mc.New(g, cfg.Seed)
	type objs struct {
		nk   int
		conc float64
	}
	for _, warm := range []*sampleSolver{sb.s1, sb.s2} {
		cold := newSolverScratch(g, warm.adj)
		cold.configure(cfg, warm.mode, warm.allowed, warm.lower, warm.center)
		cold.bbOpt = milp.Options{NoWarm: true}
		var got, want []objs
		warm.onComponent = func(nk int, conc float64) { got = append(got, objs{nk, conc}) }
		cold.onComponent = func(nk int, conc float64) { want = append(want, objs{nk, conc}) }
		before := warm.arena.Stats
		for k := 0; k < cfg.Samples; k++ {
			ch := eng.Chip(k)
			ow, oc := warm.solve(ch), cold.solve(ch)
			if ow.Feasible != oc.Feasible || ow.NK != oc.NK {
				t.Fatalf("mode %d sample %d: warm %+v, cold %+v", warm.mode, k, ow, oc)
			}
		}
		warm.onComponent = nil
		if len(got) != len(want) {
			t.Fatalf("mode %d: %d warm components, %d cold", warm.mode, len(got), len(want))
		}
		if len(got) == 0 {
			t.Fatalf("mode %d: no violation component in 200 samples", warm.mode)
		}
		for i, w := range want {
			gv := got[i]
			if gv.nk != w.nk {
				t.Fatalf("mode %d component %d: nk warm %d, cold %d", warm.mode, i, gv.nk, w.nk)
			}
			if math.IsNaN(gv.conc) != math.IsNaN(w.conc) || math.Abs(gv.conc-w.conc) > 1e-9*math.Abs(w.conc) {
				t.Fatalf("mode %d component %d: concentration warm %v, cold %v", warm.mode, i, gv.conc, w.conc)
			}
		}
		st := warm.arena.Stats
		t.Logf("mode %d: %d components, warm stats %+v", warm.mode, len(got), st)
		if st.Warm == before.Warm {
			t.Fatalf("mode %d: no basis restore exercised: %+v", warm.mode, st)
		}
	}
}
