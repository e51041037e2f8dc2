package expt

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/timing"
	"repro/internal/tuner"
	"repro/internal/yield"
)

// These tests cover the single-circuit entry points (Summary,
// TargetPeriod, Insert, MeasureYield, PrepareBench) and the RowConfig
// hooks RunRows adapts onto the yield driver.

func generatedBench(t *testing.T) *Bench {
	t.Helper()
	c, err := gen.Generate(gen.Config{NumFFs: 25, NumGates: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prepare(c, Options{PeriodSamples: 800})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSummaryAndTargetPeriod(t *testing.T) {
	b := generatedBench(t)
	if b.Period.Mu <= 0 || b.Period.Sigma <= 0 {
		t.Fatalf("period stats: %+v", b.Period)
	}
	if b.TargetPeriod(2) != b.Period.Mu+2*b.Period.Sigma {
		t.Fatal("target period arithmetic")
	}
	for _, tgt := range Targets {
		if b.TargetPeriod(float64(tgt)) != b.PeriodFor(tgt) {
			t.Fatalf("TargetPeriod(%d) != PeriodFor(%v)", tgt, tgt)
		}
	}
	sum := b.Summary()
	if !strings.Contains(sum, "25 FFs") || !strings.Contains(sum, "120 gates") {
		t.Fatalf("summary = %q", sum)
	}
}

// TestInsertMeasureYieldEndToEnd runs the library workflow: insert at µT,
// measure the yield on fresh chips, and configure a chip population.
func TestInsertMeasureYieldEndToEnd(t *testing.T) {
	b := generatedBench(t)
	T := b.TargetPeriod(0)
	res, err := b.Insert(T, insertion.Config{Samples: 250, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.MeasureYield(res, T, 1500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Original.Rate() < 0.35 || rep.Original.Rate() > 0.65 {
		t.Fatalf("Yo at µT = %v", rep.Original.Rate())
	}
	if rep.Improvement() < 0 {
		t.Fatal("yield must not decrease")
	}
	// MeasureYield is the per-period reference on the default universe.
	ev, err := yield.NewEvaluator(b.Graph, res.Cfg.Spec, res.Groups)
	if err != nil {
		t.Fatal(err)
	}
	if want := yield.Evaluate(ev, mc.New(b.Graph, 0xD1CE), 1500, T); rep != want {
		t.Fatalf("MeasureYield %+v != per-period Evaluate %+v", rep, want)
	}
	tn, err := tuner.New(b.Graph, res.Cfg.Spec, res.Groups)
	if err != nil {
		t.Fatal(err)
	}
	eng := mc.New(b.Graph, 314)
	chips := make([]*timing.Chip, 50)
	for k := range chips {
		chips[k] = eng.Chip(k)
	}
	costs := tn.Population(chips, T, false)
	if costs.Chips != 50 || costs.PassOutright+costs.Rescued+costs.Unfixable != 50 {
		t.Fatalf("population: %+v", costs)
	}
}

func TestPrepareBench(t *testing.T) {
	const src = `# mini
INPUT(a)
OUTPUT(q)
f1 = DFF(g2)
f2 = DFF(g3)
g1 = NAND(a, f1)
g2 = OR(g1, f2)
g3 = NOT(f1)
q = BUFF(f2)
`
	b, err := PrepareBench(strings.NewReader(src), "mini", Options{PeriodSamples: 300})
	if err != nil {
		t.Fatal(err)
	}
	if b.Circuit.NumFFs() != 2 {
		t.Fatalf("FFs = %d", b.Circuit.NumFFs())
	}
	if b.Period.Mu <= 0 {
		t.Fatal("period")
	}
}

func TestPrepareBenchParseError(t *testing.T) {
	if _, err := PrepareBench(strings.NewReader("garbage(("), "x", Options{}); err == nil {
		t.Fatal("parse error expected")
	}
}

func TestPreparePreset(t *testing.T) {
	b, err := PreparePreset("s9234", Options{PeriodSamples: 500})
	if err != nil {
		t.Fatal(err)
	}
	if b.Circuit.NumFFs() != 211 || b.Circuit.NumGates() != 5597 {
		t.Fatal("preset dimensions")
	}
}

func TestInsertDefaults(t *testing.T) {
	b := generatedBench(t)
	T := b.TargetPeriod(2)
	res, err := b.Insert(T, insertion.Config{Samples: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cfg.T != T || res.Cfg.Seed != 0xF00D {
		t.Fatalf("T and the default seed must be resolved, got T=%v seed=%#x", res.Cfg.T, res.Cfg.Seed)
	}
	if res.Cfg.Spec.Steps != 20 || res.Cfg.Spec.MaxRange != T/8 {
		t.Fatalf("paper default spec expected, got %+v", res.Cfg.Spec)
	}
	// RunRows resolves its rows through the same defaults.
	rc := RowConfig{}
	rc.fill()
	if cfg := InsertConfig(T, insertion.Config{}); rc.InsertSamples != cfg.Samples || rc.Seed != cfg.Seed {
		t.Fatalf("RowConfig defaults %d/%#x diverge from InsertConfig %d/%#x",
			rc.InsertSamples, rc.Seed, cfg.Samples, cfg.Seed)
	}
	// Bad evaluator config surfaces.
	bad := *res
	bad.Groups = []insertion.Group{{FFs: []int{0}, Lo: 1, Hi: 2}}
	if _, err := b.MeasureYield(&bad, T, 10, 0); err == nil {
		t.Fatal("bad groups must fail")
	}
}

// TestRunRowsEvalPlansHook: an exact-pass hook answering with the
// in-process reports reproduces the in-process rows, and a hook whose
// reports miscount the chips is rejected instead of folded.
func TestRunRowsEvalPlansHook(t *testing.T) {
	b := smallBench(t)
	rc := RowConfig{InsertSamples: 150, EvalSamples: 600, Seed: 3}
	want, err := RunRows(b, Targets, rc)
	if err != nil {
		t.Fatal(err)
	}
	honest := func(plans []insertion.Plan, n int, seed uint64) ([]yield.Report, error) {
		out := make([]yield.Report, len(plans))
		for i, p := range plans {
			ev, err := yield.NewEvaluator(b.Graph, p.Spec, p.Groups)
			if err != nil {
				return nil, err
			}
			out[i] = yield.Evaluate(ev, mc.New(b.Graph, seed), n, p.T)
		}
		return out, nil
	}
	rc.EvalPlans = honest
	got, err := RunRows(b, Targets, rc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		w, g := want[i], got[i]
		w.Runtime, g.Runtime = 0, 0
		w.Insert, g.Insert = nil, nil
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("row %d diverges:\n got %+v\nwant %+v", i, g, w)
		}
	}
	rc.EvalPlans = func(plans []insertion.Plan, n int, seed uint64) ([]yield.Report, error) {
		reps, err := honest(plans, n, seed)
		if err == nil {
			reps[0].Original.Total++
		}
		return reps, err
	}
	if _, err := RunRows(b, Targets, rc); err == nil {
		t.Fatal("a miscounted EvalPlans report was folded")
	}
}
