package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/expt"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/serve"
	"repro/internal/yield"
)

// yieldSweepWhy: the timed part makes no LP call at all — plans come from
// set-up — so it isolates realization, sweep tally and diffcon, the layers
// a solver optimisation should leave untouched.
const yieldSweepWhy = "Table I plans made in set-up, so no LP runs: realization, sweep tally and diffcon over fresh chips, plus an adaptive query"

const (
	sweepPeriods    = 16
	sweepChips      = 20000 // (a): every plan × the sweep
	strategyChips   = 2000  // (b): the s9234 µT plan's strategy set
	adaptiveCap     = 40000 // (c): the adaptive query's chip cap
	adaptiveEps     = 0.005
	adaptiveConf    = 0.95
	adaptiveCircuit = 0 // index into table1Circuits: s9234
)

// sweepOf returns the sorted period sweep µT + k·σT for k evenly spaced
// over [−1, 3].
func sweepOf(b *expt.Bench, n int) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		k := -1 + 4*float64(i)/float64(n-1)
		ts[i] = b.Period.Mu + k*b.Period.Sigma
	}
	return ts
}

// sweepInputs are one run's generated yield queries.
type sweepInputs struct {
	benches                                                []*expt.Bench
	plans                                                  [][]insertion.Plan // per bench, one per Table I target
	chipSeed, strategySeed, strategyChipSeed, adaptiveSeed uint64
}

// sweepOutputs are the deterministic results of one pass.
type sweepOutputs struct {
	Sweeps     [][]serve.YieldResult
	Strategies []serve.YieldResult
	Adaptive   []serve.YieldResult
}

// checkSweeps verifies every sweep report: at every period the tuned
// yield is at least the original, and both are non-decreasing as the
// period grows.
func checkSweeps(rep *report, label string, results []serve.YieldResult) {
	for qi, res := range results {
		for si, r := range res.Reports {
			for i := range r.Ts {
				rep.check(r.Tuned[i].Pass >= r.Original[i].Pass,
					"%s query %d %s @%d: tuned %d below original %d", label, qi, res.Names[si], i, r.Tuned[i].Pass, r.Original[i].Pass)
				if i > 0 {
					rep.check(r.Original[i].Pass >= r.Original[i-1].Pass && r.Tuned[i].Pass >= r.Tuned[i-1].Pass,
						"%s query %d %s: yield falls between periods %d and %d", label, qi, res.Names[si], i-1, i)
				}
			}
		}
	}
}

// sweepCounts accumulates what the traced yield passes did.
type sweepCounts struct {
	evalS, realizeS            float64
	sweeps, groups, chipSweeps int
	chips, realized            int
	waves, adaptiveUsed        int
	waveTallyS, absorbS        float64
}

// runYieldSweep times (a) every Table I plan over a 16-period sweep on
// fresh chips, (b) the s9234 µT plan's strategy set on the same sweep, and
// (c) an adaptive ±0.005 @ 95% query on the s9234 µT+2σ plan. The plans
// are the Table I rows at the flow's fixed seed; the benchmark seed draws
// every chip universe and the random-placement baseline.
func runYieldSweep(e *env) error {
	in := sweepInputs{
		chipSeed:         mix(e.seed, 2),
		strategySeed:     mix(e.seed, 3),
		strategyChipSeed: mix(e.seed, 4),
		adaptiveSeed:     mix(e.seed, 5),
	}
	setupPlain, setupTraced, err := e.timeSetups(func() { in.benches = nil }, func(tr *tracer) (err error) {
		in.benches, err = prepareBenches(table1Circuits, tr)
		return err
	})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, b := range in.benches {
		rows, err := expt.RunRows(b, expt.Targets, expt.RowConfig{InsertSamples: table1InsertSamples, EvalSamples: table1EvalSamples})
		if err != nil {
			return err
		}
		var ps []insertion.Plan
		for _, r := range rows {
			ps = append(ps, r.Insert.Plan(b.Name))
		}
		in.plans = append(in.plans, ps)
	}
	e.rep.addNamed("plan_s", "s", time.Since(t0).Seconds(), 1, "untimed: Table I rows that supply the plans")
	if e.tracing() {
		if err := e.probePrepare(in.benches); err != nil {
			return err
		}
	}

	var first string
	var c sweepCounts
	var sweepS, adaptiveS []float64
	adaptiveChips := 0
	plain, traced, err := timeLoop(e.dur, e.tracing(), func(i int, isTraced bool) error {
		tr := e.traceFor(isTraced)
		var cc *sweepCounts
		if isTraced {
			cc = &c
			e.tracedPasses++
		}
		t0 := time.Now()
		out, err := sweepPass(in, tr, cc)
		if err != nil {
			return err
		}
		t1 := time.Now()
		adaptive, err := adaptivePass(in, tr, cc)
		if err != nil {
			return err
		}
		out.Adaptive = adaptive
		if !isTraced {
			sweepS = append(sweepS, t1.Sub(t0).Seconds())
			adaptiveS = append(adaptiveS, time.Since(t1).Seconds())
		}
		for bi, res := range out.Sweeps {
			checkSweeps(e.rep, in.benches[bi].Name, res)
		}
		checkSweeps(e.rep, "strategies", out.Strategies)
		a := out.Adaptive[0].Adaptive[0]
		e.rep.check(a.Met, "adaptive query stopped at the cap without meeting ±%g", adaptiveEps)
		adaptiveChips = a.SamplesUsed
		d := digestOf(out)
		if i == 0 {
			first = d
			e.rep.digestJSON(out)
		}
		e.rep.check(d == first, "pass %d: yield reports differ from pass 0", i)
		return nil
	})
	if err != nil {
		return err
	}

	chipSweeps := 0
	for _, ps := range in.plans {
		chipSweeps += sweepChips * len(ps)
	}
	chipSweeps += strategyChips * len(baseline.Strategies(in.benches[adaptiveCircuit].Graph,
		in.plans[adaptiveCircuit][0].Spec, in.plans[adaptiveCircuit][0].T, in.plans[adaptiveCircuit][0].Groups, in.strategySeed))
	e.rep.addNamed("chip_sweeps_per_s", "1/s", float64(chipSweeps)/median(sweepS), len(sweepS),
		fmt.Sprintf("(a)+(b): %d chip-sweeps of %d periods per pass", chipSweeps, sweepPeriods))
	e.rep.addNamed("adaptive_s", "s", median(adaptiveS), len(adaptiveS), "(c)")
	e.rep.addNamed("adaptive_chips", "count", float64(adaptiveChips), len(adaptiveS), fmt.Sprintf("of a %d-chip cap", adaptiveCap))
	if e.tracing() {
		n := float64(max(1, e.tracedPasses))
		np := e.tracedPasses
		l := e.layers
		l.set("yield.eval_s", c.evalS/n, np)
		l.set("yield.tally_self_s", (c.evalS-c.realizeS)/n, np)
		l.set("yield.sweeps", float64(c.sweeps)/n, np)
		l.set("yield.groups_per_sweep", float64(c.groups)/float64(max(1, c.sweeps)), c.sweeps)
		l.set("yield.chip_sweeps", float64(c.chipSweeps)/n, np)
		l.set("mc.chips_realized", float64(c.chips)/n, np)
		l.set("mc.realize_us_per_chip", c.realizeS/float64(max(1, c.realized))*1e6, c.realized)
		l.set("adaptive.waves", float64(c.waves)/n, np)
		l.set("adaptive.wave_tally_s", c.waveTallyS/n, np)
		l.set("adaptive.absorb_s", c.absorbS/n, np)
		l.set("adaptive.used_ratio", float64(c.adaptiveUsed)/float64(max(1, np)*adaptiveCap), np)
		e.finishOverhead(setupPlain, setupTraced, plain, traced)
	}
	e.finishE2E(setupPlain, plain)
	return nil
}

// sweepPass runs (a) and (b) through serve.EvaluateQueries, the path the
// CLIs and an unsharded /v1/yield share. A traced pass also re-realizes
// the same chips alone afterwards, so the tally's own cost can be split
// from realization.
func sweepPass(in sweepInputs, tr *tracer, c *sweepCounts) (sweepOutputs, error) {
	var out sweepOutputs
	eval := func(b *expt.Bench, seed uint64, n int, queries []serve.YieldQuery) ([]serve.YieldResult, error) {
		t0 := time.Now()
		id := tr.begin("yield.eval", -1, -1)
		res, err := serve.EvaluateQueries(context.Background(), b.Graph, mc.New(b.Graph, seed), n, queries)
		tr.end(id)
		if err != nil || c == nil {
			return res, err
		}
		c.evalS += time.Since(t0).Seconds()
		for _, r := range res {
			c.sweeps += len(r.Names)
			c.chipSweeps += n * len(r.Names)
		}
		c.chips += n
		c.realizeS += realizeSeconds(b.Graph, seed, n)
		c.realized += n
		return res, nil
	}
	for bi, b := range in.benches {
		ts := sweepOf(b, sweepPeriods)
		var qs []serve.YieldQuery
		for _, p := range in.plans[bi] {
			qs = append(qs, serve.YieldQuery{Plan: p, Periods: ts})
			if c != nil {
				c.groups += len(p.Groups)
			}
		}
		res, err := eval(b, in.chipSeed, sweepChips, qs)
		if err != nil {
			return out, fmt.Errorf("sweep on %s: %w", b.Name, err)
		}
		out.Sweeps = append(out.Sweeps, res)
	}
	b := in.benches[adaptiveCircuit]
	plan := in.plans[adaptiveCircuit][expt.MuT]
	q := serve.YieldQuery{Plan: plan, Periods: sweepOf(b, sweepPeriods), Strategies: true, StrategySeed: in.strategySeed}
	if c != nil {
		for _, s := range baseline.Strategies(b.Graph, plan.Spec, plan.T, plan.Groups, in.strategySeed) {
			c.groups += len(s.Groups)
		}
	}
	res, err := eval(b, in.strategyChipSeed, strategyChips, []serve.YieldQuery{q})
	if err != nil {
		return out, fmt.Errorf("strategies: %w", err)
	}
	out.Strategies = res
	return out, nil
}

// adaptivePass runs (c). Untraced it is one serve.EvaluateQueriesAdaptive
// call; traced, the benchmark drives the same wave machine itself
// (yield.NewAdaptive / Next / TallyRange / Absorb) with a span per wave
// tally and per absorb. The result must match either way.
func adaptivePass(in sweepInputs, tr *tracer, c *sweepCounts) ([]serve.YieldResult, error) {
	b := in.benches[adaptiveCircuit]
	plan := in.plans[adaptiveCircuit][expt.MuTPlus2Sigma]
	prec := yield.Precision{Eps: adaptiveEps, Conf: adaptiveConf}
	if tr == nil {
		return serve.EvaluateQueriesAdaptive(b.Graph, in.adaptiveSeed, adaptiveCap, []serve.YieldQuery{{Plan: plan}}, prec)
	}
	ev, err := yield.NewEvaluator(b.Graph, plan.Spec, plan.Groups)
	if err != nil {
		return nil, err
	}
	sw, err := yield.NewSweepEvaluator(ev, []float64{plan.T})
	if err != nil {
		return nil, err
	}
	root := tr.begin("stat.adaptive", -1, -1)
	defer tr.end(root)
	a, err := yield.NewAdaptive(prec, adaptiveCap, sw)
	if err != nil {
		return nil, err
	}
	eng := mc.New(b.Graph, in.adaptiveSeed)
	eng.Stratify = a.Prec.Strata
	for {
		lo, hi, zeroOnly, ok := a.Next()
		if !ok {
			break
		}
		t0 := time.Now()
		id := tr.begin("yield.wave_tally", root, -1)
		var ts []yield.SweepTally
		if zeroOnly {
			ts = yield.TallyRangeZero(eng, lo, hi, sw)
		} else {
			ts = yield.TallyRange(eng, lo, hi, sw)
		}
		tr.end(id)
		t1 := time.Now()
		id = tr.begin("stat.absorb", root, -1)
		err := a.Absorb(ts)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		c.waveTallyS += t1.Sub(t0).Seconds()
		c.absorbS += time.Since(t1).Seconds()
	}
	c.waves += a.Waves()
	c.adaptiveUsed += a.SamplesUsed()
	c.chips += a.SamplesUsed()
	c.sweeps++
	c.groups += len(plan.Groups)
	return []serve.YieldResult{{Names: []string{"plan"}, Adaptive: a.Reports()}}, nil
}
