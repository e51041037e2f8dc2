package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/expt"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/timing"
	"repro/internal/yield"
)

// table1Why: the paper's cost is Table I's T(s) column, and it is
// solver-bound — most of a pass is lp/milp inside the insertion flow.
// mem_ctrl adds a 1,065-FF graph where realization and component size
// weigh more than on s9234.
const table1Why = "the paper's Table I flow in-process on s9234 and mem_ctrl: solver-bound (lp/milp inside insertion), the T(s) column the paper reports"

var table1Circuits = []string{"s9234", "mem_ctrl"}

const (
	table1InsertSamples = 1000
	table1EvalSamples   = 4000
)

// table1Row is the part of a Table I row that must repeat exactly: the
// Nb/Ab/Yo/Y/Yi columns and the durable plan.
type table1Row struct {
	Circuit string
	Target  string
	Nb      int
	Ab      float64
	Yo      float64
	Y       float64
	Yi      float64
	Plan    insertion.Plan
}

func rowsOf(circuit string, rows []expt.Row) []table1Row {
	out := make([]table1Row, len(rows))
	for i, r := range rows {
		out[i] = table1Row{Circuit: circuit, Target: r.Target.String(), Nb: r.Nb, Ab: r.Ab,
			Yo: r.Yo, Y: r.Y, Yi: r.Yi, Plan: r.Insert.Plan(circuit)}
	}
	return out
}

// checkRows verifies one circuit's rows: every plan is structurally valid
// and buffers never lose yield (Y ≥ Yo).
func checkRows(rep *report, rows []table1Row) {
	for _, r := range rows {
		err := r.Plan.Validate()
		rep.check(err == nil, "%s@%s: invalid plan: %v", r.Circuit, r.Target, err)
		rep.check(r.Y >= r.Yo, "%s@%s: Y %.4f below Yo %.4f", r.Circuit, r.Target, r.Y, r.Yo)
	}
}

// insertCounts accumulates what the traced Table I passes did.
type insertCounts struct {
	runS, floatingS, fixedS, evalS        float64
	passes, samples, violated, infeasible int
	tunings, truncated                    int
	chips, sweeps, groups, chipSweeps     int
	// evals lists the yield passes of the current traced pass, so the same
	// chips can be re-realized alone afterwards.
	evals []universe
}

// universe is one evaluated chip range [0, n) of the (g, seed) universe.
type universe struct {
	g    *timing.Graph
	seed uint64
	n    int
}

func (c *insertCounts) addOutcomes(outs []insertion.SampleOutcome) {
	c.passes++
	c.samples += len(outs)
	for _, o := range outs {
		if o.NK > 0 {
			c.violated++
		}
		if !o.Feasible {
			c.infeasible++
		}
		c.tunings += len(o.Tuned)
		c.truncated += o.Truncated
	}
}

// tracedRowConfig returns hooks that put spans around the layers RunRows
// calls: every insertion Monte Carlo pass runs through Runner.PassRange
// (the Config.Pass hook, which skips the insertion chip cache, so traced
// passes re-realize their samples), and the shared yield pass runs through
// EvalPlans with the same in-process evaluation RunRows would do. Rows are
// byte-identical either way; the digest check across passes proves it.
func tracedRowConfig(rc *expt.RowConfig, b *expt.Bench, runner *insertion.Runner, tr *tracer, parent int, c *insertCounts) (finish func()) {
	runSpan := -1
	runStart := time.Time{}
	closeRun := func() {
		if runSpan >= 0 {
			tr.end(runSpan)
			c.runS += time.Since(runStart).Seconds()
			runSpan = -1
		}
	}
	rc.Pass = func(cfg insertion.Config) insertion.PassFunc {
		// RunRows builds one executor per row right before insertion.Run,
		// so the run span lasts until the next row or the yield pass.
		closeRun()
		runStart = time.Now()
		runSpan = tr.begin("insertion.run", parent, -1)
		span := runSpan
		return func(spec insertion.PassSpec) ([]insertion.SampleOutcome, error) {
			t0 := time.Now()
			id := tr.begin("insertion.pass_"+string(spec.Kind), span, -1)
			outs, err := runner.PassRange(context.Background(), cfg, spec, 0, cfg.Samples)
			tr.end(id)
			if spec.Kind == insertion.PassFloating {
				c.floatingS += time.Since(t0).Seconds()
			} else {
				c.fixedS += time.Since(t0).Seconds()
			}
			c.addOutcomes(outs)
			return outs, err
		}
	}
	rc.EvalPlans = func(plans []insertion.Plan, n int, seed uint64) ([]yield.Report, error) {
		closeRun()
		t0 := time.Now()
		id := tr.begin("yield.eval", parent, -1)
		defer func() {
			tr.end(id)
			c.evalS += time.Since(t0).Seconds()
		}()
		sweeps := make([]*yield.SweepEvaluator, len(plans))
		for i, p := range plans {
			ev, err := yield.NewEvaluator(b.Graph, p.Spec, p.Groups)
			if err != nil {
				return nil, err
			}
			if sweeps[i], err = yield.NewSweepEvaluator(ev, []float64{p.T}); err != nil {
				return nil, err
			}
			c.groups += len(p.Groups)
		}
		c.sweeps += len(sweeps)
		c.chips += n
		c.chipSweeps += n * len(sweeps)
		c.evals = append(c.evals, universe{b.Graph, seed, n})
		var reps []yield.Report
		for _, s := range yield.EvaluateMany(mc.New(b.Graph, seed), n, sweeps...) {
			reps = append(reps, s.At(0))
		}
		return reps, nil
	}
	return closeRun
}

// table1Pass runs the three Table I rows of every bench at insertion seed
// seed (0 = the flow's default, the paper's fixed universe).
func table1Pass(benches []*expt.Bench, runners []*insertion.Runner, seed uint64, tr *tracer, c *insertCounts) ([][]expt.Row, error) {
	out := make([][]expt.Row, len(benches))
	for i, b := range benches {
		rc := expt.RowConfig{InsertSamples: table1InsertSamples, EvalSamples: table1EvalSamples, Seed: seed}
		id := tr.begin("expt.rows", -1, -1)
		finish := func() {}
		if tr != nil {
			finish = tracedRowConfig(&rc, b, runners[i], tr, id, c)
		}
		rows, err := expt.RunRows(b, expt.Targets, rc)
		finish()
		tr.end(id)
		if err != nil {
			return nil, err
		}
		out[i] = rows
	}
	return out, nil
}

// runTable1 times passes over the paper's Table I experiment. The timed
// passes use the flow's fixed insertion seed, as cmd/table1 does: per-sample
// MILP cost is heavy-tailed (the s9234 µT row alone ranged 0.14–1.98 s
// across insertion seeds on a 2-core machine), so a seed-drawn universe
// could not give a steady T(s) within one run. The benchmark seed draws a
// further, untimed pass on its own universe that is checked the same way.
func runTable1(e *env) error {
	var benches []*expt.Bench
	setupPlain, setupTraced, err := e.timeSetups(func() { benches = nil }, func(tr *tracer) (err error) {
		benches, err = prepareBenches(table1Circuits, tr)
		return err
	})
	if err != nil {
		return err
	}
	if e.tracing() {
		if err := e.probePrepare(benches); err != nil {
			return err
		}
		if err := e.probeSampleSolve(benches); err != nil {
			return err
		}
	}
	runners := make([]*insertion.Runner, len(benches))
	for i, b := range benches {
		runners[i] = insertion.NewRunner(b.Graph, b.Placement)
	}

	var first string
	rowTimes := map[string][]float64{}
	var counts insertCounts
	var realizeS float64
	realized := 0
	plain, traced, err := timeLoop(e.dur, e.tracing(), func(i int, isTraced bool) error {
		tr := e.traceFor(isTraced)
		rows, err := table1Pass(benches, runners, 0, tr, &counts)
		if err != nil {
			return err
		}
		var all []table1Row
		for bi, b := range benches {
			rs := rowsOf(b.Name, rows[bi])
			checkRows(e.rep, rs)
			all = append(all, rs...)
			if !isTraced {
				for _, r := range rows[bi] {
					key := fmt.Sprintf("expt.row_s.%s.%d", b.Name, int(r.Target))
					rowTimes[key] = append(rowTimes[key], r.Runtime.Seconds())
				}
			}
		}
		d := digestOf(all)
		if i == 0 {
			first = d
			e.rep.digestJSON(all)
		}
		e.rep.check(d == first, "pass %d: Table I rows differ from pass 0", i)
		if isTraced {
			e.tracedPasses++
			for _, u := range counts.evals {
				realizeS += realizeSeconds(u.g, u.seed, u.n)
				realized += u.n
			}
			counts.evals = nil
		}
		return nil
	})
	if err != nil {
		return err
	}

	// The seeded pass: a Table I universe drawn from the benchmark seed.
	t0 := time.Now()
	seeded, err := table1Pass(benches, runners, mix(e.seed, 1), nil, nil)
	if err != nil {
		return err
	}
	seededS := time.Since(t0).Seconds()
	for bi, b := range benches {
		rs := rowsOf(b.Name, seeded[bi])
		checkRows(e.rep, rs)
		e.rep.digestJSON(rs)
	}

	e.rep.addNamed("table1_s", "s", median(plain.wall), len(plain.wall), "one pass over all 6 rows")
	e.rep.addNamed("table1_seeded_s", "s", seededS, 1, "untimed check pass on the seed's universe; not gated")
	if e.tracing() {
		n := float64(max(1, e.tracedPasses))
		l := e.layers
		np := e.tracedPasses
		l.set("insertion.run_s", counts.runS/n, np)
		l.set("insertion.pass_floating_s", counts.floatingS/n, np)
		l.set("insertion.pass_fixed_s", counts.fixedS/n, np)
		l.set("insertion.reduce_s", (counts.runS-counts.floatingS-counts.fixedS)/n, np)
		l.set("insertion.passes", float64(counts.passes)/n, np)
		l.set("insertion.violated_ratio", float64(counts.violated)/float64(max(1, counts.samples)), counts.samples)
		l.set("insertion.infeasible", float64(counts.infeasible)/n, np)
		l.set("insertion.tunings", float64(counts.tunings)/n, np)
		l.set("insertion.truncated", float64(counts.truncated)/n, np)
		for key, ts := range rowTimes {
			l.set(key, median(ts), len(ts))
		}
		l.set("mc.chips_realized", float64(counts.chips)/n, np)
		l.set("mc.realize_us_per_chip", realizeS/float64(max(1, realized))*1e6, realized)
		l.set("yield.eval_s", counts.evalS/n, np)
		l.set("yield.tally_self_s", (counts.evalS-realizeS)/n, np)
		l.set("yield.sweeps", float64(counts.sweeps)/n, np)
		l.set("yield.groups_per_sweep", float64(counts.groups)/float64(max(1, counts.sweeps)), counts.sweeps)
		l.set("yield.chip_sweeps", float64(counts.chipSweeps)/n, np)
		e.finishOverhead(setupPlain, setupTraced, plain, traced)
	}
	e.finishE2E(setupPlain, plain)
	return nil
}

// probeSampleSolve times insertion.SampleBench.Solve — one step-1 plus
// step-2 per-sample MILP pair on a representative violating chip — for
// every bench and Table I target, and records the mean per-call time.
func (e *env) probeSampleSolve(benches []*expt.Bench) error {
	var perCall []float64
	for _, b := range benches {
		for _, t := range expt.Targets {
			us, err := sampleSolveUS(b, b.PeriodFor(t), table1InsertSamples)
			if err != nil {
				return err
			}
			perCall = append(perCall, us)
		}
	}
	e.layers.set("milp.sample_solve_us", mean(perCall), len(perCall))
	return nil
}

// sampleSolveUS returns the median time of one SampleBench.Solve call over
// at least 20 calls and 100 ms.
func sampleSolveUS(b *expt.Bench, T float64, samples int) (float64, error) {
	sb, err := insertion.NewSampleBench(b.Graph, insertion.Config{T: T, Samples: samples})
	if err != nil {
		return 0, fmt.Errorf("sample bench %s@%.1f: %w", b.Name, T, err)
	}
	var ts []float64
	start := time.Now()
	for len(ts) < 20 || time.Since(start) < 100*time.Millisecond {
		t0 := time.Now()
		sb.Solve()
		ts = append(ts, time.Since(t0).Seconds()*1e6)
	}
	return median(ts), nil
}
