package yield

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/mc"
)

// evalAdaptive runs the adaptive driver on the in-process backend over eng.
func evalAdaptive(eng *mc.Engine, n int, prec Precision, sweeps ...*SweepEvaluator) ([]AdaptiveReport, error) {
	res, err := Drive(context.Background(), Local(eng, sweeps...), n, prec, sweeps...)
	return res.Adaptive, err
}

// TestAdaptiveEarlyStopAtEasyPoint is the acceptance criterion of the
// adaptive loop: at an easy period (µ+3σ, yield ≈ 1) with eps=0.005 and
// conf=0.95, the rule must stop within 1/10 of the nominal fixed-n budget,
// and every reported interval must contain the corresponding fixed-n
// estimate.
func TestAdaptiveEarlyStopAtEasyPoint(t *testing.T) {
	ev, g, Ts, _ := sweepFixture(t)
	easy := []float64{Ts[len(Ts)-1] + 1} // beyond µ+3σ: the easy point
	const n, seed = 40000, 515
	prec := Precision{Eps: 0.005, Conf: 0.95}
	sw, err := NewSweepEvaluator(ev, easy)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := evalAdaptive(mc.New(g, seed), n, prec, sw)
	if err != nil {
		t.Fatal(err)
	}
	rep := reps[0]
	if !rep.Met {
		t.Fatalf("stopping rule exhausted the cap: %+v", rep)
	}
	if rep.SamplesUsed > n/10 {
		t.Fatalf("adaptive used %d samples, want ≤ %d (1/10 of nominal %d)", rep.SamplesUsed, n/10, n)
	}
	if rep.Waves < 2 {
		t.Fatalf("expected multiple waves, got %d", rep.Waves)
	}
	// The returned intervals must contain the fixed-n estimates (computed
	// on the plain universe at the same seed — adaptive stratifies, so the
	// universes differ; both target the same true yield).
	fixed, err := EvaluateSweep(ev, mc.New(g, seed), n, easy)
	if err != nil {
		t.Fatal(err)
	}
	for i := range easy {
		o, tn := rep.Original[i], rep.Tuned[i]
		if o.HalfWidth > prec.Eps || tn.HalfWidth > prec.Eps {
			t.Fatalf("point %d: met report wider than eps: orig %v tuned %v", i, o.HalfWidth, tn.HalfWidth)
		}
		if d := math.Abs(o.Estimate - fixed.Original[i].Rate()); d > o.HalfWidth {
			t.Errorf("point %d: fixed-n original %v outside adaptive %v ± %v", i, fixed.Original[i].Rate(), o.Estimate, o.HalfWidth)
		}
		if d := math.Abs(tn.Estimate - fixed.Tuned[i].Rate()); d > tn.HalfWidth {
			t.Errorf("point %d: fixed-n tuned %v outside adaptive %v ± %v", i, fixed.Tuned[i].Rate(), tn.Estimate, tn.HalfWidth)
		}
	}
}

// TestAdaptiveDeterministicAcrossWorkers: the adaptive loop's entire
// output — schedule, samples used, every estimate — must be identical for
// any worker count, like every other evaluation path.
func TestAdaptiveDeterministicAcrossWorkers(t *testing.T) {
	ev, g, Ts, _ := sweepFixture(t)
	prec := Precision{Eps: 0.02, Conf: 0.9}
	sw, err := NewSweepEvaluator(ev, Ts[5:8])
	if err != nil {
		t.Fatal(err)
	}
	mkEng := func(workers int) *mc.Engine {
		e := mc.New(g, 616)
		e.Workers = workers
		return e
	}
	ref, err := evalAdaptive(mkEng(1), 20000, prec, sw)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := evalAdaptive(mkEng(workers), 20000, prec, sw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: adaptive reports diverge:\n got %+v\nwant %+v", workers, got, ref)
		}
	}
}

// TestAdaptiveShardedWavesMatchInProcess pins the coordinator contract at
// the yield layer: driving the same Adaptive machine with every wave split
// into uneven sub-ranges — tallied by independent engines and merged, as
// the sharded dispatch does across workers — must reproduce the in-process
// reports exactly, including the wave schedule itself.
func TestAdaptiveShardedWavesMatchInProcess(t *testing.T) {
	ev, g, Ts, _ := sweepFixture(t)
	prec := Precision{Eps: 0.02, Conf: 0.9}
	const n, seed = 20000, 616
	mkSweeps := func() []*SweepEvaluator {
		s1, err := NewSweepEvaluator(ev, Ts[5:8])
		if err != nil {
			t.Fatal(err)
		}
		s2, err := NewSweepEvaluator(ev, Ts[2:4])
		if err != nil {
			t.Fatal(err)
		}
		return []*SweepEvaluator{s1, s2}
	}
	inproc := mkSweeps()
	want, err := evalAdaptive(mc.New(g, seed), n, prec, inproc...)
	if err != nil {
		t.Fatal(err)
	}

	// Every wave is split unevenly; each part is tallied by a fresh engine,
	// as a remote worker would, and the checked parts merge into the wave.
	sweeps := mkSweeps()
	split := func(ctx context.Context, lo, hi int, zeroOnly bool, strata int) ([]SweepTally, error) {
		merged := NewWave(zeroOnly, sweeps)
		cuts := []int{lo, lo + (hi-lo)/3, lo + (hi-lo)/2, hi}
		for c := 0; c+1 < len(cuts); c++ {
			part, err := Local(mc.New(g, seed), sweeps...)(ctx, cuts[c], cuts[c+1], zeroOnly, strata)
			if err != nil {
				return nil, err
			}
			if err := CheckWave(part, cuts[c+1]-cuts[c], zeroOnly, sweeps); err != nil {
				return nil, err
			}
			for i := range merged {
				if err := merged[i].Merge(part[i]); err != nil {
					return nil, err
				}
			}
		}
		return merged, nil
	}
	res, err := Drive(context.Background(), split, n, prec, sweeps...)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Adaptive; !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded adaptive reports diverge:\n got %+v\nwant %+v", got, want)
	}
}

// TestAdaptiveValidation pins parameter and wave-shape errors.
func TestAdaptiveValidation(t *testing.T) {
	ev, _, Ts, _ := sweepFixture(t)
	sw, err := NewSweepEvaluator(ev, Ts[:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, prec := range []Precision{
		{Eps: 0},
		{Eps: 0.6},
		{Eps: 0.01, Conf: 0.3},
		{Eps: 0.01, Conf: 1},
	} {
		if _, err := NewAdaptive(prec, 1000, sw); err == nil {
			t.Errorf("Precision %+v accepted, want error", prec)
		}
	}
	if _, err := NewAdaptive(Precision{Eps: 0.01}, 0, sw); err == nil {
		t.Error("zero sample cap accepted")
	}
	if _, err := NewAdaptive(Precision{Eps: 0.01}, 1000); err == nil {
		t.Error("no sweeps accepted")
	}

	a, err := NewAdaptive(Precision{Eps: 0.01}, 1000, sw)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Absorb(nil); err == nil {
		t.Error("Absorb without pending wave accepted")
	}
	lo, hi, zeroOnly, ok := a.Next()
	if !ok || zeroOnly {
		t.Fatalf("first wave must be joint: lo=%d hi=%d zeroOnly=%v ok=%v", lo, hi, zeroOnly, ok)
	}
	if err := a.Absorb([]SweepTally{{FirstZero: []int{1}, FirstTuned: []int{1}}}); err == nil {
		t.Error("mis-shaped wave tally accepted")
	}
	if err := a.Absorb([]SweepTally{sw.NewTally()}); err == nil {
		t.Error("wave tally with wrong chip count accepted")
	}
}

// TestAdaptiveStrataFallback: a cap smaller than one stratification cycle
// silently disables stratification instead of failing.
func TestAdaptiveStrataFallback(t *testing.T) {
	ev, _, Ts, _ := sweepFixture(t)
	sw, err := NewSweepEvaluator(ev, Ts[:1])
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdaptive(Precision{Eps: 0.4, Strata: 64}, 20, sw)
	if err != nil {
		t.Fatal(err)
	}
	if a.Prec.Strata != 0 {
		t.Fatalf("Strata not cleared on tiny cap: %d", a.Prec.Strata)
	}
}

// TestCheckWaveRejectsMiscounts: a partial whose histograms cover a chip
// more (or less) than its range, or carry a negative bin, is rejected —
// shape alone is not enough to merge.
func TestCheckWaveRejectsMiscounts(t *testing.T) {
	ev, g, Ts, _ := sweepFixture(t)
	sw, err := NewSweepEvaluator(ev, Ts[:3])
	if err != nil {
		t.Fatal(err)
	}
	sweeps := []*SweepEvaluator{sw}
	good := TallyRange(mc.New(g, 3), 10, 50, sw)
	if err := CheckWave(good, 40, false, sweeps); err != nil {
		t.Fatalf("honest wave rejected: %v", err)
	}
	zero := TallyRangeZero(mc.New(g, 3), 10, 50, sw)
	if err := CheckWave(zero, 40, true, sweeps); err != nil {
		t.Fatalf("honest zero-only wave rejected: %v", err)
	}
	clone := func(ts []SweepTally) []SweepTally {
		out := make([]SweepTally, len(ts))
		for i, t := range ts {
			out[i].FirstZero = append([]int(nil), t.FirstZero...)
			if t.FirstTuned != nil {
				out[i].FirstTuned = append([]int(nil), t.FirstTuned...)
			}
		}
		return out
	}
	for name, mutate := range map[string]func([]SweepTally){
		"extra chip":   func(ts []SweepTally) { ts[0].FirstZero[0]++; ts[0].FirstTuned[0]++ },
		"tuned only":   func(ts []SweepTally) { ts[0].FirstTuned[1]++ },
		"negative bin": func(ts []SweepTally) { ts[0].FirstZero[0] -= 41; ts[0].FirstZero[1] += 41 },
		"short":        func(ts []SweepTally) { ts[0].FirstZero = ts[0].FirstZero[:2] },
		"zero-only":    func(ts []SweepTally) { ts[0].FirstTuned = nil },
	} {
		bad := clone(good)
		mutate(bad)
		if err := CheckWave(bad, 40, false, sweeps); err == nil {
			t.Errorf("%s: miscounted wave accepted", name)
		}
	}
	if err := CheckWave(good, 40, true, sweeps); err == nil {
		t.Error("joint tallies accepted for a zero-only wave")
	}
}

// TestDriveHonorsCancellation: both the fixed and the adaptive driver
// return the context's error for a cancelled request instead of reports.
func TestDriveHonorsCancellation(t *testing.T) {
	ev, g, Ts, _ := sweepFixture(t)
	sw, err := NewSweepEvaluator(ev, Ts[:3])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, prec := range []Precision{{}, {Eps: 0.01}} {
		res, err := Drive(ctx, Local(mc.New(g, 8), sw), 4000, prec, sw)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("eps=%v: err = %v, want context.Canceled", prec.Eps, err)
		}
		if res.Reports != nil || res.Adaptive != nil {
			t.Fatalf("eps=%v: cancelled drive returned reports", prec.Eps)
		}
	}
}
