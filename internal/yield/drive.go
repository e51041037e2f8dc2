package yield

import (
	"context"
	"fmt"

	"repro/internal/mc"
	"repro/internal/timing"
)

// This file is the one yield-evaluation loop. Every front door — the
// /v1/yield handler, the CLIs, the Table I rows — answers a sweep batch by
// handing Drive a wave-tally function: the in-process backend (Local) or
// the sharded one (internal/serve's coordinator), which tiles each wave
// over a worker pool and merges the partials. The backend only realizes and tallies
// chips; what to realize, how to check it, and how to fold it into
// reports is decided here, once.

// WaveFunc tallies chips [lo, hi) of one evaluation universe for every
// sweep of a batch, in sweep order: joint tallies (TallyRange), or step-1
// tallies only (TallyRangeZero) when zeroOnly is set. strata selects the
// universe — 0 the plain one every fixed-n result is measured on, > 0 the
// stratified adaptive one (mc.Engine.Stratify). A WaveFunc must stop
// promptly once ctx ends and then return an error, never partial tallies.
type WaveFunc func(ctx context.Context, lo, hi int, zeroOnly bool, strata int) ([]SweepTally, error)

// Result is the answer to one sweep batch: Reports (one per sweep) for a
// fixed-n evaluation, Adaptive (one per sweep) under an active Precision.
type Result struct {
	Reports  []SweepReport
	Adaptive []AdaptiveReport
}

// Drive evaluates the sweeps over at most n chips through wave. With prec
// inactive it runs one joint wave over [0, n) of the plain universe and
// folds each sweep's tally with ReportOf; with prec active it runs the
// Adaptive schedule (n is then the sample cap). Every wave is checked with
// CheckWave before it is folded, and ctx is consulted between waves.
func Drive(ctx context.Context, wave WaveFunc, n int, prec Precision, sweeps ...*SweepEvaluator) (Result, error) {
	if !prec.Active() {
		ts, err := runWave(ctx, wave, 0, n, false, 0, sweeps)
		if err != nil {
			return Result{}, err
		}
		reps := make([]SweepReport, len(sweeps))
		for i, sw := range sweeps {
			reps[i] = sw.ReportOf(ts[i])
		}
		return Result{Reports: reps}, nil
	}
	a, err := NewAdaptive(prec, n, sweeps...)
	if err != nil {
		return Result{}, err
	}
	for lo, hi, zeroOnly, ok := a.Next(); ok; lo, hi, zeroOnly, ok = a.Next() {
		ts, err := runWave(ctx, wave, lo, hi, zeroOnly, a.Prec.Strata, sweeps)
		if err != nil {
			return Result{}, err
		}
		if err := a.Absorb(ts); err != nil {
			return Result{}, err
		}
	}
	return Result{Adaptive: a.Reports()}, nil
}

// runWave runs and checks one wave.
func runWave(ctx context.Context, wave WaveFunc, lo, hi int, zeroOnly bool, strata int, sweeps []*SweepEvaluator) ([]SweepTally, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ts, err := wave(ctx, lo, hi, zeroOnly, strata)
	if err != nil {
		return nil, err
	}
	if err := CheckWave(ts, hi-lo, zeroOnly, sweeps); err != nil {
		return nil, err
	}
	return ts, nil
}

// CheckWave verifies that ts is a complete partial of one wave over chips
// of the sweeps: one tally per sweep, a FirstZero histogram of len(Ts)+1
// bins, a FirstTuned histogram of the same size for a joint wave and none
// for a zero-only one, no negative bin, and exactly chips chips in every
// histogram. Adaptive.Absorb applies it to whole waves and the sharded
// coordinator to every range before it is committed, so a malformed or
// miscounted partial is rejected before it can merge.
func CheckWave(ts []SweepTally, chips int, zeroOnly bool, sweeps []*SweepEvaluator) error {
	if len(ts) != len(sweeps) {
		return fmt.Errorf("yield: wave returned %d tallies for %d sweeps", len(ts), len(sweeps))
	}
	for i, t := range ts {
		bins := len(sweeps[i].Ts) + 1
		tunedBins := bins
		if zeroOnly {
			tunedBins = 0
		}
		if len(t.FirstZero) != bins || len(t.FirstTuned) != tunedBins {
			return fmt.Errorf("yield: wave tally %d has %d/%d zero/tuned bins, want %d/%d",
				i, len(t.FirstZero), len(t.FirstTuned), bins, tunedBins)
		}
		for _, h := range [][]int{t.FirstZero, t.FirstTuned} {
			if h == nil {
				continue
			}
			n := 0
			for _, c := range h {
				if c < 0 {
					return fmt.Errorf("yield: wave tally %d has a negative bin", i)
				}
				n += c
			}
			if n != chips {
				return fmt.Errorf("yield: wave tally %d covers %d chips, want %d", i, n, chips)
			}
		}
	}
	return nil
}

// NewWave returns the empty merge accumulators of one wave, shaped as
// CheckWave expects: SweepTally.Merge of checked range partials into them
// yields the wave's tallies.
func NewWave(zeroOnly bool, sweeps []*SweepEvaluator) []SweepTally {
	out := make([]SweepTally, len(sweeps))
	for i, sw := range sweeps {
		out[i] = sw.NewTally()
		if zeroOnly {
			out[i].FirstTuned = nil
		}
	}
	return out
}

// Local returns the in-process wave backend over src, the plain chip
// universe of the batch (an mc.Engine, or a Population replaying one).
// Each wave is one shared realization pass — TallyRange, or TallyRangeZero
// for a zero-only wave — guarded by ctx: once it ends, the remaining chips
// are skipped and the wave returns ctx's error. A stratified wave streams
// from a copy of the engine with Stratify set, so it needs src to be an
// *mc.Engine.
func Local(src mc.Source, sweeps ...*SweepEvaluator) WaveFunc {
	return func(ctx context.Context, lo, hi int, zeroOnly bool, strata int) ([]SweepTally, error) {
		s := src
		if strata != 0 {
			eng, ok := src.(*mc.Engine)
			if !ok {
				return nil, fmt.Errorf("yield: a stratified wave needs an mc.Engine source, have %T", src)
			}
			st := *eng
			st.Stratify = strata
			s = &st
		}
		if ctx.Done() != nil {
			s = ctxSource{ctx: ctx, src: s}
		}
		var ts []SweepTally
		if zeroOnly {
			ts = TallyRangeZero(s, lo, hi, sweeps...)
		} else {
			ts = TallyRange(s, lo, hi, sweeps...)
		}
		if err := ctx.Err(); err != nil {
			return nil, err // chips after the cancellation point never ran
		}
		return ts, nil
	}
}

// ctxSource threads cancellation into an mc.Source pass: once ctx ends,
// the remaining samples skip their realization/consumer work (the dominant
// cost) so the pass returns promptly. Its output is garbage once ctx has
// ended, which is why Local discards it then.
type ctxSource struct {
	ctx context.Context
	src mc.Source
}

func (s ctxSource) ForEachBatch(n int, fns ...func(k int, ch *timing.Chip)) {
	s.ForEachRangeBatch(0, n, fns...)
}

func (s ctxSource) ForEachRangeBatch(lo, hi int, fns ...func(k int, ch *timing.Chip)) {
	guarded := make([]func(k int, ch *timing.Chip), len(fns))
	for i, fn := range fns {
		guarded[i] = func(k int, ch *timing.Chip) {
			if s.ctx.Err() != nil {
				return
			}
			fn(k, ch)
		}
	}
	s.src.ForEachRangeBatch(lo, hi, guarded...)
}
