package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/expt"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/shard"
	"repro/internal/shard/wire"
	"repro/internal/timing"
	"repro/internal/yield"
)

// This file is both halves of the sharded sample loop over the service's
// binary /v1/shard/* surface:
//
//   - the worker half: /v1/shard/insert-pass and /v1/shard/yield-pass
//     handlers that execute one contiguous k-range against the worker's
//     warm prepared-bench LRU and return k-indexed partials;
//   - the coordinator half: coordinator, which tiles a pass (or one yield
//     wave) into ranges, dispatches them over a shard.Pool, checks and
//     merges the partials, and hands the flow and the yield driver an
//     in-process-identical view.
//
// Byte identity rests on two contracts: chip k is deterministic in
// (Seed, k) (mc), and every partial is either k-indexed (insert outcomes)
// or an order-independent integer histogram (yield tallies), so merging is
// pure placement/addition. Worker loss is handled underneath by
// shard.Pool.Run: unacknowledged ranges are re-dispatched to survivors and
// drained in-process when no workers remain.

// ---------------- worker half ----------------

// The shard-pass endpoint paths, shared by route registration and the
// coordinator's dispatch.
const (
	insertPassPath = "/v1/shard/insert-pass"
	yieldPassPath  = "/v1/shard/yield-pass"
)

// insertPass executes one contiguous k-range of an insertion pass.
func (s *Server) insertPass(r *http.Request, req InsertPassRequest) (*InsertPassResponse, error) {
	if req.Samples <= 0 {
		return nil, badRequest("need samples > 0")
	}
	e, _, err := s.getBench(req.Circuit, req.Options)
	if err != nil {
		return nil, err
	}
	//lint:ignore contract:determinism ElapsedMS is latency accounting; the merged outcomes are unaffected
	start := time.Now()
	outcomes, err := e.runner.PassRange(r.Context(), insertion.Config{
		T:               req.T,
		Samples:         req.Samples,
		Seed:            req.Seed,
		Workers:         req.Workers,
		Spec:            req.Spec,
		MaxComponent:    req.MaxComponent,
		NoConcentration: req.NoConcentration,
	}, req.Pass, req.Range.Lo, req.Range.Hi)
	if err != nil {
		if r.Context().Err() != nil {
			// The coordinator hung up (cancelled hedge loser, expired
			// deadline): the response is unread, so the status is moot.
			return nil, err
		}
		return nil, badRequest("insert pass: %v", err)
	}
	return &InsertPassResponse{
		Outcomes: outcomes,
		//lint:ignore contract:determinism ElapsedMS is latency accounting; the merged outcomes are unaffected
		ElapsedMS: time.Since(start).Milliseconds(),
	}, nil
}

// yieldPass tallies one contiguous chip range of a yield sweep batch: one
// wave range of the in-process backend, run against the worker's warm
// bench.
func (s *Server) yieldPass(r *http.Request, req YieldPassRequest) (*YieldPassResponse, error) {
	if req.EvalSamples <= 0 {
		return nil, badRequest("need eval_samples > 0")
	}
	if len(req.Queries) == 0 {
		return nil, badRequest("need at least one query")
	}
	if req.Range.Lo < 0 || req.Range.Hi > req.EvalSamples || req.Range.Lo > req.Range.Hi {
		return nil, badRequest("yield pass range [%d,%d) outside [0,%d)", req.Range.Lo, req.Range.Hi, req.EvalSamples)
	}
	e, _, err := s.getBench(req.Circuit, req.Options)
	if err != nil {
		return nil, err
	}
	sweeps, err := s.sweepsFor(e, req.Queries)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	//lint:ignore contract:determinism ElapsedMS is latency accounting; the merged tallies are unaffected
	start := time.Now()
	// Stream the range from the engine: a worker touches only its slice of
	// the universe, so materializing the full (seed, n) population here
	// would defeat the point of sharding it. The backend's ctx guard lets a
	// cancelled coordinator attempt — including an adaptive tail wave whose
	// precision was met elsewhere — release the worker's CPU mid-range.
	wave := yield.Local(mc.New(e.bench.Graph, req.Seed), sweeps...)
	tallies, err := wave(r.Context(), req.Range.Lo, req.Range.Hi, req.ZeroOnly, req.Strata)
	if err != nil {
		return nil, err // partial tallies must not go on the wire
	}
	return &YieldPassResponse{
		Tallies: tallies,
		//lint:ignore contract:determinism ElapsedMS is latency accounting; the merged tallies are unaffected
		ElapsedMS: time.Since(start).Milliseconds(),
	}, nil
}

// sweepsFor expands a query batch into its sweep evaluators through the
// bench entry's small LRU: one coordinated pass sends the identical batch
// once per range, and the evaluator construction (a hold-side system per
// strategy × query) should be paid once per batch, not once per range. A
// SweepEvaluator is safe to share across concurrent range requests — it is
// read-only after construction and pools its per-worker scratch.
func (s *Server) sweepsFor(e *benchEntry, queries []YieldQuery) ([]*yield.SweepEvaluator, error) {
	data, err := json.Marshal(queries)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	key := string(sum[:])
	e.mu.Lock()
	cached, ok := e.sweeps.get(key)
	e.mu.Unlock()
	if ok {
		return cached.([]*yield.SweepEvaluator), nil
	}
	_, sweeps, err := expandQueries(e.bench.Graph, queries)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.sweeps.put(key, sweeps)
	e.mu.Unlock()
	return sweeps, nil
}

// ---------------- coordinator half ----------------

// coordinator shards the flow's Monte Carlo sample loops over the
// Server's worker pool for one circuit × options: it backs /v1/insert and
// /v1/yield when Config.Workers is set (the in-process local fallback runs
// on the cached bench's own graph and warm runner). Safe for concurrent
// use.
type coordinator struct {
	// pool is the worker registry (never nil; an empty pool runs every
	// range in-process).
	pool *shard.Pool
	// shards is the range count per pass (0 = 4 per registered worker,
	// minimum 1).
	shards int
	// circuit and options identify the prepared bench on the workers.
	circuit CircuitSpec
	options expt.Options

	g      *timing.Graph
	runner *insertion.Runner
}

// coordinator builds the per-request coordinator around a cached bench
// entry (sharing its warm runner for the local fallback).
func (s *Server) coordinator(spec CircuitSpec, opt expt.Options, e *benchEntry) *coordinator {
	return &coordinator{
		pool:    s.pool,
		shards:  s.cfg.Shards,
		circuit: spec,
		options: opt,
		g:       e.bench.Graph,
		runner:  e.runner,
	}
}

// ranges tiles the sub-range [lo, hi) — a full pass, or one adaptive
// dispatch wave — and probes down workers so a restarted worker rejoins at
// the next pass or wave.
func (c *coordinator) ranges(ctx context.Context, lo, hi int) []shard.Range {
	if c.pool.Alive() < c.pool.Size() {
		c.pool.Probe(ctx, "/healthz")
	}
	parts := c.shards
	if parts <= 0 {
		parts = 4 * c.pool.Size()
		if parts < 1 {
			parts = 1
		}
	}
	return shard.SplitRange(lo, hi, parts)
}

// rangeTask is one sharded pass's per-range work over partials of type P.
type rangeTask[P any] struct {
	path string
	// header is the pass request's JSON form with a zero Range, marshaled
	// once per pass and shared by every range's frame.
	header []byte
	// decode unframes a worker's binary response into its partial.
	decode func(data []byte) (P, error)
	// check validates a partial against its range before it is committed.
	check func(p P, r shard.Range) error
	// merge folds a committed partial — a checked worker partial, or an
	// in-process one — into the pass result; calls are serialized.
	merge func(p P, r shard.Range)
	// local computes the range in-process (the fallback).
	local func(ctx context.Context, r shard.Range) (P, error)
}

// run dispatches one pass over ranges through the pool — one post and one
// local path for every kind of pass: a worker's partial is decoded,
// checked, and merged only after its range is committed, so a malformed
// or miscounted partial rejects the attempt as corrupt (Pool.Run retries
// the range elsewhere, and nothing was merged) and a lost hedge race
// discards its duplicate instead of merging it twice.
func (t rangeTask[P]) run(ctx context.Context, pool *shard.Pool, ranges []shard.Range) error {
	var mu sync.Mutex
	merge := func(p P, r shard.Range) {
		mu.Lock()
		defer mu.Unlock()
		t.merge(p, r)
	}
	post := func(ctx context.Context, w *shard.Worker, r shard.Range, commit func() bool) error {
		p, err := t.post(ctx, w, r)
		if err != nil {
			return err
		}
		if err := t.check(p, r); err != nil {
			return shard.Errf(shard.ClassCorrupt, "serve: %s from %s, range [%d,%d): %w", t.path, w.Base, r.Lo, r.Hi, err)
		}
		if !commit() {
			return nil // lost hedge race: the range already merged
		}
		merge(p, r)
		return nil
	}
	local := func(ctx context.Context, r shard.Range) error {
		p, err := t.local(ctx, r)
		if err != nil {
			return err
		}
		merge(p, r)
		return nil
	}
	return pool.Run(ctx, ranges, post, local)
}

// post sends range r's binary frame to w and decodes the response frame.
// A response that fails to decode — truncated mid-frame, version-skewed,
// mangled, or not a binary frame at all — classifies corrupt: the partial
// is discarded and the range retries elsewhere, never merging.
func (t rangeTask[P]) post(ctx context.Context, w *shard.Worker, r shard.Range) (P, error) {
	var zero P
	data, _, err := w.PostBody(ctx, t.path, wire.ContentType, wire.ContentType, appendPassRequest(nil, t.header, r))
	if err != nil {
		return zero, err
	}
	p, err := t.decode(data)
	if err != nil {
		return zero, shard.Errf(shard.ClassCorrupt, "serve: decoding %s frame from %s: %w", t.path, w.Base, err)
	}
	return p, nil
}

// insertPass returns the distributed executor for one flow configuration:
// plug it into insertion.Config.Pass and the flow's step-1/B1/step-2
// passes each fan out over the pool and merge k-indexed outcomes. cfg must
// be the same configuration the flow runs with (before Pass is set). ctx
// bounds every pass the returned func runs: cancelling it releases every
// in-flight worker range and aborts the flow.
func (c *coordinator) insertPass(ctx context.Context, cfg insertion.Config) insertion.PassFunc {
	return func(spec insertion.PassSpec) ([]insertion.SampleOutcome, error) {
		header, err := json.Marshal(InsertPassRequest{
			Circuit:         c.circuit,
			Options:         c.options,
			T:               cfg.T,
			Samples:         cfg.Samples,
			Seed:            cfg.Seed,
			Workers:         cfg.Workers,
			Spec:            cfg.Spec,
			MaxComponent:    cfg.MaxComponent,
			NoConcentration: cfg.NoConcentration,
			Pass:            spec,
		})
		if err != nil {
			return nil, err
		}
		out := make([]insertion.SampleOutcome, cfg.Samples)
		err = rangeTask[[]insertion.SampleOutcome]{
			path:   insertPassPath,
			header: header,
			decode: decodeOutcomes,
			check: func(outs []insertion.SampleOutcome, r shard.Range) error {
				if len(outs) != r.Len() {
					return fmt.Errorf("%d outcomes for %d samples", len(outs), r.Len())
				}
				return nil
			},
			merge: func(outs []insertion.SampleOutcome, r shard.Range) { copy(out[r.Lo:r.Hi], outs) },
			local: func(ctx context.Context, r shard.Range) ([]insertion.SampleOutcome, error) {
				return c.runner.PassRange(ctx, cfg, spec, r.Lo, r.Hi)
			},
		}.run(ctx, c.pool, c.ranges(ctx, 0, cfg.Samples))
		if err != nil {
			return nil, err
		}
		return out, nil
	}
}

// backend returns the sharded yield backend over n chips of universe
// seed: each wave the driver asks for is one Pool.Run over the wave's
// tiled range, every range's tallies are checked against the range
// (yield.CheckWave) before they merge, and the in-process fallback tallies
// a range on the coordinator's own graph. The wave schedule is the
// driver's — a pure function of the merged tallies — so sharded results
// are byte-identical to in-process ones, fixed and adaptive alike.
func (c *coordinator) backend(n int, seed uint64) Backend {
	return func(queries []YieldQuery, sweeps []*yield.SweepEvaluator) yield.WaveFunc {
		local := yield.Local(mc.New(c.g, seed), sweeps...)
		return func(ctx context.Context, lo, hi int, zeroOnly bool, strata int) ([]yield.SweepTally, error) {
			header, err := json.Marshal(YieldPassRequest{
				Circuit:     c.circuit,
				Options:     c.options,
				EvalSamples: n,
				Seed:        seed,
				Queries:     queries,
				ZeroOnly:    zeroOnly,
				Strata:      strata,
			})
			if err != nil {
				return nil, err
			}
			merged := yield.NewWave(zeroOnly, sweeps)
			err = rangeTask[[]yield.SweepTally]{
				path:   yieldPassPath,
				header: header,
				decode: decodeTallies,
				check: func(ts []yield.SweepTally, r shard.Range) error {
					return yield.CheckWave(ts, r.Len(), zeroOnly, sweeps)
				},
				merge: func(ts []yield.SweepTally, _ shard.Range) {
					for i := range merged {
						merged[i].Merge(ts[i]) // shapes checked or built by yield.Local: cannot fail
					}
				},
				local: func(ctx context.Context, r shard.Range) ([]yield.SweepTally, error) {
					return local(ctx, r.Lo, r.Hi, zeroOnly, strata)
				},
			}.run(ctx, c.pool, c.ranges(ctx, lo, hi))
			if err != nil {
				return nil, err
			}
			return merged, nil
		}
	}
}
