package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/serve"
)

// tinyBench prepares a generated circuit the way expt.Prepare would but at
// test scale (the Table I presets cost seconds of SSTA each).
func tinyBench(t *testing.T) (*expt.Bench, serve.CircuitSpec, expt.Options) {
	t.Helper()
	spec := serve.CircuitSpec{Gen: &gen.Config{NumFFs: 18, NumGates: 80, Seed: 21}}
	opt := expt.Options{PeriodSamples: 400}
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := expt.Prepare(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	return b, spec, opt
}

// TestShardedRowsByteIdentical drives the sharded route of the CLI —
// serverRows against a bufinsd coordinator over two worker daemons with
// uneven 7-range splits — and demands the rows match the in-process run
// on every reported field. Runtime is wall clock (the one column that
// legitimately differs between schedules) and Insert holds
// in-process-only diagnostics; everything the table and CSV print besides
// runtime comes from the compared fields.
func TestShardedRowsByteIdentical(t *testing.T) {
	requireShardedRowsIdentical(t, expt.RowConfig{InsertSamples: 130, EvalSamples: 300, Seed: 5})
}

// TestShardedRowsAdaptiveByteIdentical is the -server -eps route through
// the coordinator: the adaptive wave schedule and every estimate match the
// in-process rows.
func TestShardedRowsAdaptiveByteIdentical(t *testing.T) {
	requireShardedRowsIdentical(t, expt.RowConfig{InsertSamples: 130, EvalSamples: 2000, Seed: 5, Eps: 0.05, Conf: 0.9})
}

func requireShardedRowsIdentical(t *testing.T, rc expt.RowConfig) {
	t.Helper()
	b, spec, opt := tinyBench(t)
	want, err := expt.RunRows(b, expt.Targets, rc)
	if err != nil {
		t.Fatal(err)
	}

	var workers []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
		t.Cleanup(ts.Close)
		workers = append(workers, ts.URL)
	}
	coord := serve.New(serve.Config{Workers: workers, Shards: 7})
	cs := httptest.NewServer(coord.Handler())
	t.Cleanup(cs.Close)
	got, err := serverRows(context.Background(), cs.URL, spec, opt, rc)
	if err != nil {
		t.Fatal(err)
	}

	if coord.Pool().C.Dispatched.Load() == 0 {
		t.Fatal("no ranges were dispatched to the workers")
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		w.Runtime, g.Runtime = 0, 0
		w.Insert, g.Insert = nil, nil
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("row %d diverges:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestServerRowsHonorsCancellation: a cancelled run context (^C) stops the
// -server route before any request reaches the daemon, with an error that
// wraps context.Canceled.
func TestServerRowsHonorsCancellation(t *testing.T) {
	var prepares atomic.Int64
	h := serve.New(serve.Config{}).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/prepare" {
			prepares.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	_, spec, opt := tinyBench(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := serverRows(ctx, ts.URL, spec, opt, expt.RowConfig{InsertSamples: 130, EvalSamples: 300, Seed: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if n := prepares.Load(); n != 0 {
		t.Fatalf("daemon saw %d prepare requests after cancellation", n)
	}
}
