package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ckt"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/insertion"
	"repro/internal/serve"
)

// writeTinyBench generates a small circuit and writes it as a .bench file,
// so both backends load the same netlist the way a user would.
func writeTinyBench(t *testing.T) string {
	t.Helper()
	c, err := gen.Generate(gen.Config{Name: "tiny", NumFFs: 16, NumGates: 70, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.bench")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckt.WriteBench(f, c); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func startDaemon(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// requireIdentical runs the same query locally and through the daemon and
// demands byte-identical stdout — the acceptance bar for -server mode.
func requireIdentical(t *testing.T, o options, url string) {
	t.Helper()
	var local, remote bytes.Buffer
	if err := run(o, &local); err != nil {
		t.Fatalf("local run: %v", err)
	}
	o.server = url
	if err := run(o, &remote); err != nil {
		t.Fatalf("server run: %v", err)
	}
	if !bytes.Equal(local.Bytes(), remote.Bytes()) {
		t.Fatalf("server output differs from local output:\n--- local ---\n%s--- server ---\n%s",
			local.String(), remote.String())
	}
	if local.Len() == 0 {
		t.Fatal("empty output")
	}
}

func TestServerModeClassicByteIdentical(t *testing.T) {
	bench := writeTinyBench(t)
	url := startDaemon(t)
	requireIdentical(t, options{bench: bench, samples: 120, evalN: 300, seed: 5}, url)
}

// TestServerModeNoNameComment: a netlist without a "# name" comment falls
// back to the file path as circuit name on both paths (the client passes
// BenchName), so output stays byte-identical.
func TestServerModeNoNameComment(t *testing.T) {
	c, err := gen.Generate(gen.Config{Name: "tiny", NumFFs: 16, NumGates: 70, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	text, err := ckt.BenchString(c)
	if err != nil {
		t.Fatal(err)
	}
	var stripped []string
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "#") {
			stripped = append(stripped, line)
		}
	}
	path := filepath.Join(t.TempDir(), "anon.bench")
	if err := os.WriteFile(path, []byte(strings.Join(stripped, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	url := startDaemon(t)
	requireIdentical(t, options{bench: path, samples: 100, evalN: 200, seed: 5, periods: 1}, url)
}

func TestServerModeSweepByteIdentical(t *testing.T) {
	bench := writeTinyBench(t)
	url := startDaemon(t)
	requireIdentical(t, options{bench: bench, samples: 120, evalN: 300, seed: 5, periods: 4}, url)
}

func TestServerModePlanByteIdentical(t *testing.T) {
	bench := writeTinyBench(t)
	url := startDaemon(t)
	// Build a plan file the way bufins -saveplan would.
	f, err := os.Open(bench)
	if err != nil {
		t.Fatal(err)
	}
	b, err := expt.PrepareBench(f, bench, expt.Options{})
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Insert(b.TargetPeriod(1), insertion.Config{Samples: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan(b.Name)
	planPath := filepath.Join(t.TempDir(), "plan.json")
	pf, err := os.Create(planPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Save(pf); err != nil {
		t.Fatal(err)
	}
	pf.Close()
	requireIdentical(t, options{bench: bench, evalN: 300, seed: 5, planFile: planPath}, url)
}

// requireIdenticalSharded runs the same query in-process and through a
// bufinsd coordinator that shards the sample loops across the worker
// daemons in shards ranges per pass, demanding byte-identical stdout and
// ranges actually dispatched — the acceptance bar for sharded runs.
func requireIdenticalSharded(t *testing.T, o options, workers []string, shards int) {
	t.Helper()
	coord := serve.New(serve.Config{Workers: workers, Shards: shards})
	cs := httptest.NewServer(coord.Handler())
	t.Cleanup(cs.Close)
	requireIdentical(t, o, cs.URL)
	if coord.Pool().C.Dispatched.Load() == 0 {
		t.Fatal("no ranges were dispatched to the workers")
	}
}

// TestWorkersModeClassicByteIdentical: a classic run through a 2-worker
// coordinator — uneven 7-range splits included — reproduces the
// single-process stdout byte for byte.
func TestWorkersModeClassicByteIdentical(t *testing.T) {
	bench := writeTinyBench(t)
	workers := []string{startDaemon(t), startDaemon(t)}
	requireIdenticalSharded(t, options{bench: bench, samples: 120, evalN: 300, seed: 5}, workers, 7)
}

func TestWorkersModeSweepByteIdentical(t *testing.T) {
	bench := writeTinyBench(t)
	workers := []string{startDaemon(t), startDaemon(t)}
	requireIdenticalSharded(t, options{bench: bench, samples: 120, evalN: 300, seed: 5, periods: 4}, workers, 7)
}

// TestAdaptiveEpsZeroMatchesFixed: -eps 0 is the exact fixed-n path — its
// stdout is byte-identical to a run without the flag, on every backend.
func TestAdaptiveEpsZeroMatchesFixed(t *testing.T) {
	bench := writeTinyBench(t)
	fixed := options{bench: bench, samples: 120, evalN: 300, seed: 5}
	var want bytes.Buffer
	if err := run(fixed, &want); err != nil {
		t.Fatal(err)
	}
	zero := fixed
	zero.eps, zero.conf = 0, 0
	var got bytes.Buffer
	if err := run(zero, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("-eps 0 output differs from fixed-n output:\n--- eps 0 ---\n%s--- fixed ---\n%s",
			got.String(), want.String())
	}
	requireIdentical(t, zero, startDaemon(t))
	requireIdenticalSharded(t, zero, []string{startDaemon(t), startDaemon(t)}, 7)
}

// TestAdaptiveByteIdenticalAcrossBackends: the adaptive wave schedule is a
// pure function of the merged tallies, so in-process, plain -server, and
// sharded -server runs print the identical table, samples-used footer included.
func TestAdaptiveByteIdenticalAcrossBackends(t *testing.T) {
	bench := writeTinyBench(t)
	o := options{bench: bench, samples: 120, evalN: 2000, seed: 5, eps: 0.05, conf: 0.9}
	var local bytes.Buffer
	if err := run(o, &local); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(local.String(), "adaptive:") || !strings.Contains(local.String(), "waves") {
		t.Fatalf("adaptive run missing the samples-used footer:\n%s", local.String())
	}
	requireIdentical(t, o, startDaemon(t))
	requireIdenticalSharded(t, o, []string{startDaemon(t), startDaemon(t)}, 7)
}

// TestServerModeHonorsCancellation: a cancelled run context (^C) stops a
// -server run before any request reaches the daemon, with an error that
// wraps context.Canceled.
func TestServerModeHonorsCancellation(t *testing.T) {
	bench := writeTinyBench(t)
	var prepares atomic.Int64
	h := serve.New(serve.Config{}).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/prepare" {
			prepares.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := options{bench: bench, samples: 120, evalN: 300, seed: 5, server: ts.URL, ctx: ctx}
	var out bytes.Buffer
	if err := run(o, &out); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if n := prepares.Load(); n != 0 {
		t.Fatalf("daemon saw %d prepare requests after cancellation", n)
	}
}
