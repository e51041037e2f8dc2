// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks every output it produces, and prints
// its metrics; the last line of standard output is one JSON object
// ({"correct", "attempted", "failed", "metrics"}). README.md maps each
// per-layer metric to the end-to-end metric and workload it should move.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload table1 --seed 7 --seconds 20 --trace 0
//
// --trace 1 alternates untraced and traced passes on identical inputs: the
// JSON line then carries the per-layer metrics, and the printed report adds
// the tracing overhead and each layer's self time. Spans are written to
// .bench_build/traces/<workload>-<seed>.json when the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// workload is one set of inputs the benchmark runs. why records the reason
// it exists; BENCHMARK.json carries the same line.
type workload struct {
	name string
	why  string
	run  func(e *env) error
}

// workloads are the benchmark's three workloads, each defined in its own
// file with the reasoning behind its inputs.
var workloads = []workload{
	{name: "table1", why: table1Why, run: runTable1},
	{name: "yield_sweep", why: yieldSweepWhy, run: runYieldSweep},
	{name: "serve_sharded", why: serveWhy, run: runServe},
}

// setups is how many times a run sets its workload up; setup_s is the
// median of the untraced ones.
const setups = 11

// env is what a workload run receives: its seed, time budget and tracer,
// and the report it fills.
type env struct {
	seed   uint64
	dur    time.Duration
	tr     *tracer // nil unless --trace 1
	rep    *report
	layers layerValues
	// tracedPasses counts the traced passes the span totals cover.
	tracedPasses int
}

// tracing reports whether this is a traced run.
func (e *env) tracing() bool { return e.tr != nil }

// traceFor returns the tracer for a pass: the run's tracer on traced
// passes, nil otherwise.
func (e *env) traceFor(traced bool) *tracer {
	if traced {
		return e.tr
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs one workload and prints its report; it returns the
// process exit code. A workload that cannot run prints no result line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: table1, yield_sweep or serve_sharded")
	seed := fs.Uint64("seed", 0, "workload seed: every generated input is a function of it (BENCHMARK.json's command sets the default)")
	seconds := fs.Int("seconds", 20, "how long the timed loop runs")
	traceFlag := fs.Int("trace", 0, "1 = alternate traced passes and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1):
		fmt.Fprintln(stderr, "perfbench: need --seconds ≥ 1 and --trace 0 or 1")
		return 2
	}
	declared, err := readLayerMetrics(benchmarkFile)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tracing := *traceFlag == 1
	e := &env{
		seed:   *seed,
		dur:    time.Duration(*seconds) * time.Second,
		rep:    newReport(),
		layers: newLayerValues(),
	}
	if tracing {
		e.tr = newTracer()
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traceFlag)
	fmt.Fprintf(stdout, "# go=%s nproc=%d gomaxprocs=%d commit=%s\n", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit())
	fmt.Fprintf(stdout, "# why: %s\n", w.why)
	if err := w.run(e); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if tracing {
		e.addSelfTimes()
		e.rep.layer = e.layers.stats(declared)
		path := tracePath(w.name, *seed)
		if err := e.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans: %s\n", path)
	}
	e.rep.print(stdout, tracing)
	line, err := json.Marshal(e.rep.result(tracing))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// tracePath is where a traced run of workload at seed writes its spans,
// relative to the checkout root.
func tracePath(workload string, seed uint64) string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.json", workload, seed))
}

// commit returns the VCS revision the binary was built from, when the
// build could stamp one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// finishE2E records the gated end-to-end metrics every workload reports:
// set-up time (median of the run's set-ups), and the median peak resident
// memory, wall time and CPU time of one untraced pass over the workload's
// unit of work.
func (e *env) finishE2E(setup []float64, plain passTimes) {
	e.rep.addE2E("setup_s", "s", median(setup), len(setup))
	e.rep.addE2E("max_rss_mb", "MB", median(plain.peakMB), len(plain.peakMB))
	e.rep.addE2E("pass_s", "s", median(plain.wall), len(plain.wall))
	e.rep.addE2E("pass_cpu_s", "s", median(plain.cpu), len(plain.cpu))
	e.rep.addNamed("failed_ratio", "ratio", float64(e.rep.failed)/float64(max(1, e.rep.attempted)), e.rep.attempted,
		fmt.Sprintf("%d failed of %d checked", e.rep.failed, e.rep.attempted))
}

// finishOverhead records the tracing overhead: each end-to-end time on
// traced passes minus the same on the interleaved untraced passes.
func (e *env) finishOverhead(setupPlain, setupTraced []float64, plain, traced passTimes) {
	e.layers.set("overhead.pass_s", median(traced.wall)-median(plain.wall), len(traced.wall))
	e.layers.set("overhead.pass_cpu_s", median(traced.cpu)-median(plain.cpu), len(traced.cpu))
	e.layers.set("overhead.setup_s", median(setupTraced)-median(setupPlain), len(setupTraced))
}

// addSelfTimes records each layer's self time per traced pass.
func (e *env) addSelfTimes() {
	for layer, s := range e.tr.selfSeconds() {
		e.layers.set("self_s."+layer, s/float64(max(1, e.tracedPasses)), e.tracedPasses)
	}
}
