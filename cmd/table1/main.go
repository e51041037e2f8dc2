// Command table1 regenerates the paper's Table I: for each benchmark
// circuit and each clock-period target (µT, µT+σT, µT+2σT) it runs the
// sampling-based insertion flow and reports the buffer count Nb, average
// range Ab, yields Yo/Y/Yi and the flow runtime.
//
// The paper uses 10 000 insertion samples; the default here is 1000 for a
// laptop-scale run — pass -samples 10000 to match the paper exactly.
//
// With -server the preparation, insertion, and yield measurement run in a
// bufinsd daemon, so regenerating the table over an already-warm cache
// skips the per-circuit SSTA; the reported numbers are identical (the
// runtime column then measures the daemon-side flow time). To shard the
// Monte Carlo sample loops across machines, point -server at a bufinsd
// started with -workers: that daemon is the one coordinator of shard
// workers, and the rows stay byte-identical.
//
// Usage:
//
//	table1                         # all 8 circuits, moderate samples
//	table1 -circuits s9234,s13207 -samples 10000
//	table1 -csv > table1.csv
//	table1 -server http://127.0.0.1:8077
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/serve"
	"repro/internal/tabular"
	"repro/internal/yield"
)

// fatalf is the single failure path: message to stderr, non-zero exit, so
// scripts can trust the exit code.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "table1: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		circuits = flag.String("circuits", "", "comma-separated benchmark names (default: all 8)")
		samples  = flag.Int("samples", 1000, "insertion Monte Carlo samples (paper: 10000)")
		evalN    = flag.Int("eval", 4000, "fresh chips per yield measurement")
		seed     = flag.Uint64("seed", 0xF00D, "insertion seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of the aligned table")
		eps      = flag.Float64("eps", 0, "adaptive yield precision: stop sampling once every row's yield is known to ±eps (0 = exact -eval chips)")
		conf     = flag.Float64("conf", 0, "adaptive confidence level (0 = 0.95; only with -eps)")
		server   = flag.String("server", "", "bufinsd base URL: run the flow in the daemon instead of in-process (a -workers daemon shards it)")
	)
	flag.Parse()

	names := make([]string, 0, len(gen.Presets))
	if *circuits == "" {
		for _, p := range gen.Presets {
			names = append(names, p.Name)
		}
	} else {
		for _, n := range strings.Split(*circuits, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}

	// ctx covers the whole table: ^C aborts the in-process yield pass, or
	// hangs up on the daemon, whose request context then releases its
	// in-flight work.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tb := tabular.New("Circuit", "ns", "ng", "target", "T(ps)", "Nb", "Ab", "Yo(%)", "Y(%)", "Yi(%)", "T(s)")
	tb.SetTitle(fmt.Sprintf("Table I reproduction (%d insertion samples, %d eval chips)", *samples, *evalN))
	grand := time.Now()
	rc := expt.RowConfig{
		InsertSamples: *samples,
		EvalSamples:   *evalN,
		Seed:          *seed,
		Eps:           *eps,
		Conf:          *conf,
	}
	for _, name := range names {
		var rows []expt.Row
		var err error
		if *server != "" {
			rows, err = serverRows(ctx, *server, serve.CircuitSpec{Preset: name}, expt.Options{}, rc)
		} else {
			rows, err = localRows(ctx, name, rc)
		}
		if err != nil {
			fatalf("%v", err)
		}
		for _, row := range rows {
			tb.AddRowf(row.Circuit, row.NS, row.NG, row.Target.String(),
				fmt.Sprintf("%.1f", row.T), row.Nb, row.Ab,
				row.Yo, row.Y, row.Yi, fmt.Sprintf("%.2f", row.Runtime.Seconds()))
			fmt.Fprintf(os.Stderr, "  %-10s Nb=%-3d Ab=%-6.2f Yi=%+6.2f  (%.1fs)\n",
				row.Target, row.Nb, row.Ab, row.Yi, row.Runtime.Seconds())
		}
		if len(rows) > 0 && rows[0].Adaptive != nil {
			// The three targets share one wave loop, so the counts are per
			// circuit, read off any row.
			rep := rows[0].Adaptive
			fmt.Fprintf(os.Stderr, "  adaptive: ±%g @ %.0f%% used %d/%d chips in %d waves (met=%v)\n",
				rep.Eps, rep.Conf*100, rep.SamplesUsed, *evalN, rep.Waves, rep.Met)
		}
	}
	if *csv {
		fmt.Print(tb.CSV())
	} else {
		fmt.Println(tb)
	}
	fmt.Fprintf(os.Stderr, "total wall time: %v\n", time.Since(grand))
}

// localRows prepares the bench in-process and runs the shared-evaluation
// row batch.
func localRows(ctx context.Context, name string, rc expt.RowConfig) ([]expt.Row, error) {
	b, err := expt.PreparePreset(name, expt.Options{})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: µT=%.1f σT=%.1f (hold-viol rate %.4f)\n",
		name, b.Period.Mu, b.Period.Sigma, b.Period.HoldViolRate)
	// One shared evaluation pass measures all three targets' yields: the
	// fresh-chip population is realized once per circuit.
	return expt.RunRowsContext(ctx, b, expt.Targets, rc)
}

// serverRows reproduces the same rows through the bufinsd daemon at base:
// one prepare, one insert per target, and a single batched yield request —
// the daemon realizes the evaluation population once per circuit, exactly
// like the in-process shared pass, and its results fold into the rows
// through the same expt.FoldYields. Every request is bound to ctx.
func serverRows(ctx context.Context, base string, spec serve.CircuitSpec, opt expt.Options, rc expt.RowConfig) ([]expt.Row, error) {
	cl := serve.NewClient(base).WithContext(ctx)
	prep, err := cl.Prepare(serve.PrepareRequest{Circuit: spec, Options: opt})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: µT=%.1f σT=%.1f (hold-viol rate %.4f)\n",
		prep.Name, prep.Mu, prep.Sigma, prep.HoldViolRate)
	rows := make([]expt.Row, len(expt.Targets))
	yreq := serve.YieldRequest{
		Circuit: spec, Options: opt,
		EvalSamples: rc.EvalSamples, Seed: rc.Seed + 0x1000,
		Eps: rc.Eps, Conf: rc.Conf,
	}
	for i, target := range expt.Targets {
		k := float64(target)
		ins, err := cl.Insert(serve.InsertRequest{
			Circuit: spec, Options: opt,
			TargetK: &k, Samples: rc.InsertSamples, Seed: rc.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("insert %s@%v: %w", prep.Name, target, err)
		}
		rows[i] = expt.Row{
			Circuit: prep.Name,
			NS:      prep.NS,
			NG:      prep.NG,
			Target:  target,
			T:       ins.T,
			Nb:      ins.Nb,
			Ab:      ins.Ab,
			Runtime: time.Duration(ins.ElapsedMS) * time.Millisecond,
		}
		yreq.Queries = append(yreq.Queries, serve.YieldQuery{Plan: ins.Plan})
	}
	yld, err := cl.Yield(yreq)
	if err != nil {
		return nil, fmt.Errorf("yield %s: %w", prep.Name, err)
	}
	var res yield.Result
	for _, r := range yld.Results {
		res.Reports = append(res.Reports, r.Reports...)
		res.Adaptive = append(res.Adaptive, r.Adaptive...)
	}
	if err := expt.FoldYields(rows, res); err != nil {
		return nil, fmt.Errorf("yield %s: %w", prep.Name, err)
	}
	return rows, nil
}
