package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/expt"
	"repro/internal/insertion"
	"repro/internal/serve"
	"repro/internal/stat"
	"repro/internal/yield"
)

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMain runs the tests from the checkout root, where the benchmark
// runs: it reads BENCHMARK.json and writes its spans there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runShort runs one workload for one second and returns its stdout, its
// parsed last line and its correctness digest.
func runShort(t *testing.T, workload string, trace string) (string, result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%s trace=%s: exit %d: %s", workload, trace, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	m := regexp.MustCompile(`digest ([0-9a-f]{64})`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("%s: no digest in output", workload)
	}
	return out.String(), res, m[1]
}

// TestWorkloadsReportDeclaredMetrics runs every workload briefly, traced
// and untraced, and requires exactly the metrics BENCHMARK.json declares,
// each with its unit, in the result line and in the printed report; the
// header must name the toolchain, CPU count, GOMAXPROCS and commit. The
// untraced digest must not depend on GOMAXPROCS.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, tc := range []struct {
				trace string
				want  map[string]string
			}{{"0", units(d.EndToEnd)}, {"1", units(d.PerLayer)}} {
				out, res, _ := runShort(t, w.Name, tc.trace)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("trace=%s: correct=%v attempted=%d failed=%d\n%s", tc.trace, res.Correct, res.Attempted, res.Failed, out)
				}
				if len(res.Metrics) != len(tc.want) {
					t.Errorf("trace=%s: %d metrics, want %d", tc.trace, len(res.Metrics), len(tc.want))
				}
				for name, unit := range tc.want {
					got, ok := res.Metrics[name]
					if !ok || got.Unit != unit {
						t.Errorf("trace=%s: metric %s = %+v, want unit %q", tc.trace, name, got, unit)
					}
					if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` +\S+ ` + regexp.QuoteMeta(unit) + ` `).MatchString(out) {
						t.Errorf("trace=%s: report does not print %s with unit %s", tc.trace, name, unit)
					}
				}
				if tc.trace == "1" {
					if _, err := os.Stat(tracePath(w.Name, 3)); err != nil {
						t.Errorf("traced run wrote no spans: %v", err)
					}
				}
				for _, key := range []string{"go=", "nproc=", "gomaxprocs=", "commit="} {
					if !strings.Contains(out, key) {
						t.Errorf("header lacks %s", key)
					}
				}
			}
			_, _, digest := runShort(t, w.Name, "0")
			prev := runtime.GOMAXPROCS(1)
			_, _, digest1 := runShort(t, w.Name, "0")
			runtime.GOMAXPROCS(prev)
			if digest1 != digest {
				t.Errorf("digest under GOMAXPROCS=1 %s differs from GOMAXPROCS=%d %s", digest1, prev, digest)
			}
		})
	}
}

func units(list []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) map[string]string {
	m := map[string]string{}
	for _, x := range list {
		m[x.Name] = x.Unit
	}
	return m
}

// TestCorruptedResultsCountAsFailures feeds each workload's checks one
// corrupted output and requires it counted as failed and the run marked
// incorrect.
func TestCorruptedResultsCountAsFailures(t *testing.T) {
	b, err := expt.PreparePreset(serveCircuit, expt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	T := b.Period.Mu + b.Period.Sigma
	res, err := insertion.Run(b.Graph, b.Placement, insertion.Config{T: T, Samples: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan(b.Name)
	if len(plan.Groups) == 0 {
		t.Fatal("plan has no buffers to corrupt")
	}

	t.Run("table1", func(t *testing.T) {
		good := table1Row{Circuit: b.Name, Target: "muT+sigma", Yo: 80, Y: 99, Plan: plan}
		rep := newReport()
		checkRows(rep, []table1Row{good})
		if rep.failed != 0 {
			t.Fatalf("valid row failed: %v", rep.failures)
		}
		lossy := good
		lossy.Y = lossy.Yo - 1
		broken := good
		broken.Plan.Groups = append([]insertion.Group(nil), plan.Groups...)
		broken.Plan.Groups[0].Lo = broken.Plan.Spec.Step() // window no longer covers 0
		checkRows(rep, []table1Row{lossy, broken})
		if rep.failed != 2 || rep.result(false).Correct {
			t.Errorf("failed=%d correct=%v, want 2 failures and an incorrect run", rep.failed, rep.result(false).Correct)
		}
	})

	t.Run("yield_sweep", func(t *testing.T) {
		rep := yield.SweepReport{
			Ts:       []float64{1, 2, 3},
			Original: []stat.Yield{{Pass: 10, Total: 100}, {Pass: 20, Total: 100}, {Pass: 30, Total: 100}},
			Tuned:    []stat.Yield{{Pass: 50, Total: 100}, {Pass: 60, Total: 100}, {Pass: 70, Total: 100}},
		}
		r := newReport()
		checkSweeps(r, "good", []serve.YieldResult{{Names: []string{"plan"}, Reports: []yield.SweepReport{rep}}})
		if r.failed != 0 {
			t.Fatalf("valid sweep failed: %v", r.failures)
		}
		rep.Tuned = []stat.Yield{{Pass: 50, Total: 100}, {Pass: 40, Total: 100}, {Pass: 70, Total: 100}}
		checkSweeps(r, "bad", []serve.YieldResult{{Names: []string{"plan"}, Reports: []yield.SweepReport{rep}}})
		if r.failed != 1 || r.result(false).Correct {
			t.Errorf("failed=%d correct=%v, want the falling sweep counted", r.failed, r.result(false).Correct)
		}
	})

	t.Run("serve_sharded", func(t *testing.T) {
		k := 1.0
		req := serve.InsertRequest{TargetK: &k, Samples: 200, Seed: 5}
		answer := func(p insertion.Plan) *serveOp {
			return &serveOp{kind: opInsert, insert: req, insResp: &serve.InsertResponse{Plan: p}}
		}
		in := &serveInputs{bench: b, planOf: map[string]string{}}
		r := newReport()
		if err := checkServe(r, in, []*serveOp{answer(plan)}); err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 {
			t.Fatalf("faithful answer failed: %v", r.failures)
		}
		bad := plan
		bad.Groups = append([]insertion.Group(nil), plan.Groups...)
		bad.Groups[0].Hi += plan.Spec.Step()
		if err := checkServe(r, in, []*serveOp{answer(bad)}); err != nil {
			t.Fatal(err)
		}
		if r.failed != 1 || r.result(false).Correct {
			t.Errorf("failed=%d correct=%v, want the corrupted plan counted", r.failed, r.result(false).Correct)
		}
		ctxErr := &serveOp{kind: opYield, err: context.DeadlineExceeded}
		if err := checkServe(r, in, []*serveOp{ctxErr}); err != nil {
			t.Fatal(err)
		}
		if r.failed != 2 {
			t.Errorf("failed=%d, want the failed request counted", r.failed)
		}
	})
}
