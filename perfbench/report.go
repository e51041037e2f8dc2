package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"sort"
)

// figure is one reported number: its value, unit, and the number of samples
// behind it.
type figure struct {
	Name  string
	Unit  string
	Value float64
	N     int
	Note  string
}

// report collects what one workload run measured and checked.
type report struct {
	// e2e are the end-to-end metrics BENCHMARK.json declares, measured on
	// untraced passes; named are the workload's own end-to-end figures
	// (printed, not gated); layer are the per-layer metrics of a traced run.
	e2e, named, layer []figure

	attempted, failed int
	failures          []string

	// digest hashes the deterministic outputs of the first pass (and the
	// reference checks), so runs of one seed under different schedulers
	// can be compared byte for byte.
	digest hash.Hash
}

func newReport() *report { return &report{digest: sha256.New()} }

// check counts one verified output; a false ok is a failure.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// digestJSON feeds v's JSON encoding into the correctness digest.
func (r *report) digestJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: digest of unencodable value: %v", err))
	}
	r.digest.Write(data)
	r.digest.Write([]byte{'\n'})
}

func (r *report) digestHex() string { return hex.EncodeToString(r.digest.Sum(nil)) }

func (r *report) addE2E(name, unit string, value float64, n int) {
	r.e2e = append(r.e2e, figure{Name: name, Unit: unit, Value: value, N: n})
}

func (r *report) addNamed(name, unit string, value float64, n int, note string) {
	r.named = append(r.named, figure{Name: name, Unit: unit, Value: value, N: n, Note: note})
}

// addTail reports a latency sample as <prefix>_p50_ms and <prefix>_tail_ms,
// noting which percentile the tail is and how many samples lie beyond it.
func (r *report) addTail(prefix string, ms []float64) {
	r.addNamed(prefix+"_p50_ms", "ms", median(ms), len(ms), "")
	if p, v, beyond, ok := tail(ms); ok {
		r.addNamed(prefix+"_tail_ms", "ms", v, len(ms), fmt.Sprintf("p%g, %d samples beyond", p, beyond))
	} else {
		r.addNamed(prefix+"_tail_ms", "ms", math.NaN(), len(ms), "fewer than 40 samples")
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result builds the last line: the end-to-end metrics, or the per-layer
// ones for a traced run.
func (r *report) result(traced bool) result {
	list := r.e2e
	if traced {
		list = r.layer
	}
	m := make(map[string]metricValue, len(list))
	for _, s := range list {
		v := s.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no NaN; an unmeasurable ratio reports 0 with its base
		}
		m[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// print writes the human-readable report: every metric with its unit and
// sample count, then the check summary.
func (r *report) print(w io.Writer, traced bool) {
	section := func(title string, list []figure) {
		if len(list) == 0 {
			return
		}
		fmt.Fprintf(w, "# %s\n", title)
		for _, s := range list {
			note := ""
			if s.Note != "" {
				note = "  (" + s.Note + ")"
			}
			fmt.Fprintf(w, "%-34s %14.6g %-6s n=%d%s\n", s.Name, s.Value, s.Unit, s.N, note)
		}
	}
	section("end-to-end (gated, untraced passes)", r.e2e)
	section("workload figures (untraced passes)", r.named)
	if traced {
		layer := append([]figure(nil), r.layer...)
		sort.SliceStable(layer, func(i, j int) bool { return layer[i].Name < layer[j].Name })
		section("per-layer (traced passes)", layer)
	}
	fmt.Fprintf(w, "# checks: %d attempted, %d failed, digest %s\n", r.attempted, r.failed, r.digestHex())
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
}
