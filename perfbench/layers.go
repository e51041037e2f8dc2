package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile declares the benchmark's metrics; the benchmark runs from
// the checkout root, where it sits.
const benchmarkFile = "BENCHMARK.json"

// layerMetric is one per-layer metric of BENCHMARK.json. Every workload's
// traced run reports all of them; a layer that is not on a workload's
// timed path reads 0 there (README.md lists where each is measured).
type layerMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readLayerMetrics returns the per-layer metrics path declares, in order.
func readLayerMetrics(path string) ([]layerMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d struct {
		PerLayer []layerMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no per-layer metrics", path)
	}
	return d.PerLayer, nil
}

// layerValues holds the measured per-layer values with their sample
// counts, keyed by metric name.
type layerValues struct {
	v map[string]float64
	n map[string]int
}

func newLayerValues() layerValues {
	return layerValues{v: map[string]float64{}, n: map[string]int{}}
}

func (l layerValues) set(name string, value float64, n int) {
	l.v[name] = value
	l.n[name] = n
}

// stats renders every declared per-layer metric; unmeasured ones read 0
// with n=0.
func (l layerValues) stats(declared []layerMetric) []figure {
	out := make([]figure, 0, len(declared))
	for _, m := range declared {
		out = append(out, figure{Name: m.Name, Unit: m.Unit, Value: l.v[m.Name], N: l.n[m.Name]})
	}
	return out
}
