package main

import (
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile of tailPercentiles that has at least
// ten samples beyond it, its nearest-rank value, and how many samples lie
// beyond it. ok is false when even p75 has fewer than ten beyond it (fewer
// than 40 samples).
func tail(xs []float64) (pct, value float64, beyond int, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		// Nearest rank: the smallest value with at least p% of samples at
		// or below it.
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= 10 {
			return p, s[rank-1], n - rank, true
		}
	}
	return 0, 0, 0, false
}

// cpuSeconds returns the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// resetPeakRSS returns freed heap to the OS and resets the kernel's
// resident-set high-water mark (VmHWM) to the current resident set, so
// peakRSSMB afterwards covers only what runs from here on.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM) in
// MiB since the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// mix derives a sub-seed from a seed and a path of indices (SplitMix64
// finalizer over each step), so every generated input is a pure function
// of the benchmark seed. The result is never zero: several layers read a
// zero seed as "use the default".
func mix(seed uint64, path ...uint64) uint64 {
	z := seed
	for _, p := range path {
		z += 0x9E3779B97F4A7C15 * (p + 1)
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	if z == 0 {
		z = 1
	}
	return z
}

// passTimes holds per-pass wall and CPU seconds and peak resident MiB.
type passTimes struct {
	wall, cpu, peakMB []float64
}

func (p *passTimes) add(wall time.Duration, cpu, peakMB float64) {
	p.wall = append(p.wall, wall.Seconds())
	p.cpu = append(p.cpu, cpu)
	p.peakMB = append(p.peakMB, peakMB)
}

// timeLoop calls pass repeatedly until d has elapsed and at least one pass
// ran. With tracing on, passes alternate untraced (even i) and traced (odd
// i), so the traced/untraced difference is measured on interleaved passes;
// the loop then always ends on a traced pass. It returns the untraced and
// traced pass times. Before each pass the previous pass's garbage is
// collected and returned to the OS and the kernel's high-water mark reset,
// outside the timed region, so no pass pays for another's and each pass's
// peak resident memory is its own.
func timeLoop(d time.Duration, tracing bool, pass func(i int, traced bool) error) (plain, traced passTimes, err error) {
	start := time.Now()
	for i := 0; ; i++ {
		tr := tracing && i%2 == 1
		if err := resetPeakRSS(); err != nil {
			return plain, traced, fmt.Errorf("resetting the peak RSS: %w", err)
		}
		c0, t0 := cpuSeconds(), time.Now()
		if err := pass(i, tr); err != nil {
			return plain, traced, fmt.Errorf("pass %d: %w", i, err)
		}
		wall, cpu := time.Since(t0), cpuSeconds()-c0
		peak, err := peakRSSMB()
		if err != nil {
			return plain, traced, err
		}
		if tr {
			traced.add(wall, cpu, peak)
		} else {
			plain.add(wall, cpu, peak)
		}
		if time.Since(start) >= d && (!tracing || tr) {
			return plain, traced, nil
		}
	}
}
