package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minTail is the number of samples that must lie beyond a reported tail
// percentile; below it the percentile is an extrapolation, not a
// measurement.
const minTail = 10

// tailPercentile returns the nearest-rank pct-th percentile (0 < pct <
// 100) of samples and the number of samples ranked beyond it. ok is false
// when fewer than minTail samples lie beyond it, in which case the value
// must not be reported. samples is sorted in place.
func tailPercentile(samples []float64, pct int) (v float64, beyond int, ok bool) {
	if len(samples) == 0 {
		return 0, 0, false
	}
	sort.Float64s(samples)
	rank := (pct*len(samples) + 99) / 100 // ⌈pct·n/100⌉ in exact integers
	if rank < 1 {
		rank = 1
	}
	beyond = len(samples) - rank
	return samples[rank-1], beyond, beyond >= minTail
}

// minSamples is the smallest sample count whose pct-th percentile has
// minTail samples beyond it.
func minSamples(pct int) int {
	n := 1
	for n-(pct*n+99)/100 < minTail {
		n++
	}
	return n
}

// median returns the median of xs (the mean of the middle pair for an
// even count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	h := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[h]
	}
	return (xs[h-1] + xs[h]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// decl is one metric as BENCHMARK.json declares it.
type decl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark checks itself against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []decl `json:"end_to_end"`
	PerLayer []decl `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// checkNames verifies that metrics holds exactly the declared metrics of
// the mode — the end-to-end list untraced, the per-layer list traced —
// each with its declared unit and a finite value.
func (s *spec) checkNames(metrics map[string]metric, traced bool) error {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	seen := make(map[string]bool, len(want))
	for _, d := range want {
		seen[d.Name] = true
		m, ok := metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json but not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	for name := range metrics {
		if !seen[name] {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
