package main

import (
	"reflect"
	"testing"
	"time"
)

func TestTailPercentileSampleRule(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		v      float64
		beyond int
		ok     bool
	}{
		{1000, 990, 10, true},
		{999, 990, 9, false},
		{2000, 1980, 20, true},
		{10, 10, 0, false},
		{1, 1, 0, false},
	} {
		v, beyond, ok := tailPercentile(samples(c.n), 99)
		if v != c.v || beyond != c.beyond || ok != c.ok {
			t.Errorf("n=%d: got (%v, %d, %v), want (%v, %d, %v)", c.n, v, beyond, ok, c.v, c.beyond, c.ok)
		}
	}
	if _, _, ok := tailPercentile(nil, 99); ok {
		t.Error("empty sample reported a percentile")
	}
	if got := minSamples(99); got != 1000 {
		t.Errorf("minSamples(99) = %d, want 1000", got)
	}
	if got := minSamples(50); got != 20 {
		t.Errorf("minSamples(50) = %d, want 20", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},  // overlaps b
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "a1", Start: 15, End: 20, Parent: 1}, // nested in a: not op's child
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past op's end
		{Name: "d", Start: 20, End: 30, Parent: 0},  // inside a ∪ b
	}
	got := selfTimes(spans)
	// op's children cover [10,60) ∪ [90,100): 60 of its 100.
	want := []int64{40, 25, 30, 5, 30, 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
	order, by := aggregate(spans)
	if len(order) != 6 || by["a1"].parent != "a" || by["op"].self != 40 {
		t.Errorf("aggregate: %d names, a1 parent %q, op self %d", len(order), by["a1"].parent, by["op"].self)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start("x", -1, 0)
	tr.end(id, 1)
	tr.endAs(id, "y", 1)
	tr.record("z", -1, 0, time.Now(), time.Now(), 1)
	if id != -1 {
		t.Errorf("nil tracer returned span %d", id)
	}
}

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	a := schedule(42, ksetdRate, 2, 0)
	b := schedule(42, ksetdRate, 2, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two schedules")
	}
	if reflect.DeepEqual(a, schedule(43, ksetdRate, 2, 0)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if got := len(schedule(42, ksetdRate, 0.1, 1000)); got < 1000 {
		t.Errorf("minOps not honored: %d requests", got)
	}
	kinds := map[reqKind]int{}
	var prev time.Duration
	for i, r := range a {
		if r.Due < prev {
			t.Fatalf("request %d due before request %d", i, i-1)
		}
		prev = r.Due
		kinds[r.Kind]++
		if r.Kind == reqStatus || r.Kind == reqEvents {
			if r.Target >= i || a[r.Target].Kind != reqPost {
				t.Fatalf("request %d reads request %d, not an earlier post", i, r.Target)
			}
		}
	}
	if last := a[len(a)-1].Due; last < 2*time.Second {
		t.Errorf("schedule ends at %v, want ≥ 2s", last)
	}
	if rate := float64(len(a)) / a[len(a)-1].Due.Seconds(); rate < 0.9*ksetdRate || rate > 1.1*ksetdRate {
		t.Errorf("offered rate %.0f/s, want ≈ %d/s", rate, ksetdRate)
	}
	if share := float64(kinds[reqPost]) / float64(len(a)); share < 0.8 || share > 0.9 {
		t.Errorf("post share %.2f, want ≈ %.2f", share, postShare)
	}
}

func TestCountMetricsRepeatForSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16k scenarios")
	}
	a, err := countMetrics(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := countMetrics(5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("count metrics differ for one seed: %v vs %v", a, b)
	}
}

// TestPrintedNamesDeclared runs a short untraced and traced run and
// checks every printed metric against BENCHMARK.json.
func TestPrintedNamesDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a workload and every layer probe")
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !sp.hasWorkload(w.name) {
			t.Errorf("workload %s is not declared in BENCHMARK.json", w.name)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	w, _ := lookupWorkload("sync-sweep")
	rep, err := runE2E(w, 1, 4*time.Second) // runs on to the 1,000 ops p99 needs
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.checkNames(rep.Metrics, false); err != nil {
		t.Error(err)
	}
	rep, err = runTraced(w, 1, 100*time.Millisecond, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.checkNames(rep.Metrics, true); err != nil {
		t.Error(err)
	}
	rep.Metrics["undeclared"] = metric{1, "s"}
	if err := sp.checkNames(rep.Metrics, true); err == nil {
		t.Error("an undeclared metric passed the name check")
	}
}
