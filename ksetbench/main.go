// Command ksetbench is the repository's end-to-end benchmark. One run
// drives one workload for a fixed time from a seed, checks the program's
// outputs and prints its metrics; see README.md in this directory.
//
//	ksetbench --workload sync-sweep --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The command exits 1 when an output check fails and 2 on a usage or
// set-up error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// session is one set-up workload: the systems it needs, ready to drive.
type session interface {
	// run drives one timed phase.
	run(ph phase) *phaseResult
	// check re-derives the outputs kept by the last kept phase by an
	// independent path and returns the number of ops that disagree.
	check() (int64, error)
	close()
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// setup builds a session; it is what setup_s times.
	setup func(seed int64) (session, error)
}

// setupReps is how many times a run sets up (the median is reported);
// all but the last session are closed at once.
const setupReps = 9

var workloads = []workload{
	{name: "sync-sweep", setup: setupSweep(false)},
	{name: "async-sweep", setup: setupSweep(true)},
}

// phase parameterizes one timed phase.
type phase struct {
	dur  time.Duration
	tr   *tracer // nil: untraced
	root int     // parent span of the phase's op spans
	keep bool    // keep outputs for check
}

// pct is the tail percentile the benchmark reports.
const pct = 99

// over reports whether a closed-loop phase that started at start and has
// issued ops ops is done: past its duration with enough samples for the
// tail percentile, or past three times its duration regardless.
func (ph phase) over(start time.Time, ops int) bool {
	el := time.Since(start)
	return (el >= ph.dur && ops >= chunkOps) || el >= 3*ph.dur
}

// A timed phase is cut, in completion order, into windows of windowOps
// ops and chunks of chunkOps ops. Throughput and CPU per op are taken
// per window and the tail percentile per chunk (the smallest sample
// whose 99th percentile has minTail samples beyond it), and the medians
// are reported: a burst of interference from outside the process then
// moves a few windows or one chunk, not the run.
const windowOps = 100

var chunkOps = minSamples(pct) // a whole number of windows

// mark is a point of a phase: when it was reached and the process CPU
// time used by then.
type mark struct {
	at  time.Time
	cpu time.Duration
}

func now() mark { return mark{time.Now(), cpuTime()} }

// phaseResult records a timed phase, safe for concurrent use.
type phaseResult struct {
	mu        sync.Mutex
	start     mark
	marks     []mark    // end of each complete window
	end       mark      // end of the phase
	lat       []float64 // per-op latency in completion order, ms
	lag       []float64 // open loop: how late each op was sent, ms
	attempted int64
	failed    int64
	firstErr  error
}

func newPhaseResult() *phaseResult { return &phaseResult{start: now()} }

func (r *phaseResult) add(lat time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lat = append(r.lat, ms(lat))
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	if len(r.lat)%windowOps == 0 {
		r.marks = append(r.marks, now())
	}
}

func (r *phaseResult) addLag(lag time.Duration) {
	r.mu.Lock()
	r.lag = append(r.lag, ms(lag))
	r.mu.Unlock()
}

// finish marks the end of the phase.
func (r *phaseResult) finish() *phaseResult {
	r.end = now()
	return r
}

// windowStats returns each window's throughput (ops/s) and CPU per op
// (ms). A phase of fewer than two windows is one window.
func (r *phaseResult) windowStats() (rates, cpus []float64) {
	if len(r.marks) < 2 {
		n := float64(len(r.lat))
		return []float64{n / r.end.at.Sub(r.start.at).Seconds()}, []float64{ms(r.end.cpu-r.start.cpu) / n}
	}
	prev := r.start
	for _, m := range r.marks {
		rates = append(rates, windowOps/m.at.Sub(prev.at).Seconds())
		cpus = append(cpus, ms(m.cpu-prev.cpu)/windowOps)
		prev = m
	}
	return rates, cpus
}

// chunkP99s returns each chunk's 99th-percentile latency (ms). A phase
// of fewer than two chunks is one chunk, which has no percentile when it
// is too small for one.
func (r *phaseResult) chunkP99s() []float64 {
	var out []float64
	chunks := len(r.lat) / chunkOps
	if chunks < 2 {
		if v, _, ok := tailPercentile(append([]float64(nil), r.lat...), pct); ok {
			out = append(out, v)
		}
		return out
	}
	for i := 0; i < chunks; i++ {
		v, _, _ := tailPercentile(append([]float64(nil), r.lat[i*chunkOps:(i+1)*chunkOps]...), pct)
		out = append(out, v)
	}
	return out
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		specP   = flag.String("spec", "BENCHMARK.json", "benchmark declaration the printed metrics must match")
		outDir  = flag.String("out", filepath.Join("ksetbench", "out"), "directory for spans and the layer ladder of traced runs")
	)
	flag.Parse()
	sp, err := loadSpec(*specP)
	if err != nil {
		fail(2, err)
	}
	w, ok := lookupWorkload(*name)
	if !ok || !sp.hasWorkload(*name) || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(2, fmt.Errorf("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>; workload %q", *name))
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var rep report
	if *trace == 1 {
		rep, err = runTraced(w, *seed, dur, *outDir)
	} else {
		rep, err = runE2E(w, *seed, dur)
	}
	if err != nil {
		fail(2, err)
	}
	if err := sp.checkNames(rep.Metrics, *trace == 1); err != nil {
		fail(2, err)
	}
	printReport(rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "ksetbench:", err)
	os.Exit(code)
}

// printReport prints one human-readable line per metric, then the JSON
// result as the last line.
func printReport(rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("# %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(2, err)
	}
	fmt.Println(string(line))
}

// setupSession sets the workload up setupReps times and returns the
// last session with the median set-up time in seconds.
func setupSession(w workload, seed int64) (session, float64, error) {
	var (
		s     session
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = w.setup(seed); err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, median(times), nil
}

// runE2E is the untraced run: set up, one timed phase, output checks.
func runE2E(w workload, seed int64, dur time.Duration) (report, error) {
	s, setupS, err := setupSession(w, seed)
	if err != nil {
		return report{}, err
	}
	defer s.close()
	liveHeap() // start the phase from a collected heap
	res := s.run(phase{dur: dur, root: -1, keep: true})
	heap := liveHeap()
	if res.attempted == 0 {
		return report{}, errors.New("the timed phase completed no op")
	}
	checkFailed, checkErr := s.check()
	failed := res.failed + checkFailed
	for _, e := range []error{res.firstErr, checkErr} {
		if e != nil {
			fmt.Fprintln(os.Stderr, "ksetbench: output check failed:", e)
		}
	}
	rates, cpus := res.windowStats()
	p99s := res.chunkP99s()
	metrics := map[string]metric{
		"setup_s":       {setupS, "s"},
		"ops_per_s":     {median(rates), "1/s"},
		"op_p50_ms":     {median(append([]float64(nil), res.lat...)), "ms"},
		"cpu_ms_per_op": {median(cpus), "ms"},
		"heap_mib":      {float64(heap) / (1 << 20), "MiB"},
		"ok_frac":       {float64(res.attempted-failed) / float64(res.attempted), "frac"},
	}
	if len(p99s) > 0 {
		metrics["op_p99_ms"] = metric{median(p99s), "ms"}
	}
	fmt.Printf("# %d ops: ops_per_s and cpu_ms_per_op are medians over %d windows; op_p99_ms is the median of %d chunk p99s, each with ≥ %d samples beyond it\n",
		len(res.lat), len(rates), len(p99s), minTail)
	return report{
		Correct:   failed == 0 && checkErr == nil,
		Attempted: res.attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}
