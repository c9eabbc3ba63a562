package rounds

import (
	"math/rand"
	"slices"
	"testing"

	"kset/internal/vector"
)

func resultsEqual(a, b *Result) bool {
	return slices.Equal(a.Decisions, b.Decisions) && slices.Equal(a.Crashed, b.Crashed) &&
		a.Rounds == b.Rounds && a.MessagesDelivered == b.MessagesDelivered
}

func randPattern(r *rand.Rand, n, t, maxRounds int) FailurePattern {
	fp := FailurePattern{Crashes: make(map[ProcessID]Crash)}
	perm := r.Perm(n)
	for i := 0; i < r.Intn(t+1); i++ {
		fp.Crashes[ProcessID(perm[i]+1)] = Crash{
			Round:      1 + r.Intn(maxRounds),
			AfterSends: r.Intn(n + 1),
		}
	}
	return fp
}

// TestEngineSharedRowMatchesMatrix cross-checks the shared-row fast path
// against the n×n-matrix executor (forced via tracing) and the concurrent
// executor over randomized failure patterns: all three must produce
// identical results.
func TestEngineSharedRowMatchesMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(6)
		maxRounds := 1 + r.Intn(4)
		fp := randPattern(r, n, n-1, maxRounds)
		vals := make([]vector.Value, n)
		for i := range vals {
			vals[i] = vector.Value(1 + r.Intn(5))
		}
		decideAt := 1 + r.Intn(maxRounds)

		fast, err := Run(newFloodRun(vals, decideAt), fp, Options{MaxRounds: maxRounds})
		if err != nil {
			t.Fatal(err)
		}
		var trace Trace
		matrix, err := Run(newFloodRun(vals, decideAt), fp, Options{MaxRounds: maxRounds, Trace: &trace})
		if err != nil {
			t.Fatal(err)
		}
		conc, err := Run(newFloodRun(vals, decideAt), fp, Options{MaxRounds: maxRounds, Concurrent: true})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(fast, matrix) {
			t.Fatalf("row path diverged from matrix path: fp=%+v vals=%v\nrow:    %+v\nmatrix: %+v",
				fp, vals, fast, matrix)
		}
		if !resultsEqual(fast, conc) {
			t.Fatalf("row path diverged from concurrent executor: fp=%+v vals=%v\nrow:  %+v\nconc: %+v",
				fp, vals, fast, conc)
		}
	}
}

// TestEngineReuse runs one Engine across runs of different sizes and
// checks each result against a fresh one-shot Run.
func TestEngineReuse(t *testing.T) {
	e := NewEngine()
	r := rand.New(rand.NewSource(12))
	for _, n := range []int{6, 2, 8, 3, 8, 5} {
		fp := randPattern(r, n, n-1, 3)
		vals := make([]vector.Value, n)
		for i := range vals {
			vals[i] = vector.Value(1 + r.Intn(4))
		}
		got, err := e.Run(newFloodRun(vals, 2), fp, Options{MaxRounds: 3})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(newFloodRun(vals, 2), fp, Options{MaxRounds: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(got, want) {
			t.Fatalf("n=%d: reused engine %+v, fresh run %+v", n, got, want)
		}
	}
}

// TestEngineResultSurvivesReuse pins the Run contract that a returned
// Result is unaffected by later runs on the same engine.
func TestEngineResultSurvivesReuse(t *testing.T) {
	e := NewEngine()
	first, err := e.Run(newFloodRun([]vector.Value{3, 1, 2}, 1), FailurePattern{}, Options{MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(newFloodRun([]vector.Value{9, 9, 9, 9}, 1), FailurePattern{}, Options{MaxRounds: 2}); err != nil {
		t.Fatal(err)
	}
	if len(first.Decisions) != 3 || first.Decisions[0] != (Decision{ID: 1, Value: 1, Round: 1}) {
		t.Fatalf("first result mutated by engine reuse: %+v", first)
	}
}

// TestEngineRoundAllocBudget pins the per-run allocation budget of a
// reused engine: one fresh Result plus its decision list (a run without
// crashes needs no crash-list storage), nothing per round or per message —
// the old executor allocated the n×n matrix and a send order per sender
// every round, and the map-shaped Result cost ~11 allocations at n=16.
func TestEngineRoundAllocBudget(t *testing.T) {
	const n = 16
	vals := make([]vector.Value, n)
	for i := range vals {
		vals[i] = vector.Value(1 + i%7)
	}
	e := NewEngine()
	procs := newFloodRun(vals, 1) // state reaches its fixpoint after run 1
	if _, err := e.Run(procs, FailurePattern{}, Options{MaxRounds: 1}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := e.Run(procs, FailurePattern{}, Options{MaxRounds: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Errorf("engine round allocates %.1f times per run, want ≤ 2", avg)
	}
}
