package rounds

import (
	"math/rand"
	"slices"
	"testing"

	"kset/internal/vector"
)

// ascending reports whether the result's lists are strictly ID-ascending
// and disjoint.
func ascending(res *Result) bool {
	ids := make([]ProcessID, 0, len(res.Decisions))
	for _, d := range res.Decisions {
		ids = append(ids, d.ID)
	}
	strict := func(s []ProcessID) bool {
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				return false
			}
		}
		return true
	}
	for _, id := range res.Crashed {
		if slices.Contains(ids, id) {
			return false
		}
	}
	return strict(ids) && strict(res.Crashed)
}

// TestResultListsAscending: Decisions and Crashed come out ID-ascending
// from both engine paths — the shared-row fast path and the transport
// seam (here entered through tracing and the concurrent executor) — and
// the paths agree on them exactly.
func TestResultListsAscending(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(9)
		vals := make([]vector.Value, n)
		for i := range vals {
			vals[i] = vector.Value(1 + r.Intn(9))
		}
		const maxRounds = 4
		fp := randPattern(r, n, n-1, maxRounds)
		decideAt := 1 + r.Intn(maxRounds)
		fast, err := Run(newFloodRun(vals, decideAt), fp, Options{MaxRounds: maxRounds})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := Run(newFloodRun(vals, decideAt), fp, Options{MaxRounds: maxRounds, Trace: &Trace{}})
		if err != nil {
			t.Fatal(err)
		}
		conc, err := Run(newFloodRun(vals, decideAt), fp, Options{MaxRounds: maxRounds, Concurrent: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []*Result{fast, traced, conc} {
			if !ascending(res) {
				t.Fatalf("trial %d: lists not ID-ascending and disjoint: %+v", trial, res)
			}
			if len(res.Decisions)+len(res.Crashed) != n && res.Rounds < maxRounds {
				t.Fatalf("trial %d: run stopped at round %d with undecided live processes: %+v", trial, res.Rounds, res)
			}
		}
		if !resultsEqual(fast, traced) || !resultsEqual(fast, conc) {
			t.Fatalf("trial %d: paths disagree:\nfast   %+v\ntraced %+v\nconc   %+v", trial, fast, traced, conc)
		}
		for _, d := range fast.Decisions {
			if v, ok := fast.Decision(d.ID); !ok || v != d.Value {
				t.Fatalf("trial %d: Decision(%d) = %v,%v, list says %v", trial, d.ID, v, ok, d.Value)
			}
		}
		for _, id := range fast.Crashed {
			if _, ok := fast.Decision(id); ok {
				t.Fatalf("trial %d: crashed p%d has a decision", trial, id)
			}
		}
	}
}

// TestResultResetKeepsCapacity: Reset empties both lists without dropping
// their storage, and zeroes every counter.
func TestResultResetKeepsCapacity(t *testing.T) {
	fp := FailurePattern{Crashes: map[ProcessID]Crash{2: {Round: 1}, 4: {Round: 1, AfterSends: 2}}}
	res, err := Run(newFloodRun([]vector.Value{5, 1, 4, 2, 3}, 2), fp, Options{MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 3 || len(res.Crashed) != 2 {
		t.Fatalf("setup: %+v", res)
	}
	dcap, ccap := cap(res.Decisions), cap(res.Crashed)
	res.Lost, res.Delayed, res.Duplicated = 1, 2, 3
	res.Reset()
	if len(res.Decisions) != 0 || len(res.Crashed) != 0 {
		t.Fatalf("Reset left entries: %+v", res)
	}
	if cap(res.Decisions) != dcap || cap(res.Crashed) != ccap {
		t.Errorf("Reset dropped capacity: %d/%d, want %d/%d", cap(res.Decisions), cap(res.Crashed), dcap, ccap)
	}
	if res.Rounds != 0 || res.MessagesDelivered != 0 || res.Lost != 0 || res.Delayed != 0 || res.Duplicated != 0 {
		t.Errorf("Reset left counters: %+v", res)
	}
	if _, ok := res.Decision(1); ok || res.MaxDecisionRound() != 0 || !res.DistinctDecisions().Empty() {
		t.Errorf("reset result still reports decisions: %+v", res)
	}
}

// TestRunIntoRecycledAllocFree: a recycled Result makes a reused engine's
// run allocation-free, crashes included.
func TestRunIntoRecycledAllocFree(t *testing.T) {
	vals := []vector.Value{5, 1, 4, 2, 3, 6}
	fp := FailurePattern{Crashes: map[ProcessID]Crash{2: {Round: 1, AfterSends: 3}, 5: {Round: 2}}}
	e := NewEngine()
	procs := newFloodRun(vals, 3)
	res := &Result{}
	run := func() {
		if _, err := e.RunInto(res, procs, fp, Options{MaxRounds: 3}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Errorf("recycled RunInto allocates %.1f times per run, want 0", avg)
	}
	if len(res.Decisions) != 4 || !slices.Equal(res.Crashed, []ProcessID{2, 5}) {
		t.Errorf("result %+v", res)
	}
}
