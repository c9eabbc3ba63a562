package core

import (
	"slices"
	"testing"

	"kset/internal/condition"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// TestRunIntoVerifiedAllocFree: with a recycled Result, a verified run —
// RunCond, RunEarly or RunClassical, then Verify and Observe — allocates
// nothing, over both the closed-form max condition and a compiled one
// (whose view decoding walks packed keys).
func TestRunIntoVerifiedAllocFree(t *testing.T) {
	p := Params{N: 6, T: 3, K: 2, D: 1, L: 1}
	maxCond := condition.MustNewMax(p.N, 4, p.X(), p.L)
	compiled := condition.MustCompileMax(p.N, 4, p.X(), p.L)
	fp := rounds.FailurePattern{Crashes: map[rounds.ProcessID]rounds.Crash{
		2: {Round: 1, AfterSends: 3},
		5: {Round: 2, AfterSends: 1},
	}}
	for _, input := range []vector.Vector{vector.OfInts(4, 4, 4, 2, 1, 2), vector.OfInts(1, 2, 3, 4, 1, 2)} {
		for _, c := range []condition.Condition{maxCond, compiled} {
			runs := map[string]func(r *Runner, res *rounds.Result) (*rounds.Result, error){
				"cond": func(r *Runner, res *rounds.Result) (*rounds.Result, error) {
					return r.RunCond(p, c, input, fp, false, nil, nil, res)
				},
				"early": func(r *Runner, res *rounds.Result) (*rounds.Result, error) {
					return r.RunEarly(p, c, input, fp, false, nil, nil, res)
				},
				"classical": func(r *Runner, res *rounds.Result) (*rounds.Result, error) {
					return r.RunClassical(p.N, p.T, p.K, input, fp, false, nil, nil, res)
				},
			}
			for name, run := range runs {
				r, res := NewRunner(), &rounds.Result{}
				verified := func() {
					if _, err := run(r, res); err != nil {
						t.Fatal(err)
					}
					if v := Verify(input, fp, res, p.K); !v.OK() {
						t.Fatalf("%s %T %v: %v", name, c, input, v)
					}
					_ = Observe(res)
				}
				verified()
				if avg := testing.AllocsPerRun(100, verified); avg != 0 {
					t.Errorf("%s over %T, input %v: verified run allocates %.1f/run, want 0", name, c, input, avg)
				}
			}
		}
	}
}

// TestVerifyViolationOrder pins the order of Verdict.Violations: by
// ascending process ID, agreement last, identical on every call (the
// map-shaped Result reported validity violations in map order).
func TestVerifyViolationOrder(t *testing.T) {
	input := vector.OfInts(1, 2, 3, 4, 5, 6)
	fp := rounds.FailurePattern{Crashes: map[rounds.ProcessID]rounds.Crash{4: {Round: 1}}}
	res := &rounds.Result{Decisions: []rounds.Decision{
		{ID: 1, Value: 1, Round: 2},
		{ID: 2, Value: 9, Round: 2},
		{ID: 5, Value: 8, Round: 3},
		{ID: 6, Value: 7, Round: 3},
	}}
	want := []string{
		"validity: p2 decided unproposed 9",
		"termination: correct p3 did not decide",
		"validity: p5 decided unproposed 8",
		"validity: p6 decided unproposed 7",
		"agreement: 4 distinct values {1,7,8,9} > k=2",
	}
	for i := 0; i < 50; i++ {
		v := Verify(input, fp, res, 2)
		if !slices.Equal(v.Violations, want) {
			t.Fatalf("call %d: violations\n%q\nwant\n%q", i, v.Violations, want)
		}
		if v.Termination || v.Validity || v.Agreement || v.MaxRound != 3 {
			t.Fatalf("call %d: verdict %+v", i, v)
		}
	}
}
