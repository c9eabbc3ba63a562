package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"kset"
	"kset/internal/condition"
)

// sweepSession serves sync-sweep and async-sweep. Op i is one verified
// 1,024-scenario campaign (RunSource, 2 workers) on systems[i mod
// len(systems)]: sync-sweep alternates the analytic max condition with
// the compiled explicit condition; async-sweep runs one system, so its
// ops share one cost mode and its latency percentiles do not fall into
// the gap between two.
type sweepSession struct {
	async   bool
	seed    int64
	systems []*kset.System
	sampled []sampledOp
}

// sampledOp keeps the hash of an op's stats JSON for the 1-worker
// re-run check; a hash, so the check's memory stays out of heap_mib.
type sampledOp struct {
	op  int
	sum [sha256.Size]byte
}

// checkEvery samples one op in checkEvery for the re-run check.
const checkEvery = 16

// statsSum hashes a campaign's stats JSON.
func statsSum(st *kset.CampaignStats) ([sha256.Size]byte, error) {
	raw, err := json.Marshal(st)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(raw), nil
}

var syncExecs = []kset.Executor{kset.Figure2, kset.EarlyDeciding, kset.Classical}

// explicitMaxCondition enumerates the members of the (x,ℓ)-legal max
// condition over {1..m}^n into an explicit condition recognized by
// max_ℓ — the shape a client ships as a vector list.
func explicitMaxCondition(n, m, x, l int) (*kset.ExplicitCondition, error) {
	mc, err := kset.NewMaxCondition(n, m, x, l)
	if err != nil {
		return nil, err
	}
	ec, err := kset.NewExplicitCondition(n, m, l)
	if err != nil {
		return nil, err
	}
	rec := condition.MaxL(l)
	mc.ForEachMember(func(v kset.Vector) bool {
		err = ec.AddAuto(v.Clone(), rec)
		return err == nil
	})
	return ec, err
}

// Parameters of the sweep systems. sync-sweep pairs the analytic max
// condition at n=10 with an explicit condition holding the ≈51k members
// of the n=9 max condition (x=3), compiled at set-up. async-sweep runs the
// analytic condition at n=7, x=2, which tolerates its two crashes and
// leaves a share of inputs outside the condition to give up.
var (
	syncMaxParams      = kset.Params{N: 10, T: 6, K: 2, D: 3, L: 1}
	syncExplicitParams = kset.Params{N: 9, T: 6, K: 2, D: 3, L: 1}
	asyncParams        = kset.Params{N: 7, T: 3, K: 2, D: 1, L: 1}
)

const sweepM = 4

func newSweepSystem(p kset.Params, cond kset.Condition, async bool) (*kset.System, error) {
	opts := []kset.Option{kset.WithParams(p), kset.WithCondition(cond), kset.WithWorkers(2)}
	if async {
		opts = append(opts, kset.WithExecutor(kset.Asynchronous), kset.WithAsyncMemory(kset.WaitFreeMemory))
	}
	return kset.New(opts...)
}

// setupSweep builds the workload's systems and warms each up with one
// op, so pools and caches are filled before timing starts.
func setupSweep(async bool) func(seed int64) (session, error) {
	return func(seed int64) (session, error) {
		s := &sweepSession{async: async, seed: seed}
		if async {
			sy, err := maxSweepSystem(asyncParams, true)
			if err != nil {
				return nil, err
			}
			s.systems = []*kset.System{sy}
		} else {
			sy, err := maxSweepSystem(syncMaxParams, false)
			if err != nil {
				return nil, err
			}
			ep := syncExplicitParams
			ec, err := explicitMaxCondition(ep.N, sweepM, ep.X(), ep.L)
			if err != nil {
				return nil, err
			}
			ey, err := newSweepSystem(ep, ec, false)
			if err != nil {
				return nil, err
			}
			s.systems = []*kset.System{sy, ey}
		}
		for op := range s.systems {
			if _, err := s.runOp(op, 0); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return s, nil
	}
}

func maxSweepSystem(p kset.Params, async bool) (*kset.System, error) {
	mc, err := kset.NewMaxCondition(p.N, sweepM, p.X(), p.L)
	if err != nil {
		return nil, err
	}
	return newSweepSystem(p, mc, async)
}

// asyncCrashFamily crosses async-sweep's inputs with no crash, a crash
// before the write (round-1 crash that sent nothing), a crash after the
// write (later crash) and both at once.
func asyncCrashFamily(n int) kset.FailureFamily {
	before := kset.CrashSpec{ID: kset.ProcessID(n), Round: 1}
	after := kset.CrashSpec{ID: kset.ProcessID(n - 1), Round: 2}
	return kset.FailuresOf(kset.NoFailures(), kset.Crashes(before), kset.Crashes(after), kset.Crashes(before, after))
}

// source builds op's scenario stream and picks its system.
func (s *sweepSession) source(op int) (kset.ScenarioSource, *kset.System) {
	sy := s.systems[op%len(s.systems)]
	sd := mix(s.seed, op)
	p := sy.Params()
	if s.async {
		fam := asyncCrashFamily(p.N)
		in := kset.RandomInputs(sd, p.N, sweepM, opScenarios/fam.Size())
		return opSource{src: kset.FailureSchedules(in, fam), seed: sd}, sy
	}
	const patterns = 8
	in := kset.RandomInputs(sd, p.N, sweepM, opScenarios/patterns)
	fam := kset.RandomCrashFamily(mix(sd, -2), p.N, p.T, p.RMax(), patterns)
	return opSource{src: kset.FailureSchedules(in, fam), execs: syncExecs, seed: sd}, sy
}

// undecidedIn counts runs left undecided although their input lies in
// the condition: an asynchronous give-up is expected only outside it.
type undecidedIn struct{ n int64 }

func (u *undecidedIn) Observe(o kset.Observation) {
	if o.Undecided > 0 && o.InCondition {
		u.n++
	}
}
func (u *undecidedIn) Fork() kset.Collector      { return &undecidedIn{} }
func (u *undecidedIn) Join(shard kset.Collector) { u.n += shard.(*undecidedIn).n }

// runOp runs op as one campaign (workers 0 keeps the system's 2) and
// reports its stats and whether any run failed.
func (s *sweepSession) runOp(op, workers int) (*kset.CampaignStats, error) {
	src, sy := s.source(op)
	var und undecidedIn
	opts := []kset.CampaignOption{kset.VerifyRuns(), kset.CollectInto(&und)}
	if workers > 0 {
		opts = append(opts, kset.CampaignWorkers(workers))
	}
	st, err := sy.RunSource(context.Background(), src, opts...)
	switch {
	case err != nil:
		return nil, err
	case st.Runs != opScenarios || st.Errors > 0:
		return st, fmt.Errorf("op %d: %d runs, %d errors", op, st.Runs, st.Errors)
	case st.Violations > 0:
		return st, fmt.Errorf("op %d: %d spec violations", op, st.Violations)
	case und.n > 0:
		return st, fmt.Errorf("op %d: %d in-condition runs undecided", op, und.n)
	case !s.async && st.UndecidedRuns > 0:
		return st, fmt.Errorf("op %d: %d synchronous runs undecided", op, st.UndecidedRuns)
	}
	return st, nil
}

func (s *sweepSession) run(ph phase) *phaseResult {
	r := newPhaseResult()
	for op := 0; !ph.over(r.start.at, op); op++ {
		id := ph.tr.start("sweep.op", ph.root, int64(op))
		t0 := time.Now()
		st, err := s.runOp(op, 0)
		lat := time.Since(t0)
		ph.tr.end(id, 1)
		if err == nil && ph.keep && op%checkEvery == 0 {
			var sum [sha256.Size]byte
			if sum, err = statsSum(st); err == nil {
				s.sampled = append(s.sampled, sampledOp{op, sum})
			}
		}
		r.add(lat, err)
	}
	return r.finish()
}

// check re-runs every sampled op on one worker: its CampaignStats JSON
// must be byte-identical to the 2-worker run's.
func (s *sweepSession) check() (int64, error) {
	var failed int64
	var first error
	for _, c := range s.sampled {
		st, err := s.runOp(c.op, 1)
		if err == nil {
			var sum [sha256.Size]byte
			if sum, err = statsSum(st); err == nil && sum != c.sum {
				err = fmt.Errorf("op %d: 1-worker stats differ from the 2-worker run", c.op)
			}
		}
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return failed, first
}

func (s *sweepSession) close() {}
