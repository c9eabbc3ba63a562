package kset

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kset/internal/core"
	"kset/internal/stats"
)

// CampaignOption configures a campaign before its workers start.
type CampaignOption func(*Campaign)

// CampaignWorkers overrides the system's worker count for this campaign.
func CampaignWorkers(n int) CampaignOption {
	return func(c *Campaign) {
		if n > 0 {
			c.nworkers = n
		}
	}
}

// CollectResults gives the campaign a results channel of the given buffer
// size, exposed by Campaign.Results. Every scenario's Outcome — with a
// freshly allocated Result — is sent to it; the consumer MUST drain the
// channel concurrently with submission, or the workers block. Without this
// option outcomes are folded into the campaign's collectors only and each
// worker recycles one Result, making the per-run cost allocation-free.
//
// Ownership: a Result that crosses the channel belongs to the receiver.
// The campaign allocates it fresh for the run and never recycles it into
// a worker or pool afterwards, so consumers may retain, mutate and
// compare Outcome.Result values for as long as they like — including
// after the campaign has completed.
func CollectResults(buffer int) CampaignOption {
	return func(c *Campaign) { c.results = make(chan Outcome, max(buffer, 0)) }
}

// VerifyRuns makes every synchronous run's result checked against the
// k-set agreement specification; failures increment
// CampaignStats.Violations and annotate the Outcome's Verdict.
func VerifyRuns() CampaignOption {
	return func(c *Campaign) { c.verify = true }
}

// Outcome reports one campaign scenario.
type Outcome struct {
	// Scenario is the submitted scenario, as given.
	Scenario Scenario
	// Result is the execution result (nil when Err is set). It is
	// allocated fresh for this outcome and owned by the receiver: the
	// campaign never recycles it, so it remains valid after the campaign
	// completes.
	Result *Result
	// Observation is the run's flat results-plane record — the same
	// record the campaign's collectors received.
	Observation Observation
	// Verdict is the specification verdict, when VerifyRuns is on and the
	// scenario ran a synchronous executor.
	Verdict *Verdict
	// Err reports a failed run (bad input vector, misconfigured executor
	// override); the campaign keeps going.
	Err error
}

// CampaignStats aggregates a campaign: the flat counters the original
// batch API exposed, rendered from the results-plane accumulator the
// campaign's workers actually fed. Everything the accumulator folds is a
// sum, a minimum or a maximum, so for a fixed multiset of scenarios the
// stats are identical regardless of worker count or scheduling — seeded
// sweeps are reproducible run to run, byte for byte.
type CampaignStats struct {
	// Runs is the number of scenarios executed (including failed ones).
	Runs int64 `json:"runs"`
	// Errors is the number of scenarios whose run returned an error.
	Errors int64 `json:"errors"`
	// ConditionHits counts runs whose input vector belongs to the
	// system's condition.
	ConditionHits int64 `json:"condition_hits"`
	// Violations counts verified runs that failed the k-set agreement
	// specification (only populated under VerifyRuns).
	Violations int64 `json:"violations"`
	// UndecidedRuns counts runs some process of which neither decided
	// nor crashed: synchronous runs that exhausted the round limit
	// (possible only under a fault-injecting transport — reliable
	// synchronous runs always terminate) and asynchronous runs whose
	// processes gave up their scan budget, the executable face of the
	// ℓ ≤ x impossibility. Non-termination is a counted outcome, never a
	// hang.
	UndecidedRuns int64 `json:"undecided_runs,omitempty"`
	// MessagesDelivered sums delivered messages across all runs.
	MessagesDelivered int64 `json:"messages_delivered"`
	// DecisionRounds is the histogram of latest decision rounds:
	// DecisionRounds[r] = runs whose last decision came at round r.
	// Index 0 counts runs that decided in no round at all — asynchronous
	// runs (which have no rounds) and runs where nobody decided. Rounds
	// past the accumulator's tracked range (≥ stats.HistogramBuckets, far
	// beyond any realistic ⌊t/k⌋+1) are not positionally representable
	// here; they are summarized exactly in Metrics.Rounds.Overflow, and
	// the accessors below account for them.
	DecisionRounds []int64 `json:"decision_rounds,omitempty"`
	// Metrics is the full results-plane accumulator behind the flat
	// fields: the bounded histogram, min/mean/max summaries of messages
	// and crashes, and the per-executor / per-crash-count / per-label
	// breakdowns, all JSON-marshalable and deterministically mergeable.
	Metrics *Accumulator `json:"metrics,omitempty"`
}

// newCampaignStats renders the merged accumulator as the flat stats view.
func newCampaignStats(acc *Accumulator) *CampaignStats {
	return &CampaignStats{
		Runs:              acc.Runs,
		Errors:            acc.Errors,
		ConditionHits:     acc.ConditionHits,
		Violations:        acc.Violations,
		UndecidedRuns:     acc.UndecidedRuns,
		MessagesDelivered: acc.MessagesDelivered(),
		DecisionRounds:    acc.DecisionRounds(),
		Metrics:           acc,
	}
}

// HitRate returns the fraction of runs whose input was in the condition.
func (s *CampaignStats) HitRate() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.ConditionHits) / float64(s.Runs)
}

// MaxDecisionRound returns the latest decision round any run reached, or
// 0 when no run decided in a round. It reads the full accumulator, so
// rounds in the histogram's overflow summary are never dropped.
func (s *CampaignStats) MaxDecisionRound() int {
	if s.Metrics != nil {
		return s.Metrics.MaxDecisionRound()
	}
	for r := len(s.DecisionRounds) - 1; r >= 1; r-- {
		if s.DecisionRounds[r] > 0 {
			return r
		}
	}
	return 0
}

// MeanDecisionRound returns the mean latest decision round over the runs
// that decided in some round. Like MaxDecisionRound it reads the full
// accumulator, overflow included.
func (s *CampaignStats) MeanDecisionRound() float64 {
	if s.Metrics != nil {
		return s.Metrics.MeanDecisionRound()
	}
	var runs, sum int64
	for r := 1; r < len(s.DecisionRounds); r++ {
		runs += s.DecisionRounds[r]
		sum += int64(r) * s.DecisionRounds[r]
	}
	if runs == 0 {
		return 0
	}
	return float64(sum) / float64(runs)
}

// Campaign fans a stream of scenarios across a bounded pool of workers,
// each owning its engine and protocol buffers, and aggregates the outcomes
// into a CampaignStats. Build one with System.NewCampaign, feed it with
// Submit/SubmitAll, then Close (or just Wait) and read the stats:
//
//	camp := sys.NewCampaign(ctx)
//	for _, sc := range scenarios {
//		if err := camp.Submit(sc); err != nil {
//			break
//		}
//	}
//	stats, err := camp.Wait()
//
// Submit is safe from multiple goroutines. Cancelling the context stops
// the workers; Wait then reports the context error alongside the stats of
// the scenarios that did run.
type Campaign struct {
	sys      *System
	ctx      context.Context
	nworkers int
	verify   bool

	queue   chan Scenario
	slice   []Scenario   // fixed-slice mode (RunCampaign): no queue at all
	next    atomic.Int64 // next slice index to steal
	results chan Outcome

	// The collector pipeline: acc backs Wait's CampaignStats, extra holds
	// CollectInto additions; every worker observes into its own forked
	// shard row, joined back in worker order by Wait.
	acc        *stats.Accumulator
	extra      []Collector
	collectors []Collector   // acc + extra
	shards     [][]Collector // [worker][collector]
	wg         sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	waitOnce sync.Once
	stats    *CampaignStats
	waitErr  error
}

// NewCampaign starts a campaign's workers and returns the handle. The
// scenario queue is bounded, so Submit exerts backpressure on producers
// that outrun the workers.
func (s *System) NewCampaign(ctx context.Context, opts ...CampaignOption) *Campaign {
	c := s.newCampaign(ctx, opts)
	c.queue = make(chan Scenario, 4*c.nworkers+64)
	c.start()
	return c
}

// RunCampaign runs a fixed scenario slice to completion and returns the
// aggregate stats — the high-throughput form of NewCampaign + SubmitAll +
// Wait. With the whole workload known up front, the workers steal indices
// from the slice directly (no per-scenario channel operation), which is
// what makes campaign batching beat even sequential System.Run at
// microsecond-sized runs. Outcomes are folded into the stats only; use
// NewCampaign with CollectResults to stream per-scenario results.
func (s *System) RunCampaign(ctx context.Context, scenarios []Scenario, opts ...CampaignOption) (*CampaignStats, error) {
	c := s.newCampaign(ctx, opts)
	c.slice = scenarios
	c.closed = true // fixed workload: Submit is rejected
	c.start()
	c.discardResults()
	return c.Wait()
}

// discardResults drains the results channel of a run-to-completion entry
// point (RunCampaign, RunSource), where no consumer exists: without the
// drain, a CollectResults option would block every worker.
func (c *Campaign) discardResults() {
	if c.results == nil {
		return
	}
	go func() {
		for range c.results {
		}
	}()
}

// RunSource streams a scenario source through a campaign to completion
// and returns the aggregate stats — the generator-fed form of
// RunCampaign. The source is generated concurrently with execution under
// the queue's backpressure, so arbitrarily large scenario spaces run in
// constant memory. Outcomes are folded into the stats only; use
// NewCampaign with CollectResults to stream per-scenario results.
func (s *System) RunSource(ctx context.Context, src ScenarioSource, opts ...CampaignOption) (*CampaignStats, error) {
	c := s.NewCampaign(ctx, opts...)
	c.discardResults()
	// A submission error means cancellation (Close is ours alone); Wait
	// reports it alongside the stats of the scenarios that did run.
	_ = c.SubmitSource(src)
	return c.Wait()
}

// newCampaign builds the campaign shell: options applied, workers not yet
// started.
func (s *System) newCampaign(ctx context.Context, opts []CampaignOption) *Campaign {
	c := &Campaign{sys: s, ctx: ctx, nworkers: s.workers}
	for _, opt := range opts {
		opt(c)
	}
	c.acc = stats.NewAccumulator()
	c.collectors = append(make([]Collector, 0, 1+len(c.extra)), c.acc)
	c.collectors = append(c.collectors, c.extra...)
	c.shards = make([][]Collector, c.nworkers)
	for i := range c.shards {
		row := make([]Collector, len(c.collectors))
		for j, col := range c.collectors {
			row[j] = col.Fork()
		}
		c.shards[i] = row
	}
	return c
}

// start launches the workers and the results-closing watchdog.
func (c *Campaign) start() {
	c.wg.Add(c.nworkers)
	for i := 0; i < c.nworkers; i++ {
		go c.worker(i)
	}
	if c.results != nil {
		// The results channel closes as soon as every worker has exited,
		// so consumers may simply range over it — Close ends the range,
		// with or without a concurrent Wait.
		go func() {
			c.wg.Wait()
			close(c.results)
		}()
	}
}

// Submit enqueues one scenario, blocking while the queue is full. It
// returns the context's error after cancellation and ErrCampaignClosed
// after Close.
func (c *Campaign) Submit(sc Scenario) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return ErrCampaignClosed
	}
	select {
	case c.queue <- sc:
		return nil
	case <-c.ctx.Done():
		return c.ctx.Err()
	}
}

// SubmitAll enqueues the scenarios in order, stopping at the first error.
func (c *Campaign) SubmitAll(scs []Scenario) error {
	for i := range scs {
		if err := c.Submit(scs[i]); err != nil {
			return err
		}
	}
	return nil
}

// SubmitSource streams every scenario the source yields into the
// campaign, stopping at the first error (cancellation or Close). The
// source is consumed lazily: the campaign's bounded queue exerts
// backpressure on generation, so an m^n-sized source never materializes.
func (c *Campaign) SubmitSource(src ScenarioSource) error {
	var err error
	src.ForEach(func(sc Scenario) bool {
		err = c.Submit(sc)
		return err == nil
	})
	return err
}

// Close marks the campaign complete: no further Submit calls are accepted
// and the workers drain the queue and exit. Close is idempotent; Wait
// calls it implicitly.
func (c *Campaign) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.queue)
	}
}

// stealNext hands out the next fixed-slice scenario index, or false when
// the slice is exhausted or the context cancelled.
func (c *Campaign) stealNext() (int, bool) {
	if c.ctx.Err() != nil {
		return 0, false
	}
	i := c.next.Add(1) - 1
	if i >= int64(len(c.slice)) {
		return 0, false
	}
	return int(i), true
}

// Results returns the streaming outcome channel (nil unless the campaign
// was built with CollectResults). It closes once the campaign is Closed
// and every worker has exited, so ranging over it terminates.
func (c *Campaign) Results() <-chan Outcome { return c.results }

// Wait closes the campaign, waits for the workers to drain the queue,
// joins every worker's collector shards back into their collectors — in
// worker order, so any order-sensitive custom collector sees a fixed
// merge sequence — and returns the merged stats. After cancellation it
// returns the context's error together with the stats of the scenarios
// that completed.
func (c *Campaign) Wait() (*CampaignStats, error) {
	c.waitOnce.Do(func() {
		c.Close()
		c.wg.Wait()
		for j, col := range c.collectors {
			for i := range c.shards {
				col.Join(c.shards[i][j])
			}
		}
		c.stats = newCampaignStats(c.acc)
		c.waitErr = c.ctx.Err()
	})
	return c.stats, c.waitErr
}

// safeRun executes one scenario's run, converting an executor panic into
// a per-run error: a poisoned scenario fails its own run (surfacing in
// CampaignStats.Errors and the Outcome's Err) instead of killing the
// worker goroutine and, with it, the process.
func safeRun(ctx context.Context, ex Executor, s *System, w *worker, sc *Scenario, reuse *Result) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("kset: executor %s panicked: %v", ex.Name(), r)
		}
	}()
	return ex.run(ctx, s, w, sc, reuse)
}

// worker is one campaign worker: it checks engine/protocol buffers out of
// the shared pool once and runs scenarios until the queue closes or the
// context is cancelled, folding each run's Observation into its own
// collector shards (joined, deterministically, by Wait).
func (c *Campaign) worker(i int) {
	defer c.wg.Done()
	w := getWorker()
	defer putWorker(w)
	shard := c.shards[i]
	if c.slice != nil {
		for {
			idx, ok := c.stealNext()
			if !ok {
				return
			}
			w.sc = c.slice[idx]
			c.runOne(w, shard)
		}
	}
	for {
		select {
		case <-c.ctx.Done():
			return
		case sc, ok := <-c.queue:
			if !ok {
				return
			}
			w.sc = sc
			c.runOne(w, shard)
		}
	}
}

// runOne executes the scenario in w.sc on worker w and folds its
// Observation into the worker's collector shards. Without a results
// channel the worker recycles a single Result, so the run — observation
// included — allocates nothing.
func (c *Campaign) runOne(w *worker, shard []Collector) {
	sc := &w.sc
	ex, err := c.sys.resolveExecutor(sc)
	var res *Result
	if err == nil {
		var reuse *Result
		if c.results == nil {
			if w.res == nil {
				w.res = &Result{}
			}
			reuse = w.res
		}
		res, err = safeRun(c.ctx, ex, c.sys, w, sc, reuse)
	}
	// A run aborted by the campaign's own cancellation did not run at all:
	// it is excluded from the stats (Wait reports the context error next to
	// the scenarios that did complete) instead of counting as a failure.
	if err != nil && c.ctx.Err() != nil && errors.Is(err, c.ctx.Err()) {
		return
	}
	out := Outcome{Scenario: *sc}
	var o Observation
	if err != nil {
		o.Err = true
		out.Err = err
	} else {
		o = core.Observe(res)
		o.InCondition = c.sys.cond != nil && c.sys.cond.Contains(sc.Input)
		// Decided and crashed are disjoint (a process that crashes never
		// reaches a deciding step), so the remainder is the processes the
		// run left undecided — the round limit under an injected-fault
		// transport on synchronous runs, the scan budget on asynchronous
		// ones.
		if u := len(sc.Input) - len(res.Decisions) - len(res.Crashed); u > 0 {
			o.Undecided = u
		}
		if c.verify && ex.synchronous() {
			v := Verify(sc.Input, sc.FP, res, c.sys.p.K)
			o.Verified = true
			o.Violation = !v.OK()
			if c.results != nil {
				// Only a delivered Outcome needs its own copy: taking v's
				// address unconditionally would move every verdict to
				// the heap.
				vc := v
				out.Verdict = &vc
			}
		}
		out.Result = res
	}
	if ex != nil {
		o.Executor = ex.Name()
	}
	o.Label = sc.Label
	for _, col := range shard {
		col.Observe(o)
	}
	if c.results != nil {
		out.Observation = o
		select {
		case c.results <- out:
		case <-c.ctx.Done():
		}
	}
}
