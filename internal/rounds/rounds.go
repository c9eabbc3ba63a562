package rounds

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"kset/internal/vector"
)

// ErrCanceled reports a run aborted between rounds through Options.Cancel.
// Callers driving the engine under a context map it back to the context's
// error; the partially executed run produced no Result.
var ErrCanceled = errors.New("rounds: run canceled")

// ProcessID identifies a process; IDs are 1-based like the paper's p_1..p_n.
type ProcessID int

// Process is a deterministic round-based protocol instance for one process.
// The engine calls Send then Step once per round until Step reports a
// decision (the process then halts: it neither sends nor steps afterwards)
// or the engine's round limit is reached.
type Process interface {
	// Send returns the payload this process broadcasts in the given round.
	// The engine delivers it (subject to crashes) to every process,
	// including the sender itself.
	Send(round int) any
	// Step consumes the payloads received in the given round — recv[i]
	// holds the payload from process i+1, nil if none — and performs the
	// compute phase. It returns done=true with the decided value when the
	// process decides and halts.
	Step(round int, recv []any) (value vector.Value, done bool)
}

// Crash schedules the crash of one process.
type Crash struct {
	// Round is the round during whose send phase the process crashes
	// (≥ 1). The process makes no receive or compute step in that round.
	Round int
	// AfterSends is how many messages, counted along the process's send
	// order for that round, are delivered before the crash (0..n).
	AfterSends int
}

// FailurePattern is the adversary: which processes crash, when, after how
// many deliveries, and (for rounds after the first) in which order each
// process sends.
type FailurePattern struct {
	// Crashes maps a process to its crash schedule.
	Crashes map[ProcessID]Crash
	// Orders optionally overrides the send order of a process in rounds
	// ≥ 2 (the paper fixes round 1's order to p_1..p_n). Each order must
	// be a permutation of all processes.
	Orders map[ProcessID]map[int][]ProcessID
}

// NumCrashes returns the number of scheduled crashes.
func (fp FailurePattern) NumCrashes() int { return len(fp.Crashes) }

// InitialCrashes returns how many processes crash in round 1 before
// sending anything at all — the paper's "initially crashed" processes.
func (fp FailurePattern) InitialCrashes() int {
	c := 0
	for _, cr := range fp.Crashes {
		if cr.Round == 1 && cr.AfterSends == 0 {
			c++
		}
	}
	return c
}

// CrashesByEndOfRound returns how many processes have crashed by the end
// of round r.
func (fp FailurePattern) CrashesByEndOfRound(r int) int {
	c := 0
	for _, cr := range fp.Crashes {
		if cr.Round <= r {
			c++
		}
	}
	return c
}

// Validate checks the pattern against a system of n processes running at
// most maxRounds rounds.
func (fp FailurePattern) Validate(n, maxRounds int) error {
	if err := fp.resolveCrashes(n, nil); err != nil {
		return err
	}
	return fp.validateOrders(n)
}

// resolveCrashes validates the crash schedule against n processes and,
// when tab is non-nil, writes it into the dense per-run crash table
// tab[id] (len n+1; Round 0 marks a process that never crashes). The
// engine resolves the map once per run here so that its send phase reads
// the table instead of probing the map per sender per round.
func (fp FailurePattern) resolveCrashes(n int, tab []Crash) error {
	for id, cr := range fp.Crashes {
		if id < 1 || int(id) > n {
			return fmt.Errorf("rounds: crash of unknown process %d", id)
		}
		if cr.Round < 1 {
			return fmt.Errorf("rounds: process %d crashes in round %d < 1", id, cr.Round)
		}
		if cr.AfterSends < 0 || cr.AfterSends > n {
			return fmt.Errorf("rounds: process %d delivers %d of %d messages", id, cr.AfterSends, n)
		}
		if tab != nil {
			tab[id] = cr
		}
	}
	return nil
}

// validateOrders checks every send-order override against n processes.
func (fp FailurePattern) validateOrders(n int) error {
	for id, byRound := range fp.Orders {
		if id < 1 || int(id) > n {
			return fmt.Errorf("rounds: order for unknown process %d", id)
		}
		for r, order := range byRound {
			if r < 2 {
				return fmt.Errorf("rounds: process %d: round-%d order is fixed by the model", id, r)
			}
			if err := validatePermutation(order, n); err != nil {
				return fmt.Errorf("rounds: process %d round %d: %w", id, r, err)
			}
		}
	}
	return nil
}

func validatePermutation(order []ProcessID, n int) error {
	if len(order) != n {
		return fmt.Errorf("order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n+1)
	for _, id := range order {
		if id < 1 || int(id) > n || seen[id] {
			return fmt.Errorf("order %v is not a permutation of 1..%d", order, n)
		}
		seen[id] = true
	}
	return nil
}

// Decision is one process's decision: who decided, what, and in which
// round (0 for executors without rounds, such as the asynchronous one).
type Decision struct {
	ID    ProcessID
	Value vector.Value
	Round int
}

// String renders the decision as id:value.
func (d Decision) String() string { return fmt.Sprintf("%d:%v", d.ID, d.Value) }

// Result reports one synchronous execution.
type Result struct {
	// Decisions lists the processes that decided, in ascending ID order.
	// len(Decisions) is the number of deciders.
	Decisions []Decision
	// Crashed lists the processes that crashed, in ascending ID order.
	// A process that crashes never decides, so the two lists are disjoint.
	Crashed []ProcessID
	// Rounds is the number of rounds actually executed.
	Rounds int
	// MessagesDelivered counts the message copies the run's transport
	// accepted for delivery (for the default MatrixTransport: delivered
	// messages exactly).
	MessagesDelivered int64
	// Lost, Delayed and Duplicated count the message copies the run's
	// transport dropped, deferred to a later round and duplicated. They
	// are zero under the default MatrixTransport; a fault-injecting
	// transport (see FaultCounter) fills them.
	Lost, Delayed, Duplicated int64
}

// Reset clears the result for reuse, keeping the capacity of its lists.
// Batch drivers that only aggregate statistics pass a recycled Result to
// Engine.RunInto and skip the per-run allocations entirely.
func (r *Result) Reset() {
	*r = Result{Decisions: r.Decisions[:0], Crashed: r.Crashed[:0]}
}

// Decision returns the value process id decided, if it decided.
func (r *Result) Decision(id ProcessID) (vector.Value, bool) {
	i, ok := slices.BinarySearchFunc(r.Decisions, id, func(d Decision, id ProcessID) int { return int(d.ID - id) })
	if !ok {
		return vector.Bottom, false
	}
	return r.Decisions[i].Value, true
}

// MaxDecisionRound returns the latest round at which any process decided
// (0 when nothing was decided).
func (r *Result) MaxDecisionRound() int {
	maxR := 0
	for _, d := range r.Decisions {
		maxR = max(maxR, d.Round)
	}
	return maxR
}

// DistinctDecisions returns the set of decided values.
func (r *Result) DistinctDecisions() vector.Set {
	var s vector.Set
	for _, d := range r.Decisions {
		s = s.Add(d.Value)
	}
	return s
}

// Options configures an execution.
type Options struct {
	// MaxRounds caps the execution; the engine also stops as soon as every
	// live process has decided.
	MaxRounds int
	// Concurrent runs each round's compute phase on a bounded per-run
	// worker pool (min(GOMAXPROCS, 8) goroutines, spawned lazily at the
	// first concurrent round and retired at run end) instead of in-line.
	// Each worker computes a contiguous span of processes into
	// per-process outcome slots, so outcome order — and thus every
	// Result — is identical to the in-line executor's. The concurrent
	// executor exists to exercise protocol implementations under the
	// race detector and to model the paper's "n processes" faithfully.
	Concurrent bool
	// Trace, when non-nil, is filled with the round-by-round events of the
	// execution (rendering payloads with fmt).
	Trace *Trace
	// Transport, when non-nil, overrides how each round's sends reach
	// their destinations (message loss, delay, duplication, reordering —
	// see internal/faultnet). nil selects the engine's built-in
	// MatrixTransport: the paper's reliable crash-respecting delivery.
	Transport Transport
	// Cancel, when non-nil, aborts the run between rounds once the
	// channel is closed: the engine returns ErrCanceled instead of a
	// Result. Batch drivers pass a context's Done channel here so an
	// in-flight synchronous run stops at the next round boundary — at
	// most one round of work after cancellation — instead of running to
	// its MaxRounds bound. A nil channel costs nothing per round.
	Cancel <-chan struct{}
}

// Engine executes synchronous runs while reusing its internal buffers
// (the n×n delivery matrix, liveness bitmaps, the per-run crash table and
// decision records, the identity send order and the per-round outcome
// scratch) across calls. Sweeps that drive thousands of runs — exhaustive
// adversary model checking above all — should create one Engine and call
// its Run repeatedly; each call then costs only the small per-run Result
// (which the caller may retain freely).
//
// An Engine is not safe for concurrent use; Run itself may still use the
// concurrent per-process executor internally.
type Engine struct {
	recv     []any // n×n receive-row scratch; recv[(dst-1)*n:] is dst's row
	alive    []bool
	halted   []bool
	identity []ProcessID
	outcomes []outcome

	// Dense per-ID run state, indexed by ProcessID (len n+1): crash is the
	// run's FailurePattern.Crashes resolved into a table (Round 0 = never
	// crashes), dec[id] is id's decision once halted[id] is set. RunInto
	// emits Result.Decisions and Result.Crashed from them at run end.
	crash []Crash
	dec   []Decision

	// mt is the built-in default transport, embedded so that runs without
	// an Options.Transport override reuse its matrix across runs.
	mt MatrixTransport

	// Row-sharing fast path (in-line executor, identity send orders): the
	// send phase records one payload and delivery limit per sender, and a
	// single receive row is patched incrementally as the destination
	// advances, instead of materializing the n×n matrix.
	pay     []any
	row     []any
	limits  []int
	partial []int // senders whose delivery prefix ends mid-row this round

	// Concurrent executor state: a per-run bounded worker pool fed
	// contiguous process spans over concWork, writing outcomes into
	// per-process slots of concOut (id 0 marks a skipped process).
	// Started lazily by the first concurrent round, stopped at run end.
	concWork chan concSpan
	concWG   sync.WaitGroup
	concOut  []outcome
}

type outcome struct {
	id    ProcessID
	value vector.Value
	done  bool
}

// NewEngine returns an Engine with no buffers allocated yet; they grow to
// the largest n seen and are reused afterwards.
func NewEngine() *Engine { return &Engine{} }

// reset sizes the scratch buffers for a run over n processes.
func (e *Engine) reset(n int) {
	if cap(e.recv) < n*n {
		e.recv = make([]any, n*n)
		e.alive = make([]bool, n+1)
		e.halted = make([]bool, n+1)
		e.crash = make([]Crash, n+1)
		e.dec = make([]Decision, n+1)
		e.identity = make([]ProcessID, n)
		for i := range e.identity {
			e.identity[i] = ProcessID(i + 1)
		}
		e.outcomes = make([]outcome, 0, n)
		e.pay = make([]any, n)
		e.row = make([]any, n)
		e.limits = make([]int, n)
		e.partial = make([]int, 0, n)
	}
	e.recv = e.recv[:n*n]
	e.alive = e.alive[:n+1]
	e.halted = e.halted[:n+1]
	e.crash = e.crash[:n+1]
	e.dec = e.dec[:n+1]
	clear(e.crash)
	e.pay = e.pay[:n]
	e.row = e.row[:n]
	e.limits = e.limits[:n]
	for i := 1; i <= n; i++ {
		e.alive[i] = true
		e.halted[i] = false
	}
}

// Run executes the processes lock-step under the failure pattern. procs[i]
// is process i+1. It returns an error only for malformed configurations;
// protocol outcomes (including nobody deciding) are reported in Result.
// The returned Result is freshly allocated and remains valid after further
// Run calls; only the engine's internal scratch is reused.
func (e *Engine) Run(procs []Process, fp FailurePattern, opts Options) (*Result, error) {
	return e.RunInto(nil, procs, fp, opts)
}

// RunInto is Run writing into a caller-provided Result, which is cleared
// (Reset) and returned; res == nil allocates a fresh one. Sweeps that only
// read each result before the next run recycle one Result and make the
// whole run allocation-free.
func (e *Engine) RunInto(res *Result, procs []Process, fp FailurePattern, opts Options) (*Result, error) {
	n := len(procs)
	if n == 0 {
		return nil, fmt.Errorf("rounds: no processes")
	}
	for i, p := range procs {
		if p == nil {
			return nil, fmt.Errorf("rounds: process %d is nil", i+1)
		}
	}
	if opts.MaxRounds < 1 {
		return nil, fmt.Errorf("rounds: MaxRounds = %d, want ≥ 1", opts.MaxRounds)
	}
	e.reset(n)
	if err := fp.resolveCrashes(n, e.crash); err != nil {
		return nil, err
	}
	if err := fp.validateOrders(n); err != nil {
		return nil, err
	}
	if res == nil {
		res = &Result{
			Decisions: make([]Decision, 0, n),
			Crashed:   make([]ProcessID, 0, fp.NumCrashes()),
		}
	} else {
		res.Reset()
	}

	// Resolve the transport. The shared-row fast path applies only to the
	// default reliable delivery with the in-line executor, no tracing and
	// no send-order overrides; everything else — traced, concurrent,
	// order-overridden or fault-injected runs — flows through the
	// transport seam.
	tr := opts.Transport
	if tr == nil {
		tr = &e.mt
	}
	_, isMatrix := tr.(*MatrixTransport)
	fast := isMatrix && !opts.Concurrent && opts.Trace == nil && len(fp.Orders) == 0
	if !fast {
		tr.Reset(n)
		// Blocking transports (the wire plane) honor the run's cancel
		// channel inside Deliver; the engine still checks it at every
		// round boundary.
		if ca, ok := tr.(CancelAware); ok {
			ca.SetCancel(opts.Cancel)
		}
	}

	if opts.Trace != nil {
		opts.Trace.N = n
		opts.Trace.Rounds = opts.Trace.Rounds[:0]
	}
	// The concurrent executor's workers live at most until run end,
	// whichever way the round loop exits.
	defer e.stopConc()
	for r := 1; r <= opts.MaxRounds; r++ {
		if opts.Cancel != nil {
			select {
			case <-opts.Cancel:
				return nil, ErrCanceled
			default:
			}
		}
		if fast {
			if e.runRoundShared(procs, r, res) {
				break
			}
			continue
		}
		var rt *RoundTrace
		if opts.Trace != nil {
			opts.Trace.Rounds = append(opts.Trace.Rounds, RoundTrace{
				Round:     r,
				Sends:     make(map[ProcessID]SendTrace),
				Decisions: make(map[ProcessID]vector.Value),
			})
			rt = &opts.Trace.Rounds[len(opts.Trace.Rounds)-1]
		}
		if e.runRoundTransport(procs, fp, r, res, opts, tr, rt) {
			break
		}
	}
	for id := 1; id <= n; id++ {
		switch {
		case e.halted[id]:
			res.Decisions = append(res.Decisions, e.dec[id])
		case !e.alive[id]:
			res.Crashed = append(res.Crashed, ProcessID(id))
		}
	}
	if fc, ok := tr.(FaultCounter); ok {
		res.Lost, res.Delayed, res.Duplicated = fc.FaultCounts()
	}
	return res, nil
}

// runRoundTransport executes round r through the transport seam — the
// path of every traced, concurrent, order-overridden or fault-injected
// run — and reports whether the run should stop. With a MatrixTransport
// its results are identical to the shared-row fast path's.
func (e *Engine) runRoundTransport(procs []Process, fp FailurePattern, r int, res *Result, opts Options, tr Transport, rt *RoundTrace) (stop bool) {
	n := len(procs)
	tr.BeginRound(r)

	// Send phase: the engine applies the crash adversary (send order and
	// delivery prefix length) and hands each broadcast to the transport.
	active := false
	for src := 1; src <= n; src++ {
		if !e.alive[src] || e.halted[src] {
			continue
		}
		payload := procs[src-1].Send(r)
		order := e.sendOrder(fp, ProcessID(src), r)
		limit := n
		if cr := e.crash[src]; cr.Round == r {
			limit = cr.AfterSends
			e.alive[src] = false
			if rt != nil {
				rt.Crashes = append(rt.Crashes, ProcessID(src))
			}
		}
		tr.Send(r, ProcessID(src), payload, order, limit)
		if rt != nil {
			rt.Sends[ProcessID(src)] = SendTrace{
				Payload:   fmt.Sprintf("%v", payload),
				Delivered: limit,
			}
		}
		if e.alive[src] {
			active = true
		}
	}
	res.Rounds = r
	res.MessagesDelivered = tr.Delivered()

	// Receive + compute phase. Rows are delivered sequentially — the
	// transport may reuse internal scratch between Deliver calls — into
	// per-destination slices of the engine's receive scratch, so the
	// concurrent executor's Steps still run in parallel safely.
	outcomes := e.outcomes[:0]
	if opts.Concurrent {
		for id := 1; id <= n; id++ {
			if !e.alive[id] || e.halted[id] {
				continue
			}
			tr.Deliver(r, ProcessID(id), e.recv[(id-1)*n:id*n])
		}
		outcomes = e.stepConcurrent(procs, r, outcomes)
	} else {
		for id := 1; id <= n; id++ {
			if !e.alive[id] || e.halted[id] {
				continue
			}
			row := e.recv[(id-1)*n : id*n]
			tr.Deliver(r, ProcessID(id), row)
			v, done := procs[id-1].Step(r, row)
			outcomes = append(outcomes, outcome{ProcessID(id), v, done})
		}
	}
	e.outcomes = outcomes[:0]
	for _, o := range outcomes {
		if o.done {
			e.halted[o.id] = true
			e.dec[o.id] = Decision{ID: o.id, Value: o.value, Round: r}
			if rt != nil {
				rt.Decisions[o.id] = o.value
			}
		}
	}

	if !active {
		return true // every process has crashed or halted
	}
	for id := 1; id <= n; id++ {
		if e.alive[id] && !e.halted[id] {
			return false
		}
	}
	return true
}

// concSpan is one unit of concurrent compute work: run round r's Step for
// the processes in [lo, hi] (1-based, inclusive).
type concSpan struct{ lo, hi, r int }

// concWorkers returns the concurrent executor's pool size for n
// processes: enough goroutines to exercise protocols under the race
// detector and saturate the cores, bounded so per-run spawn cost stays
// flat as n grows.
func concWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	if w > 8 {
		w = 8
	}
	if w > n {
		w = n
	}
	return w
}

// startConc spawns the run's compute workers. They live for one run —
// stepConcurrent feeds them a batch of spans per round — and exit when
// RunInto closes the work channel, so an Engine holds no goroutines
// between runs. Workers write each process's outcome into its own slot
// of concOut (no lock, no append), and the per-round channel/WaitGroup
// handoff orders those writes with the main goroutine's reads.
func (e *Engine) startConc(procs []Process) {
	n := len(procs)
	if cap(e.concOut) < n {
		e.concOut = make([]outcome, n)
	}
	e.concOut = e.concOut[:n]
	work := make(chan concSpan)
	e.concWork = work
	for i := 0; i < concWorkers(n); i++ {
		go func() {
			for sp := range work {
				for id := sp.lo; id <= sp.hi; id++ {
					if !e.alive[id] || e.halted[id] {
						e.concOut[id-1] = outcome{}
						continue
					}
					v, done := procs[id-1].Step(sp.r, e.recv[(id-1)*n:id*n])
					e.concOut[id-1] = outcome{ProcessID(id), v, done}
				}
				e.concWG.Done()
			}
		}()
	}
}

// stopConc shuts the run's compute workers down (no-op when the run never
// used the concurrent executor).
func (e *Engine) stopConc() {
	if e.concWork != nil {
		close(e.concWork)
		e.concWork = nil
	}
}

// stepConcurrent runs one round's receive/compute phase on the engine's
// bounded worker pool (started lazily on the round's first use) and
// returns the appended outcomes. Each worker computes a contiguous span
// of processes into per-process outcome slots; collecting the slots in id
// order afterwards makes the outcome order deterministic, unlike the
// former goroutine-per-process executor's completion-order append.
func (e *Engine) stepConcurrent(procs []Process, r int, outcomes []outcome) []outcome {
	if e.concWork == nil {
		e.startConc(procs)
	}
	n := len(procs)
	w := concWorkers(n)
	span := (n + w - 1) / w
	for lo := 1; lo <= n; lo += span {
		hi := lo + span - 1
		if hi > n {
			hi = n
		}
		e.concWG.Add(1)
		e.concWork <- concSpan{lo: lo, hi: hi, r: r}
	}
	e.concWG.Wait()
	for id := 1; id <= n; id++ {
		if o := e.concOut[id-1]; o.id != 0 {
			outcomes = append(outcomes, o)
		}
	}
	return outcomes
}

// runRoundShared executes round r on the shared-row fast path and reports
// whether the run should stop (every process crashed/halted, or everyone
// alive has decided). Semantics match the matrix path exactly: a sender
// crashing after s sends delivers to destinations p_1..p_s of the fixed
// identity order.
func (e *Engine) runRoundShared(procs []Process, r int, res *Result) (stop bool) {
	n := len(procs)
	// Send phase: one payload and delivery limit per sender. limits[src-1]
	// is −1 for non-senders, otherwise the length of the delivery prefix.
	active := false
	e.partial = e.partial[:0]
	delivered := int64(0)
	for src := 1; src <= n; src++ {
		if !e.alive[src] || e.halted[src] {
			e.limits[src-1] = -1
			continue
		}
		e.pay[src-1] = procs[src-1].Send(r)
		limit := n
		if cr := e.crash[src]; cr.Round == r {
			limit = cr.AfterSends
			e.alive[src] = false
		}
		e.limits[src-1] = limit
		delivered += int64(limit)
		if limit < n {
			e.partial = append(e.partial, src)
		}
		if e.alive[src] {
			active = true
		}
	}
	res.MessagesDelivered += delivered
	res.Rounds = r

	// Receive + compute phase: the row for destination 1, then per
	// destination only the partial senders' entries can change (their
	// prefix ends at dst = limit).
	for src := 1; src <= n; src++ {
		if e.limits[src-1] >= 1 {
			e.row[src-1] = e.pay[src-1]
		} else {
			e.row[src-1] = nil
		}
	}
	outcomes := e.outcomes[:0]
	for dst := 1; dst <= n; dst++ {
		for _, src := range e.partial {
			if e.limits[src-1] == dst-1 {
				e.row[src-1] = nil // dst is past this sender's prefix
			}
		}
		if !e.alive[dst] || e.halted[dst] {
			continue
		}
		v, done := procs[dst-1].Step(r, e.row)
		outcomes = append(outcomes, outcome{ProcessID(dst), v, done})
	}
	e.outcomes = outcomes[:0]
	for _, o := range outcomes {
		if o.done {
			e.halted[o.id] = true
			e.dec[o.id] = Decision{ID: o.id, Value: o.value, Round: r}
		}
	}

	if !active {
		return true // every process has crashed or halted
	}
	for id := 1; id <= n; id++ {
		if e.alive[id] && !e.halted[id] {
			return false
		}
	}
	return true
}

// Run executes the processes lock-step under the failure pattern with a
// one-shot engine. It is the convenience form of Engine.Run; loops over
// many runs should reuse an Engine instead.
func Run(procs []Process, fp FailurePattern, opts Options) (*Result, error) {
	return NewEngine().Run(procs, fp, opts)
}

// sendOrder resolves the send order of src in round r: round 1 is always
// the paper's fixed p_1..p_n (the engine's shared identity order); later
// rounds honor the adversary's override.
func (e *Engine) sendOrder(fp FailurePattern, src ProcessID, r int) []ProcessID {
	if r >= 2 {
		if byRound, ok := fp.Orders[src]; ok {
			if order, ok := byRound[r]; ok {
				return order
			}
		}
	}
	return e.identity
}
