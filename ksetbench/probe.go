package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kset"
	"kset/internal/async"
	"kset/internal/condition"
	"kset/internal/core"
	"kset/internal/rounds"
	"kset/internal/service"
	"kset/internal/stats"
	"kset/internal/vector"
	"kset/internal/wire"
)

// Probe sizes: fixed amounts of work, so a traced run costs the same on
// every workload and its count metrics are pure functions of the seed.
const (
	syncProbeOps  = 16     // sync-sweep ops decomposed layer by layer
	asyncProbeOps = 8      // async-sweep ops decomposed run by run
	decodeReps    = 8      // passes over each op's round-1 views
	compileReps   = 3      // explicit-condition compiles
	scanReps      = 200000 // warm wait-free snapshot scans
	serviceJobs   = 40     // jobs timed through queue and execution
	gateInputs    = 256    // inputs of the job holding the slot (1,024 runs)
	serviceLists  = 20     // extra list requests after the burst
	serviceSpecs  = 500    // requests whose job specs are compiled without HTTP
	wireProbeOps  = 300    // scenarios run on each transport
	wireFastReps  = 5      // passes of the in-memory transports
	codecReps     = 200000
)

// prober runs the layer probes of a traced run. Every probe records
// spans around calls into one layer's public functions and derives that
// layer's metrics from them.
type prober struct {
	tr   *tracer
	seed int64
	m    map[string]metric
	// attempted and failed count the probe's own ops (campaigns, runs,
	// requests) and those that failed a check.
	attempted, failed int64
	errs              []error
}

func (p *prober) set(name string, v float64, unit string) { p.m[name] = metric{v, unit} }

// fail records a failed check.
func (p *prober) fail(err error) {
	p.failed++
	p.errs = append(p.errs, err)
}

// runTraced is the traced run. It times the workload's own op loop once
// untraced and once traced (the tracing overhead), checks the traced
// pass's outputs, then runs every layer probe; it prints per-layer
// metrics only and writes the spans and the layer ladder to outDir.
func runTraced(w workload, seed int64, dur time.Duration, outDir string) (report, error) {
	tr := newTracer()
	p := &prober{tr: tr, seed: seed, m: make(map[string]metric)}
	s, _, err := setupSession(w, seed)
	if err != nil {
		return report{}, err
	}
	pass := max(dur/4, time.Second)
	plain := s.run(phase{dur: pass, root: -1})
	root := tr.start("bench.traced_pass", -1, 0)
	traced := s.run(phase{dur: pass, tr: tr, root: root, keep: true})
	tr.end(root, traced.attempted)
	checkFailed, checkErr := s.check()
	s.close()
	for _, r := range []*phaseResult{plain, traced} {
		p.attempted += r.attempted
		p.failed += r.failed
		if r.firstErr != nil {
			p.errs = append(p.errs, r.firstErr)
		}
	}
	p.failed += checkFailed
	if checkErr != nil {
		p.errs = append(p.errs, checkErr)
	}
	p.set("bench.trace_overhead_ratio", mean(traced.lat)/mean(plain.lat), "ratio")

	for _, probe := range []func() error{p.syncLayers, p.asyncLayers, p.serviceLayers, p.wireLayers} {
		if err := probe(); err != nil {
			return report{}, err
		}
	}
	counts, err := countMetrics(seed)
	if err != nil {
		return report{}, err
	}
	for name, want := range counts {
		if got := p.m[name].Value; got != want {
			p.fail(fmt.Errorf("count metric %s: probe measured %v, a second pass %v", name, got, want))
		}
	}
	for _, e := range p.errs {
		fmt.Fprintln(os.Stderr, "ksetbench: output check failed:", e)
	}
	spans := tr.snapshot()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return report{}, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := writeSpans(base+".spans.jsonl", spans); err != nil {
		return report{}, err
	}
	if err := os.WriteFile(base+".ladder.md", []byte(ladder(w.name, seed, p.m, spans)), 0o644); err != nil {
		return report{}, err
	}
	return report{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: p.m}, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// collect iterates a scenario source into a slice.
func collect(src kset.ScenarioSource) []kset.Scenario {
	var out []kset.Scenario
	src.ForEach(func(sc kset.Scenario) bool {
		out = append(out, sc)
		return true
	})
	return out
}

// runSync runs one synchronous scenario on a core.Runner exactly as a
// campaign worker does.
func runSync(r *core.Runner, sy *kset.System, sc kset.Scenario, res *rounds.Result) (*rounds.Result, error) {
	p := sy.Params()
	switch sc.Executor {
	case kset.EarlyDeciding:
		return r.RunEarly(p, sy.Condition(), sc.Input, sc.FP, false, nil, nil, res)
	case kset.Classical:
		return r.RunClassical(p.N, p.T, p.K, sc.Input, sc.FP, false, nil, nil, res)
	}
	return r.RunCond(p, sy.Condition(), sc.Input, sc.FP, false, nil, nil, res)
}

// roundOneView is the view a process holding every round-1 proposal
// except those of processes crashing in round 1 before any send.
func roundOneView(sc kset.Scenario) vector.Vector {
	v := sc.Input.Clone()
	for id, c := range sc.FP.Crashes {
		if c.Round == 1 && c.AfterSends == 0 {
			v[id-1] = vector.Bottom
		}
	}
	return v
}

// syncLayers decomposes sync-sweep ops: each op runs once as the
// workload's campaign and once serially, phase by phase, through the
// layers' own functions (generate → core.Runner → core.Verify →
// core.Observe/Accumulator.Observe → Accumulator.Merge). The serial
// replay's stats must equal the campaign's byte for byte.
func (p *prober) syncLayers() error {
	s0, err := setupSweep(false)(p.seed)
	if err != nil {
		return err
	}
	sess := s0.(*sweepSession)
	root := p.tr.start("probe.sync", -1, 0)
	runner := core.NewRunner()
	results := make([]*rounds.Result, opScenarios)
	for i := range results {
		results[i] = &rounds.Result{}
	}
	verdicts := make([]core.Verdict, opScenarios)
	var runs, hits, nrounds, msgs, campaignHits, campaignMsgs int64
	var sink int
	for op := 0; op < syncProbeOps; op++ {
		src, sy := sess.source(op)
		p.attempted++
		id := p.tr.start("kset.campaign", root, int64(op))
		st, err := sess.runOp(op, 0)
		p.tr.end(id, 1)
		if err != nil {
			p.fail(err)
			continue
		}
		campaignHits += st.ConditionHits
		campaignMsgs += st.MessagesDelivered

		rid := p.tr.start("kset.replay", root, int64(op))
		id = p.tr.start("kset.generate", rid, int64(op))
		scs := collect(src)
		p.tr.end(id, 1)
		id = p.tr.start("core.run", rid, int64(op))
		for j, sc := range scs {
			if _, err := runSync(runner, sy, sc, results[j]); err != nil {
				return fmt.Errorf("sync probe op %d run %d: %w", op, j, err)
			}
		}
		p.tr.end(id, int64(len(scs)))
		id = p.tr.start("core.verify", rid, int64(op))
		for j, sc := range scs {
			verdicts[j] = core.Verify(sc.Input, sc.FP, results[j], sy.Params().K)
		}
		p.tr.end(id, int64(len(scs)))
		id = p.tr.start("stats.observe", rid, int64(op))
		shards := [2]*stats.Accumulator{stats.NewAccumulator(), stats.NewAccumulator()}
		for j, sc := range scs {
			res := results[j]
			o := core.Observe(res)
			o.InCondition = sy.Condition().Contains(sc.Input)
			o.Undecided = max(len(sc.Input)-len(res.Decisions)-len(res.Crashed), 0)
			o.Verified = true
			o.Violation = !verdicts[j].OK()
			o.Executor = sc.Executor.Name()
			shards[j%2].Observe(o)
		}
		p.tr.end(id, int64(len(scs)))
		id = p.tr.start("stats.merge", rid, int64(op))
		acc := stats.NewAccumulator()
		acc.Merge(shards[0])
		acc.Merge(shards[1])
		p.tr.end(id, 1)
		p.tr.end(rid, 1)

		if err := sameJSON(kset.CampaignStatsOf(acc), st); err != nil {
			p.fail(fmt.Errorf("sync probe op %d: serial replay vs campaign: %w", op, err))
		}
		for j, sc := range scs {
			runs++
			nrounds += int64(results[j].Rounds)
			msgs += results[j].MessagesDelivered
			if sy.Condition().Contains(sc.Input) {
				hits++
			}
		}

		name := "condition.decode.max"
		if sy != sess.systems[0] {
			name = "condition.decode.compiled"
		}
		views := make([]vector.Vector, 0, len(scs))
		for _, sc := range scs {
			if v := roundOneView(sc); v.BottomCount() <= sy.Params().X() {
				views = append(views, v)
			}
		}
		id = p.tr.start(name, root, int64(op))
		for rep := 0; rep < decodeReps; rep++ {
			for _, v := range views {
				h, _ := condition.DecodeView(sy.Condition(), v)
				sink += h.Len()
			}
		}
		p.tr.end(id, int64(decodeReps*len(views)))
	}
	if hits != campaignHits || msgs != campaignMsgs {
		p.fail(fmt.Errorf("sync probe: replay counted %d hits, %d messages; campaigns %d, %d", hits, msgs, campaignHits, campaignMsgs))
	}

	ec, err := explicitMaxCondition(syncExplicitParams.N, sweepM, syncExplicitParams.X(), syncExplicitParams.L)
	if err != nil {
		return err
	}
	id := p.tr.start("condition.compile", root, 0)
	for i := 0; i < compileReps; i++ {
		sink += kset.CompileCondition(ec).Size()
	}
	p.tr.end(id, compileReps)
	p.tr.end(root, 1)
	_ = sink

	_, by := aggregate(p.tr.snapshot())
	p.set("kset.generate_us", by["kset.generate"].perUnit()/1e3, "us")
	p.set("kset.fanout_eff", float64(by["kset.replay"].dur)/(2*float64(by["kset.campaign"].dur)), "ratio")
	p.set("condition.decode_ns.max", by["condition.decode.max"].perUnit(), "ns")
	p.set("condition.decode_ns.compiled", by["condition.decode.compiled"].perUnit(), "ns")
	p.set("condition.compile_ms", by["condition.compile"].perUnit()/1e6, "ms")
	p.set("condition.hit_frac", float64(hits)/float64(runs), "frac")
	p.set("core.run_us", by["core.run"].perUnit()/1e3, "us")
	p.set("rounds.rounds_per_run", float64(nrounds)/float64(runs), "count")
	p.set("rounds.msgs_per_run", float64(msgs)/float64(runs), "count")
	p.set("rounds.ns_per_round", float64(by["core.run"].dur)/float64(nrounds), "ns")
	p.set("core.verify_ns", by["core.verify"].perUnit(), "ns")
	p.set("stats.observe_ns", by["stats.observe"].perUnit(), "ns")
	p.set("stats.merge_us", by["stats.merge"].perUnit()/1e3, "us")
	return nil
}

// countMetrics recomputes the probes' count metrics on a second path —
// one System.RunScenario per scenario instead of the probes' campaigns,
// core.Runner replays and UDP runs. The counts are pure functions of the
// seed, so the two must agree exactly.
func countMetrics(seed int64) (map[string]float64, error) {
	s0, err := setupSweep(false)(seed)
	if err != nil {
		return nil, err
	}
	sess := s0.(*sweepSession)
	ctx := context.Background()
	var runs, hits, nrounds, msgs int64
	for op := 0; op < syncProbeOps; op++ {
		src, sy := sess.source(op)
		for _, sc := range collect(src) {
			res, err := sy.RunScenario(ctx, sc)
			if err != nil {
				return nil, err
			}
			runs++
			nrounds += int64(res.Rounds)
			msgs += res.MessagesDelivered
			if sy.Condition().Contains(sc.Input) {
				hits++
			}
		}
	}
	ws := &wireSession{seed: seed, crashes: wireCrashes(seed)}
	if ws.matrix, err = newWireSystem(nil); err != nil {
		return nil, err
	}
	var copies int64
	for i := 0; i < wireProbeOps; i++ {
		res, err := ws.matrix.RunScenario(ctx, ws.scenario(i))
		if err != nil {
			return nil, err
		}
		copies += res.MessagesDelivered
	}
	return map[string]float64{
		"condition.hit_frac":    float64(hits) / float64(runs),
		"rounds.rounds_per_run": float64(nrounds) / float64(runs),
		"rounds.msgs_per_run":   float64(msgs) / float64(runs),
		"wire.copies_per_run":   float64(copies) / wireProbeOps,
	}, nil
}

// sameJSON reports whether two values marshal to identical bytes.
func sameJSON(a, b any) error {
	x, err := json.Marshal(a)
	if err != nil {
		return err
	}
	y, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(x, y) {
		return errors.New("JSON differs")
	}
	return nil
}

// asyncCrashPoints maps a scenario's crash pattern to §4 crash points the
// way the Asynchronous executor does: a round-1 crash before any send
// never writes, any other crash happens after the write.
func asyncCrashPoints(sc kset.Scenario, n int) []async.CrashPoint {
	cp := make([]async.CrashPoint, n)
	for id, c := range sc.FP.Crashes {
		if c.Round == 1 && c.AfterSends == 0 {
			cp[id-1] = async.CrashBeforeWrite
		} else {
			cp[id-1] = async.CrashAfterWrite
		}
	}
	return cp
}

// asyncLayers replays async-sweep ops run by run on an async.Runner,
// splitting runs that decided from runs that gave up, and times warm
// scans of the wait-free snapshot.
func (p *prober) asyncLayers() error {
	s0, err := setupSweep(true)(p.seed)
	if err != nil {
		return err
	}
	sess := s0.(*sweepSession)
	root := p.tr.start("probe.async", -1, 0)
	runner := async.NewRunner()
	var out async.Outcome
	var runs, decided int64
	for op := 0; op < asyncProbeOps; op++ {
		src, sy := sess.source(op)
		p.attempted++
		id := p.tr.start("async.campaign", root, int64(op))
		st, err := sess.runOp(op, 0)
		p.tr.end(id, 1)
		if err != nil {
			p.fail(err)
			continue
		}
		rid := p.tr.start("async.replay", root, int64(op))
		scs := collect(src)
		var gaveUp int64
		for _, sc := range scs {
			cp := asyncCrashPoints(sc, sy.Params().N)
			id := p.tr.start("async.run", rid, int64(op))
			err := runner.RunInto(async.Config{
				X: sy.Params().X(), Cond: sy.Condition(), Input: sc.Input, CrashPoints: cp,
				Seed: sc.Seed, Memory: async.WaitFreeMemory,
			}, &out)
			if err != nil {
				return fmt.Errorf("async probe op %d: %w", op, err)
			}
			name := "async.run"
			if len(out.Undecided) > 0 {
				name = "async.giveup_run"
				gaveUp++
			}
			p.tr.endAs(id, name, 1)
		}
		p.tr.end(rid, 1)
		runs += int64(len(scs))
		decided += int64(len(scs)) - gaveUp
		if gaveUp != st.UndecidedRuns {
			p.fail(fmt.Errorf("async probe op %d: replay gave up %d runs, campaign %d", op, gaveUp, st.UndecidedRuns))
		}
	}
	n := asyncParams.N
	snap := async.NewAtomicSnapshot(n)
	for i := 0; i < n; i++ {
		snap.Write(i, vector.Value(1+i%sweepM))
	}
	sink := 0
	id := p.tr.start("async.scan", root, 0)
	for i := 0; i < scanReps; i++ {
		sink += len(snap.Scan())
	}
	p.tr.end(id, scanReps)
	p.tr.end(root, 1)
	_ = sink

	_, by := aggregate(p.tr.snapshot())
	all := by["async.run"].dur
	if g := by["async.giveup_run"]; g != nil {
		all += g.dur
	}
	p.set("async.run_us", float64(all)/float64(runs)/1e3, "us")
	p.set("async.giveup_run_us", by["async.giveup_run"].perUnit()/1e3, "us")
	p.set("async.decided_frac", float64(decided)/float64(runs), "frac")
	p.set("async.scan_ns", by["async.scan"].perUnit(), "ns")
	return nil
}

// serviceLayers drives an in-process ksetd: spec compilation alone, a
// traced open-loop burst of the ksetd traffic mix, jobs timed through
// the scheduler (timeJobs), and list requests over the retained jobs.
func (p *prober) serviceLayers() error {
	sess, err := newKsetdSession(p.seed, service.Config{})
	if err != nil {
		return err
	}
	defer sess.close()
	root := p.tr.start("probe.service", -1, 0)

	sched := schedule(mix(p.seed, -4), ksetdRate, 0, serviceSpecs)
	var jobs []jobParams
	for _, r := range sched {
		if r.Kind == reqPost {
			jobs = append(jobs, r.Job)
		}
	}
	specs := make([]service.JobSpec, len(jobs))
	for i, jp := range jobs {
		specs[i] = jobSpec(jp, "probe")
	}
	id := p.tr.start("service.compile", root, 0)
	for _, sp := range specs {
		if _, err := service.Compile(sp); err != nil {
			return fmt.Errorf("service probe: compile: %w", err)
		}
	}
	p.tr.end(id, int64(len(specs)))

	heap0 := liveHeap()
	bid := p.tr.start("ksetd.burst", root, 0)
	// A zero-length phase plays the schedule's minimum of 1,000 requests.
	burst := sess.run(phase{tr: p.tr, root: bid, keep: true})
	p.tr.end(bid, burst.attempted)
	heap1 := liveHeap()
	checkFailed, checkErr := sess.check()
	p.attempted += burst.attempted
	p.failed += burst.failed + checkFailed
	for _, e := range []error{burst.firstErr, checkErr} {
		if e != nil {
			p.errs = append(p.errs, e)
		}
	}

	if err := p.timeJobs(root, jobs); err != nil {
		return err
	}
	for k := 0; k < serviceLists; k++ {
		p.attempted++
		id := p.tr.start("ksetd.list", root, int64(k))
		if _, err := sess.get("/v1/campaigns?tenant=t0"); err != nil {
			p.fail(err)
		}
		p.tr.end(id, 1)
	}
	p.tr.end(root, 1)

	_, by := aggregate(p.tr.snapshot())
	p.set("service.compile_us", by["service.compile"].perUnit()/1e3, "us")
	p.set("service.queue_ms", by["service.queue"].perUnit()/1e6, "ms")
	p.set("service.exec_ms", by["service.exec"].perUnit()/1e6, "ms")
	p.set("service.inproc_ms", by["service.inproc"].perUnit()/1e6, "ms")
	p.set("service.status_ms", by["ksetd.status"].perUnit()/1e6, "ms")
	p.set("service.list_ms", by["ksetd.list"].perUnit()/1e6, "ms")
	p.set("service.heap_kib_per_job", float64(int64(heap1)-int64(heap0))/1024/float64(len(sess.posts)), "KiB")
	p.set("service.accept_frac", float64(burst.attempted-burst.failed)/float64(burst.attempted), "frac")
	p.set("bench.gen_lag_ms", median(burst.lag), "ms")
	return nil
}

// timeJobs times jobs through the scheduler on a single-slot server. A
// gate job holds the slot while the timed job is posted and its event
// stream opened, so the stream is live: queue time is from the gate's
// terminal event to the timed job's running event (the dispatch), and
// execution from running to the terminal stats event, which must equal
// an in-process RunSource of the same spec (timed too). The jobs run on
// one campaign worker, leaving the other CPU to the event streams, whose
// arrival times would otherwise lag behind the job they report.
func (p *prober) timeJobs(root int, jobs []jobParams) error {
	sess, err := newKsetdSession(p.seed, service.Config{MaxActive: 1})
	if err != nil {
		return err
	}
	defer sess.close()
	systems, err := refSystems()
	if err != nil {
		return err
	}
	for k := 0; k < serviceJobs && k < len(jobs); k++ {
		jp := jobs[k]
		p.attempted++
		gate, spec := jobSpec(jp, "probe"), jobSpec(jp, "probe")
		gate.Source.Count = gateInputs
		gate.Workers, spec.Workers = 1, 1
		g, err := sess.post(gate, false)
		if err != nil {
			p.fail(err)
			continue
		}
		j, err := sess.post(spec, false)
		if err != nil {
			p.fail(err)
			continue
		}
		var gateDone time.Time
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = sess.events(g.ID, func(ev sseEvent) {
				if ev.typ == "stats" {
					gateDone = ev.at
				}
			})
		}()
		var running, done time.Time
		var final []byte
		err = sess.events(j.ID, func(ev sseEvent) {
			switch ev.typ {
			case "running":
				running = ev.at
			case "stats":
				done, final = ev.at, ev.data
			}
		})
		wg.Wait()
		if err == nil && (gateDone.IsZero() || running.IsZero() || done.IsZero()) {
			err = fmt.Errorf("job %s: event stream incomplete", j.ID)
		}
		if err != nil {
			p.fail(err)
			continue
		}
		if running.Before(gateDone) { // events read on two connections
			gateDone = running
		}
		p.tr.record("service.queue", root, int64(k), gateDone, running, 1)
		p.tr.record("service.exec", root, int64(k), running, done, 1)
		id := p.tr.start("service.inproc", root, int64(k))
		ref, err := refStats(systems, jp, kset.CampaignWorkers(1))
		p.tr.end(id, 1)
		if err == nil {
			var want []byte
			if want, err = json.Marshal(ref); err == nil && !bytes.Equal(want, final) {
				err = fmt.Errorf("job %s: terminal stats event differs from in-process RunSource", j.ID)
			}
		}
		if err != nil {
			p.fail(err)
		}
	}
	return nil
}

// wireLayers runs the same scenarios over the matrix transport, the
// in-memory frame codec (PipeWire) and UDP loopback, and times the
// frame codec alone.
func (p *prober) wireLayers() error {
	ws, err := setupWire(p.seed)
	if err != nil {
		return err
	}
	pipe, err := newWireSystem(kset.PipeWire())
	if err != nil {
		return err
	}
	root := p.tr.start("probe.wire", -1, 0)
	scs := make([]kset.Scenario, wireProbeOps)
	for i := range scs {
		scs[i] = ws.scenario(i)
	}
	ctx := context.Background()
	copies := map[string]int64{}
	var lost int64
	for _, pl := range []struct {
		name string
		sys  *kset.System
		reps int
	}{{"wire.matrix", ws.matrix, wireFastReps}, {"wire.pipe", pipe, wireFastReps}, {"wire.udp", ws.udp, 1}} {
		id := p.tr.start(pl.name, root, 0)
		for rep := 0; rep < pl.reps; rep++ {
			for i, sc := range scs {
				res, err := pl.sys.RunScenario(ctx, sc)
				if err != nil {
					return fmt.Errorf("wire probe %s op %d: %w", pl.name, i, err)
				}
				if rep == 0 {
					copies[pl.name] += res.MessagesDelivered
					if pl.name == "wire.udp" {
						lost += res.Lost
					}
				}
			}
		}
		p.tr.end(id, int64(pl.reps*len(scs)))
	}
	p.attempted += int64(len(scs))
	if lost > 0 {
		p.fail(fmt.Errorf("wire probe: %d copies lost on loopback", lost))
	}
	if copies["wire.udp"] != copies["wire.matrix"] || copies["wire.pipe"] != copies["wire.matrix"] {
		p.fail(fmt.Errorf("wire probe: copies delivered differ across transports: %v", copies))
	}

	frames := codecFrames(wireParams.N)
	buf := make([]byte, wire.MaxFrame)
	encoded := make([][]byte, len(frames))
	for i := range frames {
		n, err := wire.EncodeFrame(buf, &frames[i])
		if err != nil {
			return fmt.Errorf("wire probe: encode: %w", err)
		}
		encoded[i] = append([]byte(nil), buf[:n]...)
	}
	id := p.tr.start("wire.encode", root, 0)
	for i := 0; i < codecReps; i++ {
		if _, err := wire.EncodeFrame(buf, &frames[i%len(frames)]); err != nil {
			return err
		}
	}
	p.tr.end(id, codecReps)
	id = p.tr.start("wire.decode", root, 0)
	for i := 0; i < codecReps; i++ {
		if _, err := wire.DecodeFrame(encoded[i%len(encoded)]); err != nil {
			return err
		}
	}
	p.tr.end(id, codecReps)
	p.tr.end(root, 1)

	_, by := aggregate(p.tr.snapshot())
	p.set("wire.matrix_us", by["wire.matrix"].perUnit()/1e3, "us")
	p.set("wire.pipe_us", by["wire.pipe"].perUnit()/1e3, "us")
	p.set("wire.udp_us", by["wire.udp"].perUnit()/1e3, "us")
	p.set("wire.encode_ns", by["wire.encode"].perUnit(), "ns")
	p.set("wire.decode_ns", by["wire.decode"].perUnit(), "ns")
	p.set("wire.copies_per_run", float64(copies["wire.udp"])/float64(len(scs)), "count")
	p.set("wire.delivered_frac", float64(copies["wire.udp"])/float64(copies["wire.udp"]+lost), "frac")
	return nil
}

// codecFrames is the frame mix Figure 2 puts on the wire: round-1 value
// proposals and flood-round state triples between every pair.
func codecFrames(n int) []wire.Frame {
	var out []wire.Frame
	for src := 1; src <= n; src++ {
		for dst := 1; dst <= n; dst++ {
			v := vector.Value(1 + (src+dst)%wireM)
			out = append(out,
				wire.Frame{Type: wire.TypeData, Round: 1, Src: rounds.ProcessID(src), Dst: rounds.ProcessID(dst), Payload: v},
				wire.Frame{Type: wire.TypeData, Round: 2, Src: rounds.ProcessID(src), Dst: rounds.ProcessID(dst),
					Payload: &core.StateMsg{Cond: v, Out: vector.Bottom, Tmf: vector.Bottom}})
		}
	}
	return out
}
