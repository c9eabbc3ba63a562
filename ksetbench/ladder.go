package main

import (
	"fmt"
	"strings"
)

// rung is one row of the layer ladder: a layer's cost per unit, how many
// units one unit of the layer above holds, and the resulting share.
type rung struct {
	depth int
	layer string
	cost  float64 // ns per unit
	unit  string
	per   float64 // units per unit of the layer above (0: top of a plane)
	above float64 // ns per unit of the layer above
}

func (r rung) row() string {
	share, per := "—", "—"
	if r.per > 0 && r.above > 0 {
		share = fmt.Sprintf("%.1f%%", 100*r.cost*r.per/r.above)
		per = fmt.Sprintf("%.4g", r.per)
	}
	return fmt.Sprintf("| %s%s | %s | %s | %s |\n",
		strings.Repeat("&nbsp;&nbsp;", r.depth), r.layer, fmtNs(r.cost)+" / "+r.unit, per, share)
}

// fmtNs renders nanoseconds in the largest unit that keeps a leading
// digit.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.3f ms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3f µs", ns/1e3)
	}
	return fmt.Sprintf("%.1f ns", ns)
}

// ladder renders the traced run's layer ladder: per plane, each layer's
// cost and its share of the layer above it, followed by the span table
// with self times.
func ladder(name string, seed int64, m map[string]metric, spans []span) string {
	order, by := aggregate(spans)
	v := func(k string) float64 { return m[k].Value }
	var b strings.Builder
	fmt.Fprintf(&b, "# Layer ladder: %s, seed %d\n\n", name, seed)
	b.WriteString("Costs come from spans the benchmark records around calls into each layer's public functions (see README.md). ")
	b.WriteString("A share is cost × units per unit of the layer above ÷ the cost of that unit.\n\n")
	b.WriteString("| layer | cost | units per unit above | share of layer above |\n|---|---:|---:|---:|\n")

	// Synchronous plane: one 1,024-run op, replayed serially.
	replay := by["kset.replay"].perUnit()
	run := v("core.run_us") * 1e3
	decode := (v("condition.decode_ns.max") + v("condition.decode_ns.compiled")) / 2
	rows := []rung{
		{0, "kset campaign op (wall × 2 workers)", 2 * by["kset.campaign"].perUnit(), "op", 0, 0},
		{1, "serial replay of the op", replay, "op", 1, 2 * by["kset.campaign"].perUnit()},
		{2, "kset.generate", v("kset.generate_us") * 1e3, "op", 1, replay},
		{2, "core.run", run, "run", opScenarios, replay},
		{3, "rounds: engine round (" + fmt.Sprintf("%.3g", v("rounds.rounds_per_run")) + " per run)", v("rounds.ns_per_round"), "round", 0, 0},
		{3, "condition.decode (≤ n per run)", decode, "view", float64(syncMaxParams.N), run},
		{2, "core.verify", v("core.verify_ns"), "run", opScenarios, replay},
		{2, "stats.observe", v("stats.observe_ns"), "run", opScenarios, replay},
		{2, "stats.merge", v("stats.merge_us") * 1e3, "op", 1, replay},
	}
	// Asynchronous plane: scan → run → campaign.
	arun := v("async.run_us") * 1e3
	rows = append(rows,
		rung{0, "async campaign op (wall × 2 workers)", 2 * by["async.campaign"].perUnit(), "op", 0, 0},
		rung{1, "async.Runner.RunInto", arun, "run", opScenarios, 2 * by["async.campaign"].perUnit()},
		rung{2, "async.scan (wait-free)", v("async.scan_ns"), "scan", 0, arun},
	)
	// Service plane: one job through the scheduler.
	queue, exec := v("service.queue_ms")*1e6, v("service.exec_ms")*1e6
	job := queue + exec
	rows = append(rows,
		rung{0, "ksetd job: dispatch + execution", job, "job", 0, 0},
		rung{1, "queue: slot free → running event", queue, "job", 1, job},
		rung{1, "exec: running → stats event", exec, "job", 1, job},
		rung{2, "same campaign in-process (RunSource)", v("service.inproc_ms") * 1e6, "job", 1, exec},
	)
	// Wire plane: one instance over UDP, then without sockets, then
	// without the codec.
	udp, pipe := v("wire.udp_us")*1e3, v("wire.pipe_us")*1e3
	copies := v("wire.copies_per_run")
	rows = append(rows,
		rung{0, "UDP loopback instance", udp, "run", 0, 0},
		rung{1, "same instance over PipeWire (codec, no sockets)", pipe, "run", 1, udp},
		rung{2, "same instance over the matrix (no codec)", v("wire.matrix_us") * 1e3, "run", 1, pipe},
		rung{2, "EncodeFrame + DecodeFrame", v("wire.encode_ns") + v("wire.decode_ns"), "copy", copies, pipe},
	)
	for _, r := range rows {
		b.WriteString(r.row())
	}
	b.WriteString("\n## Spans\n\nSelf time is a span's duration minus the part of it its child spans cover.\n\n")
	b.WriteString(selfTable(order, by))
	return b.String()
}
