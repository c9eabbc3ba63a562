package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Times are nanoseconds since the tracer's epoch. N is the
// number of work units the span covers (1 for a single call, the batch
// size for a timed loop), so Σduration ÷ ΣN is the per-unit cost.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Op     int64  `json:"op"`     // identifier shared by the spans of one op
	N      int64  `json:"n"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) start(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op, N: 1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes span id, which covered n work units.
func (t *tracer) end(id int, n int64) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].N = n
	t.mu.Unlock()
}

// record adds a closed span whose bounds were observed elsewhere (an
// event's arrival on a stream, say).
func (t *tracer) record(name string, parent int, op int64, from, to time.Time, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(from.Sub(t.epoch)), End: int64(to.Sub(t.epoch)), Parent: parent, Op: op, N: n})
	t.mu.Unlock()
}

// endAs closes span id under a name chosen once the call has returned
// (a run that gave up, say).
func (t *tracer) endAs(id int, name string, n int64) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Name = name
	t.spans[id].N = n
	t.mu.Unlock()
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals. Children
// may nest, overlap each other (concurrent workers) or reach past the
// parent's bounds; only the covered part inside the parent counts, once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s.Start, s.End, kids[i])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// agg sums the spans of one name.
type agg struct {
	name, parent string
	count        int
	dur, self, n int64
}

// perUnit is the mean cost of one work unit in nanoseconds.
func (a *agg) perUnit() float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.dur) / float64(a.n)
}

// aggregate groups spans by name, in first-seen order.
func aggregate(spans []span) ([]*agg, map[string]*agg) {
	self := selfTimes(spans)
	byName := make(map[string]*agg)
	var order []*agg
	for i, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{name: s.Name}
			if s.Parent >= 0 {
				a.parent = spans[s.Parent].Name
			}
			byName[s.Name] = a
			order = append(order, a)
		}
		a.count++
		a.dur += s.End - s.Start
		a.self += self[i]
		a.n += s.N
	}
	return order, byName
}

// selfTable renders the span tree by name: each name's total and self
// time and its share of its parent's total.
func selfTable(order []*agg, byName map[string]*agg) string {
	out := "| span | parent | spans | units | total ms | self ms | share of parent |\n|---|---|---:|---:|---:|---:|---:|\n"
	for _, a := range order {
		share := "—"
		if p := byName[a.parent]; p != nil && p.dur > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(a.dur)/float64(p.dur))
		}
		parent := a.parent
		if parent == "" {
			parent = "—"
		}
		out += fmt.Sprintf("| %s | %s | %d | %d | %.3f | %.3f | %s |\n",
			a.name, parent, a.count, a.n, float64(a.dur)/1e6, float64(a.self)/1e6, share)
	}
	return out
}
