package main

import (
	"fmt"
	"math/rand"
	"time"

	"kset"
)

// mix derives an independent 63-bit seed for item i of the stream keyed
// by seed (splitmix64 finalizer), so every op's inputs are a pure
// function of (seed, op index).
func mix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// opSource is the benchmark's own generator layer over a kset
// ScenarioSource: scenario j of the stream gets executor execs[j mod
// len(execs)] (when execs is set) and the per-run scheduler seed
// mix(seed, j), so a cross product the kset combinators cannot express
// without tripling the op size stays one 1,024-scenario stream.
type opSource struct {
	src   kset.ScenarioSource
	execs []kset.Executor
	seed  int64
}

func (s opSource) ForEach(yield func(kset.Scenario) bool) {
	j := 0
	s.src.ForEach(func(sc kset.Scenario) bool {
		if len(s.execs) > 0 {
			sc.Executor = s.execs[j%len(s.execs)]
		}
		sc.Seed = mix(s.seed, j)
		j++
		return yield(sc)
	})
}

func (s opSource) Size() (int64, bool) { return s.src.Size() }

// opScenarios is the scenario count of one sweep op.
const opScenarios = 1024

// reqKind is the type of one request of the ksetd traffic mix.
type reqKind int

const (
	reqPost   reqKind = iota // POST /v1/campaigns?wait=1
	reqStatus                // GET /v1/campaigns/{id}
	reqEvents                // GET /v1/campaigns/{id}/events
	reqList                  // GET /v1/campaigns
)

func (k reqKind) String() string {
	return [...]string{"post", "status", "events", "list"}[k]
}

// jobParams is the seeded part of one posted job.
type jobParams struct {
	Exec     string // figure2, early, classical, async
	Failures string // initial, random
	InSeed   int64
	FailSeed int64
}

// request is one entry of the open-loop schedule.
type request struct {
	Due    time.Duration // offset from the start of the timed phase
	Kind   reqKind
	Job    jobParams // for reqPost
	Tenant string    // reqPost: the job's tenant; reqList: the list filter
	Target int       // schedule index of an earlier post, for reads
}

// The ksetd traffic mix: 85% job posts, 14% reads of an earlier job
// (status or event replay, half each) and 1% list requests.
const (
	postShare   = 0.85
	statusShare = 0.07
	eventsShare = 0.07
	// readLag keeps reads off the newest posts, which may still run.
	readLag = 3
	// tenants share the jobs; a list request asks for one tenant's. A
	// list still walks every retained job but renders a sixteenth of
	// them, so late lists do not tower over the rest of the traffic and
	// the 99th percentile does not sit on the edge of the list class.
	tenants = 16
)

var jobExecs = []string{"figure2", "early", "classical", "async"}

// schedule generates the open-loop request schedule: exponential
// inter-arrival times at rate per second, until both the offset reaches
// seconds and at least minOps requests exist. It is a pure function of
// its arguments.
func schedule(seed int64, rate, seconds float64, minOps int) []request {
	rng := rand.New(rand.NewSource(seed))
	horizon := time.Duration(seconds * float64(time.Second))
	var (
		out   []request
		posts []int
		at    time.Duration
	)
	for len(out) < minOps || at < horizon {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		r := request{Due: at}
		u := rng.Float64()
		switch {
		case u < postShare || len(posts) <= readLag:
			r.Kind = reqPost
		case u < postShare+statusShare:
			r.Kind = reqStatus
		case u < postShare+statusShare+eventsShare:
			r.Kind = reqEvents
		default:
			r.Kind = reqList
		}
		r.Tenant = fmt.Sprintf("t%d", rng.Intn(tenants))
		switch r.Kind {
		case reqPost:
			r.Job = jobParams{
				Exec:     jobExecs[rng.Intn(len(jobExecs))],
				Failures: [...]string{"initial", "random"}[rng.Intn(2)],
				InSeed:   rng.Int63(),
				FailSeed: rng.Int63(),
			}
			posts = append(posts, len(out))
		case reqStatus, reqEvents:
			r.Target = posts[rng.Intn(len(posts)-readLag)]
		}
		out = append(out, r)
	}
	return out
}
