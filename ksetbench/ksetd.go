package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kset"
	"kset/internal/service"
)

// The ksetd traffic mix is offered at ksetdRate requests per second over
// ksetdConns keep-alive connections to an in-process ksetd. The service
// probe of the traced run drives it.
const (
	ksetdRate  = 200
	ksetdConns = 2
)

// jobRunParams are the parameters of every posted job (64 verified runs:
// 16 random inputs × 4 crash patterns). d=0 makes x=t, so the
// asynchronous executor accepts every pattern of up to t crashes.
var jobRunParams = kset.Params{N: 6, T: 3, K: 2, D: 0, L: 1}

const (
	jobM      = 4
	jobInputs = 16
	jobFails  = 4
	jobRuns   = jobInputs * jobFails
)

// jobSpec is the wire form of a posted job.
func jobSpec(jp jobParams, tenant string) service.JobSpec {
	p := jobRunParams
	spec := service.JobSpec{
		Tenant:    tenant,
		Params:    service.ParamsSpec{N: p.N, T: p.T, K: p.K, D: p.D, L: p.L},
		Condition: &service.ConditionSpec{Kind: "max", M: jobM},
		Executor:  jp.Exec,
		Verify:    true,
		Source:    service.SourceSpec{Kind: "random", Seed: jp.InSeed, Count: jobInputs},
	}
	if jp.Failures == "initial" {
		spec.Failures = &service.FailuresSpec{Kind: "initial", MaxF: jobFails - 1}
	} else {
		spec.Failures = &service.FailuresSpec{Kind: "random", Seed: jp.FailSeed, Count: jobFails}
	}
	return spec
}

// refSystems builds the in-process reference: the systems a job spec
// describes, built through the kset facade directly.
func refSystems() (map[string]*kset.System, error) {
	p := jobRunParams
	cond, err := kset.NewMaxCondition(p.N, jobM, p.X(), p.L)
	if err != nil {
		return nil, err
	}
	execs := map[string]kset.Executor{"figure2": kset.Figure2, "early": kset.EarlyDeciding, "classical": kset.Classical, "async": kset.Asynchronous}
	out := make(map[string]*kset.System, len(execs))
	for name, ex := range execs {
		if out[name], err = kset.New(kset.WithParams(p), kset.WithCondition(cond), kset.WithExecutor(ex)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// refStats runs a job's campaign in-process, without HTTP.
func refStats(systems map[string]*kset.System, jp jobParams, opts ...kset.CampaignOption) (*kset.CampaignStats, error) {
	p := jobRunParams
	src := kset.RandomInputs(jp.InSeed, p.N, jobM, jobInputs)
	var fam kset.FailureFamily
	if jp.Failures == "initial" {
		fam = kset.InitialCrashFamily(p.N, jobFails-1)
	} else {
		fam = kset.RandomCrashFamily(jp.FailSeed, p.N, p.T, p.RMax(), jobFails)
	}
	opts = append(opts, kset.VerifyRuns())
	return systems[jp.Exec].RunSource(context.Background(), kset.FailureSchedules(src, fam), opts...)
}

// ksetdSession is an in-process ksetd behind a loopback httptest server.
type ksetdSession struct {
	seed   int64
	srv    *service.Server
	hs     *httptest.Server
	client *http.Client
	phases int

	mu    sync.Mutex
	posts map[int]postRecord // by schedule index, for reads and checks
	last  atomic.Value       // id of the latest finished post
}

// postRecord is a finished post: the job's ID and its terminal stats.
type postRecord struct {
	id    string
	job   jobParams
	stats [sha256.Size]byte // hash of the compact stats JSON
}

// newKsetdSession starts a server with cfg, opens the client's
// connections and warms the job path up.
func newKsetdSession(seed int64, cfg service.Config) (*ksetdSession, error) {
	srv := service.NewServer(cfg)
	hs := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: ksetdConns, MaxIdleConnsPerHost: ksetdConns}
	s := &ksetdSession{
		seed:   seed,
		srv:    srv,
		hs:     hs,
		client: &http.Client{Transport: tr, Timeout: time.Minute},
		posts:  make(map[int]postRecord),
	}
	// Open both connections before timing starts.
	var wg sync.WaitGroup
	errs := make([]error, ksetdConns)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.get("/healthz")
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.close()
		return nil, err
	}
	// Warm up: one job per executor, through the whole job path.
	for i, ex := range jobExecs {
		st, err := s.post(jobSpec(jobParams{Exec: ex, Failures: "initial", InSeed: mix(seed, -5-i)}, "warm-up"), true)
		if err == nil {
			_, err = finished(st)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

func (s *ksetdSession) close() {
	s.hs.Close()
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// get fetches path and returns the body of a 200 reply.
func (s *ksetdSession) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.hs.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// jobStatus is the part of a job status reply the benchmark reads.
type jobStatus struct {
	ID    string          `json:"id"`
	State string          `json:"state"`
	Stats json.RawMessage `json:"stats"`
}

// post submits a job; with wait it blocks until the job is terminal.
func (s *ksetdSession) post(spec service.JobSpec, wait bool) (jobStatus, error) {
	var st jobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	url := s.hs.URL + "/v1/campaigns"
	want := http.StatusAccepted
	if wait {
		url += "?wait=1"
		want = http.StatusOK
	}
	resp, err := s.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != want {
		return st, fmt.Errorf("POST: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, err
	}
	return st, nil
}

// finished validates a waited-for post: done, 64 runs, no violation.
func finished(st jobStatus) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	if st.State != "done" || len(st.Stats) == 0 {
		return sum, fmt.Errorf("job %s ended %q", st.ID, st.State)
	}
	var flat kset.CampaignStats
	if err := json.Unmarshal(st.Stats, &flat); err != nil {
		return sum, err
	}
	if flat.Runs != jobRuns || flat.Errors > 0 || flat.Violations > 0 {
		return sum, fmt.Errorf("job %s: %d runs, %d errors, %d violations", st.ID, flat.Runs, flat.Errors, flat.Violations)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, st.Stats); err != nil {
		return sum, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// sseEvent is one server-sent event.
type sseEvent struct {
	typ  string
	data []byte
	at   time.Time
}

// events reads a job's whole event stream, calling fn at each event.
func (s *ksetdSession) events(id string, fn func(sseEvent)) error {
	resp, err := s.client.Get(s.hs.URL + "/v1/campaigns/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: %s", id, resp.Status)
	}
	var ev sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && ev.typ != "":
			ev.at = time.Now()
			fn(ev)
			ev = sseEvent{}
		}
	}
	return sc.Err()
}

// targetID resolves a read's target post to a job ID: the target's own
// when it has finished, else the latest finished post's.
func (s *ksetdSession) targetID(target int) string {
	s.mu.Lock()
	rec, ok := s.posts[target]
	s.mu.Unlock()
	if ok {
		return rec.id
	}
	id, _ := s.last.Load().(string)
	return id
}

// do issues request i of the schedule.
func (s *ksetdSession) do(i int, r request) error {
	switch r.Kind {
	case reqPost:
		st, err := s.post(jobSpec(r.Job, r.Tenant), true)
		if err != nil {
			return err
		}
		sum, err := finished(st)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.posts[i] = postRecord{id: st.ID, job: r.Job, stats: sum}
		s.mu.Unlock()
		s.last.Store(st.ID)
		return nil
	case reqStatus:
		body, err := s.get("/v1/campaigns/" + s.targetID(r.Target))
		if err != nil {
			return err
		}
		var st jobStatus
		return json.Unmarshal(body, &st)
	case reqEvents:
		var lastType string
		if err := s.events(s.targetID(r.Target), func(ev sseEvent) { lastType = ev.typ }); err != nil {
			return err
		}
		if lastType != "stats" {
			return fmt.Errorf("event replay ended with %q, want stats", lastType)
		}
		return nil
	default:
		_, err := s.get("/v1/campaigns?tenant=" + r.Tenant)
		return err
	}
}

// run plays the open-loop schedule: each connection takes the next due
// request, waits for its due time, and sends it; latency counts from the
// due time, so a stall also charges the requests queued behind it.
func (s *ksetdSession) run(ph phase) *phaseResult {
	sched := schedule(mix(s.seed, s.phases), ksetdRate, ph.dur.Seconds(), chunkOps)
	s.phases++
	if ph.keep {
		s.mu.Lock()
		clear(s.posts)
		s.mu.Unlock()
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	r := newPhaseResult()
	for c := 0; c < ksetdConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := r.start.at.Add(sched[i].Due)
				time.Sleep(time.Until(due))
				r.addLag(time.Since(due))
				id := ph.tr.start("ksetd."+sched[i].Kind.String(), ph.root, int64(i))
				err := s.do(i, sched[i])
				ph.tr.end(id, 1)
				r.add(time.Since(due), err)
			}
		}()
	}
	wg.Wait()
	return r.finish()
}

// check compares every post's terminal stats with an in-process
// RunSource of the same spec.
func (s *ksetdSession) check() (int64, error) {
	systems, err := refSystems()
	if err != nil {
		return 0, err
	}
	var failed int64
	var first error
	for i, rec := range s.posts {
		st, err := refStats(systems, rec.job)
		if err == nil {
			var raw []byte
			if raw, err = json.Marshal(st); err == nil && sha256.Sum256(raw) != rec.stats {
				err = fmt.Errorf("request %d (%s): ksetd stats differ from in-process RunSource", i, rec.id)
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
