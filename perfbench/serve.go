package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/grover"
	"repro/internal/serve"
	"repro/internal/supremacy"
)

// The serve workload's open loop: jobs arrive at serveRate per second,
// evenly spaced, about a quarter of the capacity measured on the
// reference host (see NOTES.md), from serveClients clients that each
// hold one connection.
const (
	serveRate      = 5.0
	serveClients   = 2
	serveWorkers   = 2
	serveTemplates = 32
	pollInterval   = 2 * time.Millisecond
	// serveSetupReps is how many set-ups a serve run times; a set-up
	// costs tens of milliseconds, so more of them are cheap.
	serveSetupReps = 5
	// sloLimit is the job latency limit of job_slo_miss_ratio.
	sloLimit = 500 * time.Millisecond
	// drainLimit bounds how long the load generator waits for the last
	// jobs after the schedule ends.
	drainLimit = 30 * time.Second
)

// jobTemplate is one job body with the in-process reference summary
// the server's answer must match.
type jobTemplate struct {
	body      []byte
	spec      *serve.JobSpec
	want      serve.JobSummary
	peakNodes int
}

// makeTemplates builds the seeded job templates: grover_13 searches
// (about 2.2k gates, so the server's periodic checkpoints every 256
// gates fire) and 3×4 depth-12 supremacy circuits, all with shots. Both
// kinds cost about the same to run, so the latency distribution has one
// mode and its median does not flip between two.
func makeTemplates(seed int64) ([]*jobTemplate, error) {
	rng := rand.New(rand.NewSource(seed))
	var ts []*jobTemplate
	for i := 0; i < serveTemplates; i++ {
		var c *circuit.Circuit
		shots := 256
		if i%2 == 0 {
			c = grover.Circuit(13, uint64(rng.Int63n(1<<13)), 0)
			shots = 128
		} else {
			c = supremacy.Circuit(3, 4, 12, rng.Int63())
		}
		t, err := newTemplate(c, shots, rng.Int63n(1<<30))
		if err != nil {
			return nil, fmt.Errorf("template %d: %w", i, err)
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// newTemplate builds a job body for c and its reference.
func newTemplate(c *circuit.Circuit, shots int, seed int64) (*jobTemplate, error) {
	body, err := json.Marshal(serve.JobSpec{Strategy: "sequential", Circuit: c.String(), Shots: shots, Seed: seed})
	if err != nil {
		return nil, err
	}
	return referenceJob(body)
}

// referenceJob decodes a job body the way the server does and runs it
// in-process, computing the summary fields the server must reproduce.
func referenceJob(body []byte) (*jobTemplate, error) {
	spec, circ, err := serve.DecodeJobRequest(body, serve.Caps{})
	if err != nil {
		return nil, err
	}
	st, err := serve.StrategyFor(spec)
	if err != nil {
		return nil, err
	}
	res, err := core.RunContext(context.Background(), circ, core.Options{Strategy: st, Seed: spec.Seed, Engine: dd.New()})
	if err != nil {
		return nil, err
	}
	t := &jobTemplate{body: body, spec: spec, peakNodes: res.Stats.PeakVNodes + res.Stats.PeakMNodes}
	t.want = serve.JobSummary{
		StateNodes: res.Engine.SizeV(res.State),
		Norm:       res.State.Norm(),
		Samples:    make(map[string]int),
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	for i := 0; i < spec.Shots; i++ {
		t.want.Samples[fmt.Sprintf("%0*b", circ.NQubits, res.State.SampleAll(rng))]++
	}
	return t, nil
}

// checkSummary compares a served job's summary with its reference.
func (t *jobTemplate) checkSummary(got *serve.JobSummary) error {
	if got == nil {
		return errors.New("done without a summary")
	}
	if got.StateNodes != t.want.StateNodes {
		return fmt.Errorf("state_nodes %d, want %d", got.StateNodes, t.want.StateNodes)
	}
	if d := got.Norm - t.want.Norm; d > 1e-9 || d < -1e-9 {
		return fmt.Errorf("norm %.12f, want %.12f", got.Norm, t.want.Norm)
	}
	shots := 0
	for _, n := range got.Samples {
		shots += n
	}
	if shots != t.spec.Shots {
		return fmt.Errorf("%d shots, want %d", shots, t.spec.Shots)
	}
	if !reflect.DeepEqual(got.Samples, t.want.Samples) {
		return errors.New("shot histogram differs from the in-process reference")
	}
	return nil
}

// server is an in-process ddserve on a loopback listener.
type server struct {
	srv     *serve.Server
	hs      *http.Server
	url     string
	dir     string
	stopped chan struct{}
}

func startServer(dir string) (*server, error) {
	srv, err := serve.New(serve.Config{Dir: dir, Workers: serveWorkers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Kill()
		return nil, err
	}
	s := &server{
		srv:     srv,
		hs:      &http.Server{Handler: serve.Handler(srv)},
		url:     "http://" + ln.Addr().String(),
		dir:     dir,
		stopped: make(chan struct{}),
	}
	go func() {
		defer close(s.stopped)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// stop shuts the HTTP server and the worker pool down and waits for
// both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.stopped
	return errors.Join(err, s.srv.Drain(ctx))
}

// journalBytes is the journal directory's total file size.
func (s *server) journalBytes() int64 {
	var n int64
	filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// serveSetup is a started server with the job templates.
type serveSetup struct {
	srv       *server
	templates []*jobTemplate
}

// setupServe is what the service does before taking load: open a fresh
// journal, start the server and serve one warm-up job (the same job
// for every seed) to completion.
func setupServe(cfg config, rep int, warm *jobTemplate) (*server, float64, error) {
	start := time.Now()
	srv, err := startServer(filepath.Join(cfg.workdir, fmt.Sprintf("journal-%d", rep)))
	if err != nil {
		return nil, 0, err
	}
	c := newClient()
	defer c.close()
	j := &jobRecord{tmpl: warm, client: "warmup", due: time.Now()}
	if err := c.submit(srv.url, j, nil); err == nil && !j.refused {
		for !j.terminal && j.err == nil {
			time.Sleep(time.Millisecond)
			c.poll(srv.url, j)
		}
	} else {
		j.err = err
	}
	if j.err == nil && !j.done {
		j.err = errors.New("warm-up job failed")
	}
	if j.err != nil {
		return nil, 0, errors.Join(fmt.Errorf("serve: warm-up: %w", j.err), srv.stop())
	}
	return srv, time.Since(start).Seconds(), nil
}

// prepareServe builds the seeded job templates and the warm-up job
// with their in-process references (the benchmark's oracle, not part
// of set-up time), then sets up reps times, keeping the last server.
func prepareServe(cfg config, reps int) (*serveSetup, float64, error) {
	ts, err := makeTemplates(cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	warm, err := newTemplate(grover.Circuit(10, 0, 0), 128, 1)
	if err != nil {
		return nil, 0, err
	}
	s := &serveSetup{templates: ts}
	var times []float64
	for i := 0; i < reps; i++ {
		if s.srv != nil {
			if err := s.srv.stop(); err != nil {
				return nil, 0, err
			}
		}
		srv, t, err := setupServe(cfg, i, warm)
		if err != nil {
			return nil, 0, err
		}
		s.srv = srv
		times = append(times, t)
	}
	return s, median(times), nil
}

// jobRecord follows one scheduled job.
type jobRecord struct {
	tmpl     *jobTemplate
	client   string
	due      time.Time
	submitS  float64
	decodeS  float64
	id       string
	polls    int
	nextPoll time.Time
	refused  bool
	terminal bool
	done     bool
	latency  float64
	status   serve.JobStatus
	err      error
}

// client is one load-generator connection.
type client struct {
	hc *http.Client
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// submit posts the job under its client's name and times the request.
// 429 and 503 mark it refused. A traced run (tr non-nil) also times
// serve.DecodeJobRequest on the body.
func (c *client) submit(url string, j *jobRecord, tr *serveTrace) error {
	spec := *j.tmpl.spec
	spec.Client = j.client
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	if tr != nil {
		t0 := time.Now()
		_, _, err := serve.DecodeJobRequest(body, serve.Caps{})
		j.decodeS = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
	}
	sent := time.Now()
	resp, err := c.hc.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	j.submitS = time.Since(sent).Seconds()
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		j.refused = true
		return nil
	default:
		return fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	j.id = st.ID
	j.nextPoll = time.Now().Add(pollInterval)
	return nil
}

// poll reads the job's result once; a terminal answer settles it.
func (c *client) poll(url string, j *jobRecord) {
	j.polls++
	resp, err := c.hc.Get(url + "/v1/jobs/" + j.id + "/result")
	if err != nil {
		j.err = err
		return
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	now := time.Now()
	if err != nil {
		j.err = err
		return
	}
	if resp.StatusCode == http.StatusAccepted {
		j.nextPoll = now.Add(pollInterval)
		return
	}
	j.terminal = true
	j.latency = now.Sub(j.due).Seconds()
	if err := json.Unmarshal(b, &j.status); err != nil {
		j.err = fmt.Errorf("result: HTTP %d: %w", resp.StatusCode, err)
		return
	}
	if resp.StatusCode != http.StatusOK || j.status.State != serve.StateDone {
		j.err = fmt.Errorf("job %s %s: %s", j.id, j.status.State, j.status.Error)
		return
	}
	j.done = true
	j.err = j.tmpl.checkSummary(j.status.Summary)
}

// serveTrace collects a traced load phase's extra observations.
type serveTrace struct {
	mu         sync.Mutex
	queueDepth int
}

func (t *serveTrace) sampleQueue(s *serve.Server) {
	d := s.QueueDepth()
	t.mu.Lock()
	t.queueDepth = max(t.queueDepth, d)
	t.mu.Unlock()
}

// loadResult is one open-loop phase's records.
type loadResult struct {
	jobs []*jobRecord
	lags []float64
	cpuS float64
}

// schedule lays out the seeded open-loop schedule: evenly spaced jobs
// at serveRate for the given duration, templates drawn from the seed.
func schedule(seed int64, ts []*jobTemplate, seconds float64, start time.Time) []*jobRecord {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	n := max(1, int(seconds*serveRate))
	jobs := make([]*jobRecord, n)
	for i := range jobs {
		jobs[i] = &jobRecord{
			tmpl:   ts[rng.Intn(len(ts))],
			client: fmt.Sprintf("client-%d", i%serveClients),
			due:    start.Add(time.Duration(float64(i) / serveRate * float64(time.Second))),
		}
	}
	return jobs
}

// runLoad drives one open-loop phase: each client submits its share of
// the schedule when due and polls its outstanding jobs in between.
func runLoad(s *serveSetup, seed int64, seconds float64, tr *serveTrace) *loadResult {
	start := time.Now().Add(20 * time.Millisecond)
	jobs := schedule(seed, s.templates, seconds, start)
	res := &loadResult{jobs: jobs, lags: make([]float64, len(jobs))}
	c0 := cpuTime()
	var wg sync.WaitGroup
	for k := 0; k < serveClients; k++ {
		var mine []int
		for i := k; i < len(jobs); i += serveClients {
			mine = append(mine, i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			driveClient(s, jobs, mine, res.lags, tr)
		}()
	}
	wg.Wait()
	res.cpuS = (cpuTime() - c0).Seconds()
	return res
}

// driveClient is one client's event loop over its jobs (indices into
// jobs, in due order). It writes only its own jobs and lags entries.
func driveClient(s *serveSetup, jobs []*jobRecord, mine []int, lags []float64, tr *serveTrace) {
	c := newClient()
	defer c.close()
	url := s.srv.url
	var outstanding []*jobRecord
	next := 0
	giveUp := time.Time{}
	for next < len(mine) || len(outstanding) > 0 {
		now := time.Now()
		if tr != nil {
			tr.sampleQueue(s.srv.srv)
		}
		if next < len(mine) && !now.Before(jobs[mine[next]].due) {
			i := mine[next]
			j := jobs[i]
			next++
			lags[i] = now.Sub(j.due).Seconds()
			if err := c.submit(url, j, tr); err != nil {
				j.err = err
				continue
			}
			if !j.refused {
				outstanding = append(outstanding, j)
			}
			continue
		}
		if next == len(mine) && giveUp.IsZero() {
			giveUp = now.Add(drainLimit)
		}
		if !giveUp.IsZero() && now.After(giveUp) {
			for _, j := range outstanding {
				j.err = fmt.Errorf("job %s not terminal %v after the schedule ended", j.id, drainLimit)
			}
			return
		}
		wake := time.Time{}
		if next < len(mine) {
			wake = jobs[mine[next]].due
		}
		polled := false
		kept := outstanding[:0]
		for _, j := range outstanding {
			if !polled && !now.Before(j.nextPoll) {
				c.poll(url, j)
				polled = true
			}
			if j.terminal || j.err != nil {
				continue
			}
			kept = append(kept, j)
			if wake.IsZero() || j.nextPoll.Before(wake) {
				wake = j.nextPoll
			}
		}
		outstanding = kept
		if !polled && !wake.IsZero() {
			if d := time.Until(wake); d > 0 {
				time.Sleep(d)
			}
		}
	}
}

// summarize turns a load phase into its counts and percentiles.
type loadSummary struct {
	scheduled, failed, refused, sloMiss int
	latencies, submits, decodes         []float64
	waits, runs                         []float64
	polls, retries                      int
}

func summarize(lr *loadResult) *loadSummary {
	ls := &loadSummary{scheduled: len(lr.jobs)}
	for _, j := range lr.jobs {
		ls.polls += j.polls
		if j.refused {
			ls.refused++
			ls.failed++
			ls.sloMiss++
			continue
		}
		if j.err != nil || !j.done {
			ls.failed++
			ls.sloMiss++
			continue
		}
		ls.latencies = append(ls.latencies, j.latency)
		ls.submits = append(ls.submits, j.submitS)
		ls.decodes = append(ls.decodes, j.decodeS)
		if j.latency > sloLimit.Seconds() {
			ls.sloMiss++
		}
		ls.retries += max(0, j.status.Attempt-1)
		if sum := j.status.Summary; sum != nil {
			run := float64(sum.DurationMS) / 1000
			ls.runs = append(ls.runs, run)
			ls.waits = append(ls.waits, max(0, j.latency-j.submitS-run))
		}
	}
	return ls
}

// firstErrors notes up to three job failures.
func firstErrors(out *outcome, lr *loadResult) {
	n := 0
	for _, j := range lr.jobs {
		if j.err != nil && n < 3 {
			out.note("job %s: %v", j.id, j.err)
			n++
		}
	}
}

// runServe is the serve workload's untraced end-to-end run.
func runServe(cfg config) (*outcome, error) {
	s, setupS, err := prepareServe(cfg, serveSetupReps)
	if err != nil {
		return nil, err
	}
	// Start the load phase from a returned heap so its peak RSS is the
	// load's own, not the set-up's.
	debug.FreeOSMemory()
	rssErr := resetPeakRSS()
	lr := runLoad(s, cfg.seed, cfg.seconds, nil)
	rss := peakRSSMiB()
	if err := s.srv.stop(); err != nil {
		return nil, fmt.Errorf("serve: stop: %w", err)
	}
	ls := summarize(lr)
	out := newOutcome()
	out.attempted = ls.scheduled
	out.failed = ls.failed
	firstErrors(out, lr)
	if len(ls.latencies) == 0 {
		return nil, errors.New("serve: no job completed")
	}
	peak := 0
	for _, t := range s.templates {
		peak = max(peak, t.peakNodes)
	}
	out.set("setup_s", "s", setupS)
	out.set("latency_s.p50", "s", median(ls.latencies))
	out.set("latency_s.p75", "s", quantile(ls.latencies, 0.75))
	out.set("cpu_s_per_item", "s", lr.cpuS/float64(ls.scheduled))
	out.set("peak_rss_mib", "MiB", rss)
	if rssErr != nil {
		out.note("peak_rss_mib is the process's lifetime peak: /proc/self/clear_refs is unavailable")
	}
	out.set("peak_nodes.max", "nodes", float64(peak))
	out.note("serve: %d jobs scheduled at %.0f/s over %gs, %d completed, %d refused; latency_s is job_latency_s (due time to first terminal read); cpu_s_per_item is cpu_s_per_job; peak_rss_mib is the process's peak RSS during the load phase; peak_nodes.max is over the in-process reference runs of the %d job templates",
		ls.scheduled, serveRate, cfg.seconds, len(ls.latencies), ls.refused, len(s.templates))
	out.note("serve: job_latency_s.p90 %.4g s, job_slo_miss_ratio %.4g (limit %v), loadgen.lag_s.p90 %.4g s",
		quantile(ls.latencies, 0.9), ratio(float64(ls.sloMiss), float64(ls.scheduled)), sloLimit, quantile(lr.lags, 0.9))
	return out, nil
}

// traceServe is the serve workload's traced run: half the time of
// untraced load, then half traced (decode and submit spans, queue-depth
// samples, a CPU profile over the whole process), then the job
// templates' reference runs traced and replayed for the core, dd and
// cnum layers.
func traceServe(cfg config) (*outcome, error) {
	s, _, err := prepareServe(cfg, 1)
	if err != nil {
		return nil, err
	}
	half := cfg.seconds / 2
	la := runLoad(s, cfg.seed, half, nil)
	before := s.srv.journalBytes()
	tr := &serveTrace{}
	prof := newCPUProfile()
	if err := prof.start(); err != nil {
		return nil, errors.Join(err, s.srv.stop())
	}
	lb := runLoad(s, cfg.seed, half, tr)
	perr := prof.stop()
	journal := s.srv.journalBytes() - before
	if err := errors.Join(perr, s.srv.stop()); err != nil {
		return nil, err
	}
	sa, sb := summarize(la), summarize(lb)
	out := newOutcome()
	out.attempted = sa.scheduled + sb.scheduled
	out.failed = sa.failed + sb.failed
	firstErrors(out, la)
	firstErrors(out, lb)

	var tot layerTotals
	var parseS float64
	for i, t := range s.templates {
		t0 := time.Now()
		spec, circ, err := serve.DecodeJobRequest(t.body, serve.Caps{})
		parseS += time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		st, err := serve.StrategyFor(spec)
		if err != nil {
			return nil, err
		}
		tc, err := runTraced(circ, core.Options{Strategy: st, Seed: spec.Seed, Engine: dd.New()}, cfg.workdir, nil)
		out.attempted++
		if err == nil && tc.res.Engine.SizeV(tc.res.State) != t.want.StateNodes {
			err = fmt.Errorf("state_nodes %d, want %d", tc.res.Engine.SizeV(tc.res.State), t.want.StateNodes)
		}
		if err != nil {
			out.failed++
			out.note("template %d: %v", i, err)
			continue
		}
		tot.add(tc)
	}
	tot.report(out, prof)
	out.set("circuit.parse_s", "s", parseS/float64(len(s.templates)))
	lat := median(sb.latencies)
	out.set("serve.submit_share", "ratio", ratio(median(sb.submits), lat))
	out.set("serve.decode_share", "ratio", ratio(mean(sb.decodes), lat))
	out.set("serve.wait_share", "ratio", ratio(median(sb.waits), lat))
	out.set("serve.run_share", "ratio", ratio(median(sb.runs), lat))
	out.set("serve.submit_s.p50", "s", median(sb.submits))
	out.set("serve.submit_s.p90", "s", quantile(sb.submits, 0.9))
	out.set("serve.decode_s", "s", mean(sb.decodes))
	out.set("serve.wait_s.p50", "s", median(sb.waits))
	out.set("serve.run_s.p50", "s", median(sb.runs))
	out.set("serve.polls_per_job", "count", ratio(float64(sb.polls), float64(len(sb.latencies))))
	out.set("serve.rejected", "count", float64(sb.refused))
	out.set("serve.retries", "count", float64(sb.retries))
	out.set("serve.journal_bytes_per_job", "bytes", ratio(float64(journal), float64(sb.scheduled)))
	out.set("batch.queue_depth.max", "count", float64(tr.queueDepth))
	out.set("loadgen.lag_s.p90", "s", quantile(lb.lags, 0.9))
	out.set("obs.trace_overhead_ratio", "ratio", ratio(lat, median(sa.latencies)))
	out.note("serve: traced phase %d jobs, untraced phase %d jobs at %.0f/s; circuit.parse_s is serve.DecodeJobRequest per template; core/dd/cnum layers are from the templates' in-process runs",
		sb.scheduled, sa.scheduled, serveRate)
	fillPerLayer(out)
	return out, nil
}
