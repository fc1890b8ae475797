package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"permcell/internal/metrics"
	"permcell/internal/serve"
)

const (
	churnClients  = 2   // closed loop: each sends its next run when the last one ends
	churnWorkers  = 2   // serve.Config.Workers
	churnSteps    = 128 // steps per served run; long enough that a pause sent after the first record lands before the last one
	pauseEvery    = 4   // every 4th run is paused after its first record, then resumed
	serverStarts  = 41  // setup_s is the median of this many cold starts
	minChurnRuns  = 100 // per pass, so a p90 has 10 runs beyond it
	segmentRuns   = 8   // runs per segment; the clients drain at its end and the host is probed
	segmentProbes = 15  // probes between two segments
	churnSeeds    = 5   // run n uses seed --seed + n mod 5; coprime to pauseEvery, so every seed is also paused
	retention     = 2 * time.Second
	churnDeadline = 60 * time.Second
)

// churnSpec is the short supervised, checkpointed run every client submits.
// At m=2 (N=300) a step took about half a millisecond, and processes ran
// the same seed in one of two modes about 30% apart; at m=3 the step is
// long enough that they did not.
func churnSpec(seed uint64) serve.RunSpec {
	retries := 2
	return serve.RunSpec{Kind: serve.KindParallel, M: 3, P: 4, Rho: 0.3, Steps: churnSteps,
		Balancer: "permcell", Seed: seed, CheckpointEvery: 16, MaxRetries: &retries}
}

// service is a serve.Server behind a loopback HTTP listener.
type service struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	dir  string
	done chan struct{} // closed when hs.Serve has returned
}

// startService starts the server and returns once it answers /healthz.
func startService(dir string) (*service, error) {
	// Retention keeps the service's memory bounded under churn, as a
	// long-lived deployment would; without it every run's records stay.
	srv, err := serve.New(serve.Config{Dir: dir, Workers: churnWorkers, Retention: retention})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), dir: dir, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()

	c := &http.Client{Transport: &http.Transport{}, Timeout: churnDeadline}
	defer c.CloseIdleConnections()
	for deadline := time.Now().Add(churnDeadline); ; {
		resp, err := c.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			_ = s.stop()
			return nil, fmt.Errorf("server not ready after %v: %v", churnDeadline, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the listener, waits for the handlers and then for the
// server's workers.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), churnDeadline)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

var (
	errRunFailed    = errors.New("run failed")
	errPauseDropped = errors.New("pause dropped: the run completed first")
)

// churnRun is one served run as a client saw it. Its records are checked
// as they arrive; a run keeps only what the metrics need, so the
// benchmark's own memory stays out of peak_rss_mb.
type churnRun struct {
	id            string
	seed          uint64
	seg           int // the segment of the pass the run belongs to
	paused        bool
	ok            bool
	ttfs, latency time.Duration
	steps         int
	wallMaxMs     []float64            // each record's step_wall_max
	samples       []stepSample         // traced pass only
	recs          []metrics.StepRecord // reference runs only
	sentFrames    int64                // the last record's cumulative transport counters
	sentBytes     int64
	resends       int64
	ckptBytes     int64 // size of the run's checkpoint file when it ended
}

// churnPass is one closed-loop pass of both clients, made of segments.
// probes[k] were taken before segment k, and the last set after the last
// segment.
type churnPass struct {
	runs                []churnRun
	segWall             []time.Duration
	probes              [][]float64
	mallocs, allocBytes uint64
}

// scale returns the factor that scales times of segment k to the
// reference host, from the probes on either side of it.
func (p churnPass) scale(k int) float64 {
	return probeRefMs / median(append(append([]float64(nil), p.probes[k]...), p.probes[k+1]...))
}

// segmentRates returns, per segment, the completed runs and the streamed
// steps of those runs per second of wall time scaled to the reference
// host; the probes between segments are left out.
func (p churnPass) segmentRates() (runs, steps []float64) {
	runs, steps = make([]float64, len(p.segWall)), make([]float64, len(p.segWall))
	for _, r := range p.runs {
		if r.ok {
			runs[r.seg]++
			steps[r.seg] += float64(r.steps)
		}
	}
	for k, d := range p.segWall {
		t := d.Seconds() * p.scale(k)
		runs[k] /= t
		steps[k] /= t
	}
	return runs, steps
}

// request sends one request, records its span, counts it and fails it
// unless the status is want. The body is returned read and closed, except
// for stream requests, whose open response is returned.
func (b *bench) request(c *http.Client, method, url, name string, body []byte, want, parent int, stream bool) ([]byte, *http.Response, error) {
	t := time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	var resp *http.Response
	if err == nil {
		resp, err = c.Do(req)
	}
	if err == nil && resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		err = fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err == nil && !stream {
		var out []byte
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		b.record(name, parent, t, time.Now(), err != nil)
		return out, nil, b.op(err)
	}
	b.record(name, parent, t, time.Now(), err != nil)
	return nil, resp, b.op(err)
}

// serveOne submits one run, streams it to the end and, when pause is set,
// pauses it after the first record and resumes it once it has parked.
// Every record must carry the same deterministic fields as the same step
// of ref; with ref nil the run is a reference run and keeps its records.
func (b *bench) serveOne(c *http.Client, svc *service, seed uint64, pause bool, ref []metrics.StepRecord) (r churnRun) {
	r.seed, r.paused = seed, pause
	t0 := time.Now()
	root := b.reserve("serve.run", -1, t0)
	defer func() {
		b.finish(root, time.Now())
		var err error
		if !r.ok {
			err = errRunFailed
		}
		_ = b.op(err)
	}()
	fail := func(err error) churnRun {
		b.check(false, "run %s: %v", r.id, err)
		return r
	}

	spec, err := json.Marshal(churnSpec(seed))
	if err != nil {
		return fail(err)
	}
	out, _, err := b.request(c, http.MethodPost, svc.url+"/runs", "POST /runs", spec, http.StatusCreated, root, false)
	if err != nil {
		return fail(err)
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(out, &sub); err != nil {
		return fail(err)
	}
	r.id = sub.ID
	runURL := svc.url + "/runs/" + r.id

	// A paused run's stream is closed after the first record, so the
	// client holds one connection at a time, and reopened at ?from=1 once
	// the run is resumed.
	ts := time.Now()
	r.wallMaxMs = make([]float64, 0, churnSteps)
	same := true
	for cut := true; cut; {
		url := fmt.Sprintf("%s/stream?from=%d", runURL, r.steps)
		_, resp, err := b.request(c, http.MethodGet, url, "GET /runs/{id}/stream", nil, http.StatusOK, root, true)
		if err != nil {
			return fail(err)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		cut = false
		for !cut && sc.Scan() {
			var rec metrics.StepRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				resp.Body.Close()
				return fail(err)
			}
			if ref == nil {
				r.recs = append(r.recs, rec)
			} else if same && (r.steps >= len(ref) || detFields(rec) != detFields(ref[r.steps])) {
				b.check(false, "run %s (seed %d, paused %v) record %d differs from the unpaused reference run", r.id, seed, pause, r.steps)
				same = false
			}
			r.wallMaxMs = append(r.wallMaxMs, rec.StepWallMax*1e3)
			if b.tracing {
				r.samples = append(r.samples, sampleFromRecord(rec, churnSpec(seed).P))
			}
			r.sentFrames, r.sentBytes, r.resends = rec.SentFrames, rec.SentBytes, rec.ResendCount
			r.steps++
			if r.steps == 1 {
				r.ttfs = time.Since(t0)
				cut = pause
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return fail(err)
		}
		if cut {
			if err := b.pauseResume(c, runURL, root); err != nil {
				return fail(err)
			}
		}
	}
	b.record("stream to end", root, ts, time.Now(), false)
	b.check(r.steps == churnSteps, "run %s streamed %d records, want %d", r.id, r.steps, churnSteps)
	r.latency = time.Since(t0)
	if fi, err := os.Stat(filepath.Join(svc.dir, r.id, "latest.ckpt")); err == nil {
		r.ckptBytes = fi.Size()
	}
	r.ok = true
	return r
}

// pauseResume pauses a running run, waits until it has parked (checkpoint
// written, engine released) and resumes it. A pause that reaches the server
// after the run's last step is refused or dropped and the run just
// completes: that counts as a failed pause, not as a wrong output.
func (b *bench) pauseResume(c *http.Client, runURL string, root int) error {
	if _, _, err := b.request(c, http.MethodPost, runURL+"/pause", "POST /runs/{id}/pause", nil, http.StatusAccepted, root, false); err != nil {
		return nil
	}
	for deadline := time.Now().Add(churnDeadline); ; time.Sleep(time.Millisecond) {
		out, _, err := b.request(c, http.MethodGet, runURL, "GET /runs/{id}", nil, http.StatusOK, root, false)
		if err != nil {
			return err
		}
		var st serve.RunStatus
		if err := json.Unmarshal(out, &st); err != nil {
			return err
		}
		if st.State == serve.StatePaused {
			break
		}
		if st.State == serve.StateCompleted {
			_ = b.op(errPauseDropped)
			return nil
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			return fmt.Errorf("run is %s, not paused", st.State)
		}
	}
	_, _, err := b.request(c, http.MethodPost, runURL+"/resume", "POST /runs/{id}/resume", nil, http.StatusAccepted, root, false)
	return err
}

// probeSet takes segmentProbes probes one after another. It first
// collects the garbage the segment left: a background GC holding a P
// would make a probe wait for it.
func (b *bench) probeSet() []float64 {
	runtime.GC()
	ps := make([]float64, segmentProbes)
	for i := range ps {
		ps[i] = b.prober.probe()
	}
	return ps
}

// churn runs both clients in a closed loop until the measuring time is up
// and at least minChurnRuns runs have ended. The loop runs in segments
// of segmentRuns runs: at a segment's end the clients wait until both
// have finished, and the host is probed while the service is idle.
func (b *bench) churn(svc *service, refs map[uint64][]metrics.StepRecord) churnPass {
	var p churnPass
	// One connection per client: a paused run's stream is closed before
	// the control requests are sent.
	clients := make([]*http.Client, churnClients)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: churnDeadline}
		defer clients[i].CloseIdleConnections()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p.probes = append(p.probes, b.probeSet())
	start := time.Now()
	for seg := 0; len(p.runs) < minChurnRuns || time.Since(start) < b.passTime(); seg++ {
		base := int64(len(p.runs))
		var next atomic.Int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		t := time.Now()
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := next.Add(1); k <= segmentRuns; k = next.Add(1) {
					n := base + k
					seed := b.seed + uint64(n%churnSeeds)
					r := b.serveOne(c, svc, seed, n%pauseEvery == 0, refs[seed])
					r.seg = seg
					mu.Lock()
					p.runs = append(p.runs, r)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		p.segWall = append(p.segWall, time.Since(t))
		p.probes = append(p.probes, b.probeSet())
	}
	runtime.ReadMemStats(&m1)
	p.mallocs, p.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	var paused, plain int
	for _, r := range p.runs {
		switch {
		case !r.ok:
		case r.paused:
			paused++
		default:
			plain++
		}
	}
	b.check(paused > 0 && plain > 0, "pass completed %d paused and %d unpaused runs, need both", paused, plain)
	return p
}

// references serves one unpaused run of each seed and returns its records:
// what every measured run of that seed must reproduce.
func (b *bench) references(svc *service) (map[uint64][]metrics.StepRecord, error) {
	c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: churnDeadline}
	defer c.CloseIdleConnections()
	refs := map[uint64][]metrics.StepRecord{}
	for k := uint64(0); k < churnSeeds; k++ {
		r := b.serveOne(c, svc, b.seed+k, false, nil)
		if !r.ok {
			return nil, fmt.Errorf("reference run for seed %d failed", b.seed+k)
		}
		refs[r.seed] = r.recs
	}
	return refs, nil
}

// deterministic is the part of a step record that depends only on the run
// spec: it must not change with pausing, timing or the pass.
type deterministic struct {
	Step                                  int
	WorkMax, WorkAve, WorkMin, LoadRatio  float64
	Moved                                 int
	MovedBytes                            int64
	C0OverC, NFactor, Energy, Temperature float64
}

func detFields(r metrics.StepRecord) deterministic {
	return deterministic{r.Step, r.WorkMax, r.WorkAve, r.WorkMin, r.LoadRatio, r.Moved, r.MovedBytes,
		r.C0OverC, r.NFactor, r.TotalEnergy, r.Temperature}
}

// latencies returns each run's ttfs and whole-run latency in ms; a failed
// run has missed every latency limit, so it counts as +Inf.
func latencies(p churnPass) (ttfs, total []float64) {
	for _, r := range p.runs {
		if !r.ok {
			ttfs = append(ttfs, math.Inf(1))
			total = append(total, math.Inf(1))
			continue
		}
		ttfs = append(ttfs, float64(r.ttfs)/1e6)
		total = append(total, float64(r.latency)/1e6)
	}
	return ttfs, total
}

// serverSetup makes serverStarts cold starts one after another and returns
// the time of each, scaled to the reference host: from serve.New until
// /healthz answers and the first submitted run has streamed its first
// record. The server is stopped after each, which cancels that run.
func (b *bench) serverSetup(dir string) ([]float64, error) {
	spec, err := json.Marshal(churnSpec(b.seed))
	if err != nil {
		return nil, err
	}
	var setup []float64
	for i := 0; i < serverStarts; i++ {
		probes := []float64{b.prober.probe()}
		t := time.Now()
		s, err := startService(filepath.Join(dir, fmt.Sprint(i)))
		if b.op(err) != nil {
			return nil, fmt.Errorf("start server: %w", err)
		}
		c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: churnDeadline}
		err = b.firstRecord(c, s, spec)
		d := time.Since(t)
		c.CloseIdleConnections()
		probes = append(probes, b.prober.probe())
		if serr := b.op(s.stop()); err == nil && serr != nil {
			err = fmt.Errorf("stop server: %w", serr)
		}
		if err != nil {
			return nil, err
		}
		probes = append(probes, b.prober.probe())
		setup = append(setup, d.Seconds()*probeRefMs/median(probes))
	}
	return setup, nil
}

// firstRecord submits spec and reads the first record of its stream.
func (b *bench) firstRecord(c *http.Client, s *service, spec []byte) error {
	out, _, err := b.request(c, http.MethodPost, s.url+"/runs", "POST /runs", spec, http.StatusCreated, -1, false)
	if err != nil {
		return err
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(out, &sub); err != nil {
		return err
	}
	_, resp, err := b.request(c, http.MethodGet, s.url+"/runs/"+sub.ID+"/stream", "GET /runs/{id}/stream", nil, http.StatusOK, -1, true)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	var rec metrics.StepRecord
	if err == nil {
		err = json.Unmarshal(line, &rec)
	}
	if err == nil && rec.Step != 1 {
		err = fmt.Errorf("first record is step %d", rec.Step)
	}
	if err != nil {
		return fmt.Errorf("first record of run %s: %w", sub.ID, err)
	}
	return nil
}

func (b *bench) runChurn() error {
	dir := filepath.Join(b.outDir, fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(dir)

	// Timed before any run, so set-up does not depend on what the churn
	// left behind.
	setup, err := b.serverSetup(filepath.Join(dir, "setup"))
	if err != nil {
		return err
	}
	svc, err := startService(filepath.Join(dir, "churn"))
	if b.op(err) != nil {
		return fmt.Errorf("start server: %w", err)
	}
	refs, err := b.references(svc)
	var plain, traced churnPass
	if err == nil {
		plain = b.churn(svc, refs)
		if b.traced {
			b.startTracing()
			traced = b.churn(svc, refs)
		}
	}
	if serr := b.op(svc.stop()); serr != nil && err == nil {
		err = fmt.Errorf("stop server: %w", serr)
	}
	if err != nil {
		return err
	}
	b.churnEndToEnd(plain, refs, setup)
	if b.traced {
		b.churnLayers(traced)
	}
	return nil
}

func (b *bench) churnEndToEnd(plain churnPass, refs map[uint64][]metrics.StepRecord, setup []float64) {
	spec := churnSpec(b.seed)
	n := float64(spec.Particles())
	var stepMs, total []float64
	segSteps := make([][]float64, len(plain.segWall))
	for _, r := range plain.runs {
		if !r.ok {
			total = append(total, math.Inf(1)) // a failed run missed every latency limit
			continue
		}
		sc := plain.scale(r.seg)
		for _, ms := range r.wallMaxMs {
			stepMs = append(stepMs, ms*sc)
			segSteps[r.seg] = append(segSteps[r.seg], ms*sc)
		}
		total = append(total, r.latency.Seconds()*sc)
	}
	runRate, stepRate := plain.segmentRates()
	var lr []float64
	for _, recs := range refs {
		for _, rec := range recs {
			lr = append(lr, rec.LoadRatio)
		}
	}
	b.set("setup_s", median(setup))
	b.setPercentile("step_ms_p50", stepMs, 0.50)
	b.setBlockPercentile("step_ms_p95", segSteps, 0.95)
	b.set("particle_steps_per_s", n*median(stepRate))
	b.set("run_s", median(total))
	b.set("runs_per_s", median(runRate))
	b.set("load_ratio_mean", mean(lr))
}

func (b *bench) churnLayers(traced churnPass) {
	var samples [][]stepSample
	var frames, sent, resends, ckpt []float64
	var steps int
	for _, r := range traced.runs {
		if !r.ok || r.steps == 0 {
			continue
		}
		samples = append(samples, r.samples)
		steps += r.steps
		frames = append(frames, float64(r.sentFrames)/float64(r.steps))
		sent = append(sent, float64(r.sentBytes)/float64(r.steps))
		resends = append(resends, float64(r.resends))
		ckpt = append(ckpt, float64(r.ckptBytes))
	}
	b.setLayers(aggregate(samples), churnSpec(b.seed).P)
	b.set("transport.sent_frames_per_step", median(frames))
	b.set("transport.sent_bytes_per_step", median(sent))
	b.set("transport.resends_total", median(resends))
	b.set("permcell.allocs_per_step", float64(traced.mallocs)/float64(max(steps, 1)))
	b.set("permcell.alloc_bytes_per_step", float64(traced.allocBytes)/float64(max(steps, 1)))
	b.check(median(ckpt) > 0, "served runs left no checkpoint file")
	b.set("checkpoint.bytes", median(ckpt))

	b.setPercentile("serve.submit_ms_p50", b.spanMillis("POST /runs"), 0.5)
	b.setPercentile("serve.pause_ms_p50", b.spanMillis("POST /runs/{id}/pause"), 0.5)
	b.setPercentile("serve.resume_ms_p50", b.spanMillis("POST /runs/{id}/resume"), 0.5)
	ttfs, total := latencies(traced)
	b.setPercentile("serve.ttfs_ms_p50", ttfs, 0.5)
	b.setPercentile("serve.ttfs_ms_p90", ttfs, 0.9)
	b.setPercentile("serve.run_latency_ms_p50", total, 0.5)
	b.setPercentile("serve.run_latency_ms_p90", total, 0.9)

	// Not observable through the HTTP API: the service never hands out the
	// engine's Result, and checkpoint writes and restores happen inside it.
	// The service always runs its engines with WithMetrics, so there is no
	// untraced engine to compare the traced one with.
	for _, name := range []string{"comm.msgs_per_step", "comm.bytes_per_step", "permcell.result_ms",
		"checkpoint.write_ms", "checkpoint.restore_ms", "distrib.tcp_chan_step_ratio", "trace.overhead_frac"} {
		b.set(name, 0)
	}
}
