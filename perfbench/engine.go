package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"permcell"
	"permcell/internal/experiments"
	"permcell/internal/metrics"
)

// engineWorkload is one stepping workload: a run is New, steps Step(1)
// calls and Result, repeated until the measuring time is up.
type engineWorkload struct {
	m, p  int
	rho   float64
	steps int  // Step(1) calls per run
	paper bool // 12 wells of strength 1.5 and permanent-cell DLB, hysteresis 0.1
	tcp   bool // ranks in 2 mdrank worker processes
}

// Why these three: README.md.
var engineWorkloads = map[string]engineWorkload{
	"paper-dlb":     {m: 3, p: 16, rho: 0.256, steps: 100, paper: true},
	"paper-dlb-tcp": {m: 3, p: 16, rho: 0.256, steps: 50, paper: true, tcp: true},
	"bulk-ddm":      {m: 8, p: 4, rho: 0.6, steps: 100},
}

const (
	tcpProcs   = 2
	runSeeds   = 4        // run i uses seed --seed + i mod 4, so no single seed's imbalance sets the numbers
	minRuns    = runSeeds // per measured pass, so every seed runs and run_s is a median
	minSteps   = 200      // per measured pass and per step_ms_p95 block, so each block's p95 has 10 steps beyond it
	setupRuns  = 24       // extra New-then-Result runs, so setup_s is a median of many
	ckptReps   = 3        // checkpoint writes and restores timed per traced pass
	ckptVerify = 5        // steps a restored engine must replay identically
)

// particles is the engine's N = round(rho * volume) for the box of
// m*sqrt(P) cells of side r_c = 2.5 sigma per dimension.
func (w engineWorkload) particles() int {
	l := float64(w.m) * math.Sqrt(float64(w.p)) * 2.5
	return int(math.Round(w.rho * l * l * l))
}

func (w engineWorkload) options(b *bench, seed uint64, tcp, traced bool, ckptDir string) []permcell.Option {
	opts := []permcell.Option{permcell.WithSeed(seed)}
	if w.paper {
		opts = append(opts, permcell.WithWells(12, 1.5), permcell.WithDLB(), permcell.WithHysteresis(0.1))
	}
	if tcp {
		opts = append(opts, b.tcpTransport())
	}
	if traced {
		opts = append(opts, permcell.WithMetrics())
	}
	if ckptDir != "" {
		opts = append(opts, permcell.WithCheckpoint(0, ckptDir))
	}
	return opts
}

func (b *bench) tcpTransport() permcell.Option {
	return permcell.WithTransport(permcell.Transport{Kind: permcell.TransportTCP, Procs: tcpProcs, Worker: b.mdrank})
}

// engineRun is what one run measured. probes[0] was taken before New and
// probes[i+1] right after step i.
type engineRun struct {
	seed                uint64
	setup, result       time.Duration
	stepMs              []float64
	probes              []float64
	stats               []permcell.StepStats // the first steps records only
	commMsgs, commBytes float64              // Result.CommMsgs and CommBytes per step the engine took
	mallocs, allocBytes uint64
	hash                uint64
	ckpt                *ckptProbe
}

// ckptProbe is the checkpoint layer timed on a live engine.
type ckptProbe struct {
	writeMs, restoreMs []float64
	bytes              int64
}

// call times fn as one span named name under parent, counts it as an
// operation, and returns its duration.
func (b *bench) call(name string, parent int, fn func() error) (time.Duration, error) {
	t := time.Now()
	err := fn()
	e := time.Now()
	b.record(name, parent, t, e, err != nil)
	return e.Sub(t), b.op(err)
}

// run performs one run. With probe set (traced pass only), the engine is
// checkpointed and restored before Result.
func (b *bench) run(w engineWorkload, seed uint64, tcp, traced, probe bool) (*engineRun, error) {
	var ckptDir string
	if probe {
		ckptDir = filepath.Join(b.outDir, fmt.Sprintf("ckpt-%d", os.Getpid()))
		defer os.RemoveAll(ckptDir)
	}
	opts := w.options(b, seed, tcp, traced, ckptDir)
	r := &engineRun{seed: seed, stepMs: make([]float64, 0, w.steps), probes: make([]float64, 1, w.steps+1)}

	r.probes[0] = b.prober.probe()
	root := b.reserve("run", -1, time.Now())
	var eng permcell.Engine
	var err error
	r.setup, err = b.call("permcell.New", root, func() (err error) {
		eng, err = permcell.New(w.m, w.p, w.rho, opts...)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("New: %w", err)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < w.steps; i++ {
		d, err := b.call("Engine.Step", root, func() error { return eng.Step(1) })
		if err != nil {
			_, _ = eng.Result() // releases the ranks; the Step error is the one to report
			return nil, fmt.Errorf("Step %d: %w", i+1, err)
		}
		r.stepMs = append(r.stepMs, float64(d)/1e6)
		r.probes = append(r.probes, b.prober.probe())
	}
	runtime.ReadMemStats(&m1)
	r.mallocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	if probe {
		if r.ckpt, err = b.probeCheckpoint(w, eng, ckptDir, root); err != nil {
			_, _ = eng.Result()
			return nil, err
		}
	}

	var res *permcell.Result
	r.result, err = b.call("Engine.Result", root, func() (err error) {
		res, err = eng.Result()
		return err
	})
	b.finish(root, time.Now())
	if err != nil {
		return nil, fmt.Errorf("Result: %w", err)
	}
	// Keep only what the metrics need: holding every run's final state
	// would make the benchmark's own memory part of peak_rss_mb.
	all := len(res.Stats)
	b.check(all >= w.steps, "Result holds %d step records, want %d", all, w.steps)
	r.stats = res.Stats[:min(w.steps, all)]
	r.hash = experiments.TraceHash(r.stats)
	r.commMsgs, r.commBytes = float64(res.CommMsgs)/float64(all), float64(res.CommBytes)/float64(all)
	b.checkFinal(w, res)
	return r, nil
}

// scaled returns the run's times scaled to the reference host: its New
// time in s, each step in ms, and New plus every step plus Result in s.
func (r *engineRun) scaled() (setupS float64, stepMs []float64, totalS float64) {
	setupS = r.setup.Seconds() * hostScale(r.probes, 0)
	totalS = setupS + r.result.Seconds()*hostScale(r.probes, len(r.probes)-1)
	stepMs = make([]float64, len(r.stepMs))
	for i, ms := range r.stepMs {
		stepMs[i] = ms * hostScale(r.probes, i+1)
		totalS += stepMs[i] / 1e3
	}
	return setupS, stepMs, totalS
}

// checkFinal checks the end state: every particle is still there exactly
// once, and without wells (the only external force) momentum is still the
// zero the initial condition starts from.
func (b *bench) checkFinal(w engineWorkload, res *permcell.Result) {
	fin := res.Final
	b.check(fin != nil && fin.Len() == w.particles(), "final state holds %d particles, want %d", fin.Len(), w.particles())
	if err := fin.Validate(); err != nil {
		b.check(false, "final state: %v", err)
	}
	if !w.paper {
		p := fin.Momentum()
		worst := math.Max(math.Abs(p.X), math.Max(math.Abs(p.Y), math.Abs(p.Z)))
		// Per-particle drift 1e-12 is far below thermal speed (about 1) and
		// far above the rounding the force kernel accumulates.
		b.check(worst <= 1e-12*float64(fin.Len()), "net momentum %v in the final state", p)
	}
}

// probeCheckpoint times CheckpointNow and Restore on a live engine and
// checks that each restored engine replays the live engine's next steps.
func (b *bench) probeCheckpoint(w engineWorkload, eng permcell.Engine, dir string, root int) (*ckptProbe, error) {
	var p ckptProbe
	for i := 0; i < ckptReps; i++ {
		d, err := b.call("permcell.CheckpointNow", root, func() error { return permcell.CheckpointNow(eng) })
		if err != nil {
			return nil, fmt.Errorf("CheckpointNow: %w", err)
		}
		p.writeMs = append(p.writeMs, float64(d)/1e6)
	}
	fi, err := os.Stat(filepath.Join(dir, "latest.ckpt"))
	if err != nil {
		return nil, err
	}
	p.bytes = fi.Size()

	before := len(eng.Stats())
	if _, err := b.call("Engine.Step", root, func() error { return eng.Step(ckptVerify) }); err != nil {
		return nil, fmt.Errorf("Step: %w", err)
	}
	want := experiments.TraceHash(eng.Stats()[before:])

	var restoreOpts []permcell.Option
	if w.tcp {
		restoreOpts = append(restoreOpts, b.tcpTransport())
	}
	for i := 0; i < ckptReps; i++ {
		var re permcell.Engine
		d, err := b.call("permcell.Restore", root, func() (err error) {
			re, err = permcell.Restore(dir, restoreOpts...)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("Restore: %w", err)
		}
		p.restoreMs = append(p.restoreMs, float64(d)/1e6)
		_, serr := b.call("Engine.Step", root, func() error { return re.Step(ckptVerify) })
		got := experiments.TraceHash(re.Stats())
		_, rerr := b.call("Engine.Result", root, func() error { _, err := re.Result(); return err })
		if serr != nil || rerr != nil {
			return nil, fmt.Errorf("restored engine: step %v, result %v", serr, rerr)
		}
		b.check(got == want, "restored engine replays hash %x, live engine %x", got, want)
	}
	return &p, nil
}

// pass runs whole runs until the measuring time is up, and at least
// minRuns runs and minSteps steps. Every run's trace hash must equal the
// hash in hashes of every earlier run of its seed, traced or not.
func (b *bench) pass(w engineWorkload, traced bool, hashes map[uint64]uint64) ([]*engineRun, error) {
	var runs []*engineRun
	start := time.Now()
	for len(runs) < minRuns || len(runs)*w.steps < minSteps || time.Since(start) < b.passTime() {
		// The first traced run also probes the checkpoint layer.
		r, err := b.run(w, b.seed+uint64(len(runs)%runSeeds), w.tcp, traced, traced && len(runs) == 0)
		if err != nil {
			return runs, err
		}
		b.checkHash(hashes, r, fmt.Sprintf("run %d (traced %v)", len(runs)+1, traced))
		runs = append(runs, r)
	}
	return runs, nil
}

// checkHash checks r's trace hash against the first one recorded for its
// seed, or records it.
func (b *bench) checkHash(hashes map[uint64]uint64, r *engineRun, what string) {
	want, ok := hashes[r.seed]
	if !ok {
		hashes[r.seed] = r.hash
		return
	}
	b.check(r.hash == want, "%s of seed %d: trace hash %x, earlier runs %x", what, r.seed, r.hash, want)
}

// setupOnly times New on setupRuns runs that end at once, and returns
// those times with no steps in between, scaled to the reference host by
// the median of a probe before New, one after it and one after Result.
func (b *bench) setupOnly(w engineWorkload) ([]float64, error) {
	var setup []float64
	for i := 0; i < setupRuns; i++ {
		probes := []float64{b.prober.probe()}
		var eng permcell.Engine
		d, err := b.call("permcell.New", -1, func() (err error) {
			eng, err = permcell.New(w.m, w.p, w.rho, w.options(b, b.seed+uint64(i%runSeeds), w.tcp, false, "")...)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("New: %w", err)
		}
		probes = append(probes, b.prober.probe())
		var res *permcell.Result
		if _, err := b.call("Engine.Result", -1, func() (err error) {
			res, err = eng.Result()
			return err
		}); err != nil {
			return nil, fmt.Errorf("Result: %w", err)
		}
		probes = append(probes, b.prober.probe())
		setup = append(setup, d.Seconds()*hostScale(probes, 1))
		b.checkFinal(w, res)
	}
	return setup, nil
}

// stepMillis returns every step time of runs, scaled to the reference host.
func stepMillis(runs []*engineRun) []float64 {
	var xs []float64
	for _, r := range runs {
		_, ms, _ := r.scaled()
		xs = append(xs, ms...)
	}
	return xs
}

func (b *bench) runEngine(w engineWorkload) error {
	if w.tcp && b.mdrank == "" {
		return fmt.Errorf("the tcp transport needs -mdrank")
	}
	hashes := map[uint64]uint64{}
	plain, err := b.pass(w, false, hashes)
	if err != nil {
		return err
	}
	setup, err := b.setupOnly(w)
	if err != nil {
		return err
	}
	b.endToEnd(w, plain, setup)

	// The tcp workload must compute exactly what the in-process transport
	// computes: a chan run of each seed the pass ran is the reference.
	var chanRefs []*engineRun
	if w.tcp {
		for i := 0; i < runSeeds; i++ {
			r, err := b.run(w, b.seed+uint64(i), false, false, false)
			if err != nil {
				return fmt.Errorf("chan reference: %w", err)
			}
			b.checkHash(hashes, r, "chan reference run")
			chanRefs = append(chanRefs, r)
		}
	}
	if !b.traced {
		return nil
	}

	b.startTracing()
	traced, err := b.pass(w, true, hashes)
	if err != nil {
		return err
	}
	b.perLayer(w, plain, traced, chanRefs)
	return nil
}

func (b *bench) endToEnd(w engineWorkload, runs []*engineRun, setup []float64) {
	var total, steps []float64
	var perRun [][]float64
	var stepSecs, runSecs float64
	for _, r := range runs {
		setupS, stepMs, totalS := r.scaled()
		setup = append(setup, setupS)
		total = append(total, totalS)
		runSecs += totalS
		for _, ms := range stepMs {
			stepSecs += ms / 1e3
		}
		steps = append(steps, stepMs...)
		perRun = append(perRun, stepMs)
	}
	b.set("setup_s", median(setup))
	b.setPercentile("step_ms_p50", steps, 0.50)
	b.setBlockPercentile("step_ms_p95", perRun, 0.95)
	b.set("particle_steps_per_s", float64(w.particles()*len(steps))/stepSecs)
	b.set("run_s", median(total))
	b.set("runs_per_s", float64(len(runs))/runSecs)
	// One run of each seed: the load ratio is deterministic per seed.
	var lr []float64
	for _, r := range runs[:runSeeds] {
		for _, st := range r.stats {
			lr = append(lr, st.LoadRatio())
		}
	}
	b.set("load_ratio_mean", mean(lr))
}

func (b *bench) perLayer(w engineWorkload, plain, traced, chanRefs []*engineRun) {
	samples := make([][]stepSample, len(traced))
	var allocs, allocBytes, resultMs, commMsgs, commBytes, frames, sent, resends []float64
	for i, r := range traced {
		for _, st := range r.stats {
			samples[i] = append(samples[i], sampleFromStats(st, w.p))
		}
		n := float64(len(r.stats))
		last := r.stats[len(r.stats)-1]
		allocs = append(allocs, float64(r.mallocs)/n)
		allocBytes = append(allocBytes, float64(r.allocBytes)/n)
		resultMs = append(resultMs, float64(r.result)/1e6)
		commMsgs = append(commMsgs, r.commMsgs)
		commBytes = append(commBytes, r.commBytes)
		frames = append(frames, float64(last.SentFrames)/n)
		sent = append(sent, float64(last.SentBytes)/n)
		resends = append(resends, float64(last.ResendCount))
	}
	b.setLayers(aggregate(samples), w.p)
	b.set("comm.msgs_per_step", median(commMsgs))
	b.set("comm.bytes_per_step", median(commBytes))
	b.set("transport.sent_frames_per_step", median(frames))
	b.set("transport.sent_bytes_per_step", median(sent))
	b.set("transport.resends_total", median(resends))
	b.set("permcell.allocs_per_step", median(allocs))
	b.set("permcell.alloc_bytes_per_step", median(allocBytes))
	b.set("permcell.result_ms", median(resultMs))

	probe := traced[0].ckpt
	b.set("checkpoint.write_ms", median(probe.writeMs))
	b.set("checkpoint.bytes", float64(probe.bytes))
	b.set("checkpoint.restore_ms", median(probe.restoreMs))

	// Both sides over the same seeds: the pass's first run of each seed
	// (runs i < runSeeds use seed --seed + i) against the chan run of it.
	ratio := 0.0
	if len(chanRefs) > 0 {
		ratio = b.mustPercentile(stepMillis(plain[:runSeeds]), 0.5) / b.mustPercentile(stepMillis(chanRefs), 0.5)
	}
	b.set("distrib.tcp_chan_step_ratio", ratio)
	b.set("trace.overhead_frac", b.mustPercentile(stepMillis(traced), 0.5)/b.mustPercentile(stepMillis(plain), 0.5)-1)
	for _, name := range []string{"serve.submit_ms_p50", "serve.pause_ms_p50", "serve.resume_ms_p50",
		"serve.ttfs_ms_p50", "serve.ttfs_ms_p90", "serve.run_latency_ms_p50", "serve.run_latency_ms_p90"} {
		b.set(name, 0) // no service on this workload
	}
}

// mustPercentile is percentile with a too-small sample recorded as a
// failed check.
func (b *bench) mustPercentile(xs []float64, q float64) float64 {
	v, err := percentile(xs, q)
	b.check(err == nil, "%v", err)
	return v
}

// setLayers sets the kernel, core and balance metrics from the traced
// per-step phase breakdown.
func (b *bench) setLayers(a stepAgg, p int) {
	ms := func(s float64) float64 { return s * 1e3 }
	b.set("kernel.pairs_per_step", a.pairs)
	b.set("kernel.force_ms_ave", ms(a.secsAve[metrics.PhaseForce]))
	b.set("kernel.force_ms_max", ms(a.secsMax[metrics.PhaseForce]))
	b.set("kernel.ns_per_pair", a.nsPerPair(p))
	b.set("core.halo_ms_ave", ms(a.secsAve[metrics.PhaseHalo]))
	b.set("core.halo_ms_max", ms(a.secsMax[metrics.PhaseHalo]))
	b.set("core.migrate_ms_ave", ms(a.secsAve[metrics.PhaseMigrate]))
	b.set("core.integrate_ms_ave", ms(a.secsAve[metrics.PhaseIntegrate]))
	b.set("core.collective_ms_ave", ms(a.secsAve[metrics.PhaseCollective]))
	b.set("core.wait_ms", ms(a.wait))
	b.set("core.halo_msgs_per_step", a.msgs[metrics.PhaseHalo])
	b.set("core.halo_bytes_per_step", a.bytes[metrics.PhaseHalo])
	b.set("core.migrate_msgs_per_step", a.msgs[metrics.PhaseMigrate])
	b.set("core.migrate_bytes_per_step", a.bytes[metrics.PhaseMigrate])
	b.set("balance.decide_ms_ave", ms(a.secsAve[metrics.PhaseDLBDecide]))
	b.set("balance.decide_ms_max", ms(a.secsMax[metrics.PhaseDLBDecide]))
	b.set("balance.transfer_ms_ave", ms(a.secsAve[metrics.PhaseDLBTransfer]))
	b.set("balance.decide_msgs_per_step", a.msgs[metrics.PhaseDLBDecide])
	b.set("balance.moves_total", a.movesRun)
	b.set("balance.moved_bytes_total", a.movedBytesRun)
}
