package main

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"permcell"
	"permcell/internal/metrics"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0 = must be refused
	}{
		{20, 0.50, 10}, {19, 0.50, 0},
		{100, 0.90, 90}, {99, 0.90, 0},
		{200, 0.95, 190}, {199, 0.95, 0},
		{0, 0.50, 0},
	} {
		got, err := percentile(seq(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want refused", 100*c.q, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", 100*c.q, c.n, got, err, c.want)
		}
	}
}

func TestBlockPercentileIsTheMedianBlock(t *testing.T) {
	seq := func(lo, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(lo + i)
		}
		return xs
	}
	same := func(v float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	groups := [][]float64{
		seq(0, 150), seq(150, 100), // block 1: 0..249, p95 237
		same(5, 200),                 // block 2: p95 5
		same(7, 200), same(1000, 20), // block 3 with the short tail: p95 1000, a burst
	}
	got, err := blockPercentile(groups, 0.95, 200)
	if err != nil || got != 237 {
		t.Errorf("blockPercentile = %g, %v; want 237", got, err)
	}
	if _, err := blockPercentile([][]float64{seq(0, 150)}, 0.95, 200); err == nil {
		t.Error("blockPercentile of 150 samples succeeded, want too few beyond p95")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g", got)
	}
}

func TestAggregatePerStepAndPerRun(t *testing.T) {
	step := func(force, halo, wallMax, wallAve, pairs float64, moved int) stepSample {
		s := stepSample{wallMax: wallMax, wallAve: wallAve, pairs: pairs, moved: moved, movedBytes: int64(100 * moved)}
		s.phases.AveSecs[metrics.PhaseForce] = force
		s.phases.MaxSecs[metrics.PhaseForce] = 2 * force
		s.phases.AveSecs[metrics.PhaseHalo] = halo
		s.phases.Msgs[metrics.PhaseHalo] = 8
		return s
	}
	runs := [][]stepSample{
		{step(1, 2, 5, 4, 100, 1), step(3, 2, 7, 4, 300, 0)},
		{step(2, 2, 6, 4, 200, 3), step(2, 2, 6, 4, 200, 0)},
	}
	a := aggregate(runs)
	if a.steps != 4 {
		t.Fatalf("steps = %d, want 4", a.steps)
	}
	for name, c := range map[string][2]float64{
		"pairs":      {a.pairs, 200},
		"force ave":  {a.secsAve[metrics.PhaseForce], 2},
		"force max":  {a.secsMax[metrics.PhaseForce], 4},
		"halo":       {a.secsAve[metrics.PhaseHalo], 2},
		"halo msgs":  {a.msgs[metrics.PhaseHalo], 8},
		"wait":       {a.wait, 2},
		"moves/run":  {a.movesRun, 2},
		"bytes/run":  {a.movedBytesRun, 200},
		"ns/pair P4": {a.nsPerPair(4), 8 * 4 / 800.0 * 1e9},
	} {
		if c[0] != c[1] {
			t.Errorf("%s = %g, want %g", name, c[0], c[1])
		}
	}
	if z := aggregate(nil); z.steps != 0 || z.nsPerPair(4) != 0 {
		t.Errorf("empty aggregate = %+v", z)
	}
}

// A served run's streamed record and the facade's StepStats for the same
// step must fold to the same sample, or serve-churn's layer metrics would
// not mean what the engine workloads' do.
func TestSampleFromRecordMatchesStats(t *testing.T) {
	var b metrics.Breakdown
	for ph := 0; ph < metrics.NumPhases; ph++ {
		b.AveSecs[ph] = float64(ph+1) * 1e-3
		b.MaxSecs[ph] = float64(ph+1) * 2e-3
		b.Msgs[ph] = int64(ph * 3)
		b.Bytes[ph] = int64(ph * 300)
	}
	st := permcell.StepStats{Step: 7, WorkMax: 120, WorkAve: 100, WorkMin: 80,
		StepWallMax: 0.02, StepWallAve: 0.015, Phases: b, Moved: 2, MovedBytes: 640}
	rec := metrics.NewStepRecord(st.Step, st.Phases, st.StepWallMax, st.StepWallAve,
		st.WorkMax, st.WorkAve, st.WorkMin, "permcell", st.Moved, st.MovedBytes, 0.5, 1, 2)
	if got, want := sampleFromRecord(rec, 4), sampleFromStats(st, 4); got != want {
		t.Fatalf("from record %+v\nfrom stats  %+v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "step", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "step", Start: 20, End: 50},    // overlaps span 1
		{ID: 3, Parent: 0, Name: "result", Start: 90, End: 120}, // clipped at the parent's end
		{ID: 4, Parent: 3, Name: "inner", Start: 95, End: 100},
		{ID: 5, Parent: -1, Name: "run", Start: 200, End: 210},
	}
	want := map[string]time.Duration{
		"run":    (100 - 40 - 10) + 10, // [10,50) and [90,100) covered, plus an empty second run
		"step":   20 + 30,
		"result": 30 - 5,
		"inner":  5,
	}
	got := selfTimes(spans)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %v, want %d names", got, len(want))
	}
}

// declaredBench is a bench for the given kind of run that reports the
// metrics BENCHMARK.json declares.
func declaredBench(t *testing.T, traced bool) *bench {
	t.Helper()
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return &bench{spec: sp, traced: traced, metrics: map[string]float64{}}
}

// checkDeclared checks that b's result line carries every declared metric
// of its kind under its declared unit, and nothing else.
func checkDeclared(t *testing.T, what string, b *bench) {
	t.Helper()
	line, err := b.result()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var out struct{ Metrics map[string]metricValue }
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	defs := b.spec.EndToEnd
	if b.traced {
		defs = b.spec.PerLayer
	}
	for _, d := range defs {
		if v, ok := out.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("%s: %s emitted as %+v, declared in %s", what, d.Name, v, d.Unit)
		}
	}
	if len(out.Metrics) != len(defs) {
		t.Errorf("%s: emits %d metrics, %d declared", what, len(out.Metrics), len(defs))
	}
}

// fakeEngineRuns are n runs of w with plausible timings.
func fakeEngineRuns(w engineWorkload, n int) []*engineRun {
	var runs []*engineRun
	for i := 0; i < n; i++ {
		r := &engineRun{seed: uint64(i), setup: time.Millisecond, result: time.Millisecond,
			probes: []float64{probeRefMs}, ckpt: &ckptProbe{writeMs: []float64{1}, restoreMs: []float64{2}, bytes: 100}}
		for s := 0; s < w.steps; s++ {
			r.stepMs = append(r.stepMs, float64(1+s%7))
			r.probes = append(r.probes, probeRefMs)
			r.stats = append(r.stats, permcell.StepStats{Step: s + 1, WorkMax: 2, WorkAve: 1, WorkMin: 1})
		}
		runs = append(runs, r)
	}
	return runs
}

// The code that sets an engine workload's metrics sets every declared
// metric and no other, in both kinds of run.
func TestEngineWorkloadSetsEveryDeclaredMetric(t *testing.T) {
	for name, w := range engineWorkloads {
		for _, traced := range []bool{false, true} {
			b := declaredBench(t, traced)
			runs := fakeEngineRuns(w, runSeeds)
			b.endToEnd(w, runs, []float64{0.001})
			if traced {
				b.perLayer(w, runs, runs, runs)
			}
			b.setShared()
			checkDeclared(t, fmt.Sprintf("%s traced=%v", name, traced), b)
		}
	}
}

// Likewise for serve-churn.
func TestChurnSetsEveryDeclaredMetric(t *testing.T) {
	var p churnPass
	for i := 0; i < minChurnRuns; i++ {
		r := churnRun{ok: true, steps: churnSteps, ttfs: time.Millisecond, latency: 100 * time.Millisecond, ckptBytes: 100}
		for s := 0; s < churnSteps; s++ {
			r.wallMaxMs = append(r.wallMaxMs, 1)
			r.samples = append(r.samples, stepSample{wallMax: 1e-3, wallAve: 1e-3, pairs: 10})
		}
		p.runs = append(p.runs, r)
	}
	p.segWall = []time.Duration{time.Second}
	p.probes = [][]float64{{probeRefMs}, {probeRefMs}}
	refs := map[uint64][]metrics.StepRecord{1: {{Step: 1, LoadRatio: 1.1}}}
	for _, traced := range []bool{false, true} {
		b := declaredBench(t, traced)
		b.churnEndToEnd(p, refs, []float64{0.001})
		if traced {
			b.churnLayers(p)
		}
		b.setShared()
		checkDeclared(t, fmt.Sprintf("serve-churn traced=%v", traced), b)
	}
}

func TestResultRefusesAnUndeclaredMetric(t *testing.T) {
	b := declaredBench(t, false)
	for _, d := range b.spec.EndToEnd {
		b.set(d.Name, 1)
	}
	if _, err := b.result(); err != nil {
		t.Fatal(err)
	}
	b.set("no_such_metric", 1)
	if _, err := b.result(); err == nil {
		t.Fatal("result with an undeclared metric succeeded")
	}
}

func TestResultRefusesAMissingMetric(t *testing.T) {
	b := declaredBench(t, false)
	b.set("setup_s", 1)
	if _, err := b.result(); err == nil {
		t.Fatal("result with most metrics unset succeeded")
	}
}

func TestHostScaleIsTheWindowMedian(t *testing.T) {
	probes := make([]float64, 40)
	for i := range probes {
		probes[i] = probeRefMs
	}
	probes[20] = 100 * probeRefMs // one stalled probe does not move the scale
	if got := hostScale(probes, 20); got != 1 {
		t.Errorf("scale next to one stalled probe = %g, want 1", got)
	}
	for i := 25; i < 40; i++ {
		probes[i] = 2 * probeRefMs // the host at half speed
	}
	if got := hostScale(probes, 39); got != 0.5 {
		t.Errorf("scale on a half-speed host = %g, want 0.5", got)
	}
	if got := hostScale(probes, 0); got != 1 {
		t.Errorf("scale at the first probe = %g, want 1", got)
	}
}

// A run on a host at half speed reports the same scaled times as the same
// run on a host at full speed.
func TestScaledRunIgnoresHostSpeed(t *testing.T) {
	run := func(slow float64) *engineRun {
		r := &engineRun{setup: time.Duration(slow * 2e6), result: time.Duration(slow * 1e6), probes: []float64{slow * probeRefMs}}
		for i := 0; i < 30; i++ {
			r.stepMs = append(r.stepMs, slow*float64(5+i%3))
			r.probes = append(r.probes, slow*probeRefMs)
		}
		return r
	}
	s1, st1, t1 := run(1).scaled()
	s2, st2, t2 := run(2).scaled()
	if math.Abs(s1-s2) > 1e-12 || math.Abs(t1-t2) > 1e-12 || math.Abs(median(st1)-median(st2)) > 1e-12 {
		t.Errorf("full speed: setup %g total %g step %g; half speed: %g %g %g", s1, t1, median(st1), s2, t2, median(st2))
	}
	if want := 2e-3 + 1e-3 + (10*5+10*6+10*7)*1e-3; math.Abs(t1-want) > 1e-12 {
		t.Errorf("total = %g, want %g (New + steps + Result)", t1, want)
	}
}

func TestChurnSegmentRatesScaleEachSegment(t *testing.T) {
	p := churnPass{
		segWall: []time.Duration{time.Second, time.Second},
		probes:  [][]float64{{1}, {1, 1, 2}, {2, 2, 2, 2, 2}},
	}
	for i := range p.probes {
		for j := range p.probes[i] {
			p.probes[i][j] *= probeRefMs
		}
	}
	if got := p.scale(0); got != 1 {
		t.Errorf("segment 0 scale = %g, want 1", got)
	}
	if got := p.scale(1); got != 0.5 {
		t.Errorf("segment 1 scale = %g, want 0.5", got)
	}
	ok := churnRun{ok: true, steps: 128}
	seg1 := ok
	seg1.seg = 1
	p.runs = []churnRun{ok, ok, seg1, seg1, {seg: 1}}
	runs, steps := p.segmentRates()
	if len(runs) != 2 || runs[0] != 2 || runs[1] != 4 || steps[0] != 256 || steps[1] != 512 {
		t.Errorf("segment rates: runs %v steps %v, want [2 4] and [256 512] per scaled second", runs, steps)
	}
}
