package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"permcell"
	"permcell/internal/metrics"
)

// minBeyond is how many samples must lie above a reported percentile, so a
// p95 is never the maximum of a short run relabelled.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses a sample too small to leave minBeyond samples above the rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 || n-1-k < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d",
			100*q, n, max(n-1-k, 0), minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k], nil
}

// blockPercentile is a percentile that one burst of host noise cannot
// set: groups, in the order they were measured, are merged into blocks of
// consecutive groups holding at least minLen samples each (a short tail
// joins the last block), and the result is the median of the blocks'
// q-percentiles. Every block must satisfy percentile's rule.
func blockPercentile(groups [][]float64, q float64, minLen int) (float64, error) {
	var blocks [][]float64
	var cur []float64
	for _, g := range groups {
		cur = append(cur, g...)
		if len(cur) >= minLen {
			blocks, cur = append(blocks, cur), nil
		}
	}
	if len(blocks) == 0 {
		return percentile(cur, q) // too short for one block: percentile says why
	}
	blocks[len(blocks)-1] = append(blocks[len(blocks)-1], cur...)
	var ps []float64
	for _, blk := range blocks {
		p, err := percentile(blk, q)
		if err != nil {
			return 0, err
		}
		ps = append(ps, p)
	}
	return median(ps), nil
}

// median is the middle of a small sample (setup and whole-run times, of
// which a run has only a few); named percentiles go through percentile.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// stepSample is one step's cross-PE record, taken from StepStats on the
// engine workloads or from a streamed StepRecord on serve-churn.
type stepSample struct {
	wallMax, wallAve float64 // s
	phases           metrics.Breakdown
	pairs            float64 // pair evaluations summed over PEs
	moved            int
	movedBytes       int64
}

func sampleFromStats(st permcell.StepStats, p int) stepSample {
	return stepSample{
		wallMax: st.StepWallMax, wallAve: st.StepWallAve, phases: st.Phases,
		pairs: st.WorkAve * float64(p), moved: st.Moved, movedBytes: st.MovedBytes,
	}
}

func sampleFromRecord(r metrics.StepRecord, p int) stepSample {
	s := stepSample{
		wallMax: r.StepWallMax, wallAve: r.StepWallAve,
		pairs: r.WorkAve * float64(p), moved: r.Moved, movedBytes: r.MovedBytes,
	}
	for ph := 0; ph < metrics.NumPhases; ph++ {
		name := metrics.Phase(ph).String()
		s.phases.AveSecs[ph] = r.PhaseSecsAve[name]
		s.phases.MaxSecs[ph] = r.PhaseSecsMax[name]
		s.phases.Msgs[ph] = r.PhaseMsgs[name]
		s.phases.Bytes[ph] = r.PhaseBytes[name]
	}
	return s
}

// stepAgg folds runs of steps: per-step quantities are means over every
// step of every run, per-run quantities (the *Run fields) are means over
// runs, so a total stays the total of one run whatever the run count.
type stepAgg struct {
	steps            int
	pairs            float64
	secsAve, secsMax [metrics.NumPhases]float64
	msgs, bytes      [metrics.NumPhases]float64
	wait             float64 // StepWallMax - StepWallAve, s
	forceSecsAll     float64 // PE-average force seconds summed over steps
	pairsAll         float64
	movesRun         float64
	movedBytesRun    float64
}

func aggregate(runs [][]stepSample) stepAgg {
	var a stepAgg
	for _, run := range runs {
		for _, s := range run {
			a.steps++
			a.pairs += s.pairs
			a.pairsAll += s.pairs
			a.wait += s.wallMax - s.wallAve
			for ph := 0; ph < metrics.NumPhases; ph++ {
				a.secsAve[ph] += s.phases.AveSecs[ph]
				a.secsMax[ph] += s.phases.MaxSecs[ph]
				a.msgs[ph] += float64(s.phases.Msgs[ph])
				a.bytes[ph] += float64(s.phases.Bytes[ph])
			}
			a.forceSecsAll += s.phases.AveSecs[metrics.PhaseForce]
			a.movesRun += float64(s.moved)
			a.movedBytesRun += float64(s.movedBytes)
		}
	}
	if a.steps == 0 {
		return a
	}
	n := float64(a.steps)
	a.pairs /= n
	a.wait /= n
	for ph := 0; ph < metrics.NumPhases; ph++ {
		a.secsAve[ph] /= n
		a.secsMax[ph] /= n
		a.msgs[ph] /= n
		a.bytes[ph] /= n
	}
	a.movesRun /= float64(len(runs))
	a.movedBytesRun /= float64(len(runs))
	return a
}

// nsPerPair is the force phase's PE-seconds per pair evaluation: the
// PE-average force time times P, over the pairs all PEs evaluated.
func (a stepAgg) nsPerPair(p int) float64 {
	if a.pairsAll == 0 {
		return 0
	}
	return a.forceSecsAll * float64(p) / a.pairsAll * 1e9
}

// span is one timed call the benchmark made into the program. Parent is
// the enclosing span's ID, or -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Failed bool   `json:"failed,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// selfTimes returns, per span name, the summed time spans of that name
// spent outside their children: each span's duration minus the union of
// its children's intervals clipped to it.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		cur := s.Start // end of the covered prefix
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] += s.dur() - time.Duration(covered)
	}
	return out
}
