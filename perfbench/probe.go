package main

import (
	"runtime"
	"sort"
	"time"
)

// The host this benchmark runs on is shared: a fixed arithmetic loop on
// it ran anywhere between 1x and 2.5x its fastest time from one half
// minute to the next, with no steal time showing. So the benchmark
// probes the host between the calls it times, while the program is idle:
// a probe is a fixed pair sweep, written here and independent of the
// program, run on every P at once: the program keeps every core busy, and
// two busy vCPUs can slow each other down where one alone would not.
// End-to-end times are reported scaled to a host on which the probe
// takes probeRefMs: a time t measured while probes near it took p ms is
// reported as t * probeRefMs / p. The scaling follows the host's speed,
// and leaves in every change of the program's own speed.

const (
	probeRefMs  = 0.2 // nominal probe time; about the probe's wall time on a 2-vCPU Xeon VM
	probeN      = 512 // particles per probe sweep
	probeK      = 48  // neighbours of each
	probeWindow = 7   // a time's host speed is the median probe within this many of it on either side
)

// prober runs the sweeps on goroutines of its own, one per P, which wait
// on their start channels between probes. A probe allocates nothing, so
// it leaves the program's allocation counts alone.
type prober struct {
	data  []probeData
	start []chan struct{}
	done  chan float64
	sink  float64
}

type probeData struct {
	pos []float64
	nbr []int32
}

func newProber() *prober {
	n := runtime.GOMAXPROCS(0)
	p := &prober{data: make([]probeData, n), start: make([]chan struct{}, n), done: make(chan float64)}
	for i := range p.data {
		d := probeData{pos: make([]float64, 3*probeN), nbr: make([]int32, probeN*probeK)}
		x := uint64(88172645463325252) // fixed: every probe does the same work
		next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
		for j := range d.pos {
			d.pos[j] = float64(next()%1000000) / 1e5
		}
		for j := range d.nbr {
			d.nbr[j] = int32(next() % probeN)
		}
		p.data[i], p.start[i] = d, make(chan struct{})
		go func() {
			for range p.start[i] {
				p.done <- d.sweep()
			}
		}()
	}
	return p
}

// stop ends the probe goroutines.
func (p *prober) stop() {
	for _, c := range p.start {
		close(c)
	}
}

// probe runs one sweep on every P at once and returns the wall time until
// all have finished, in ms.
func (p *prober) probe() float64 {
	t := time.Now()
	for _, c := range p.start {
		c <- struct{}{}
	}
	for range p.start {
		p.sink += <-p.done // keeps the sweeps from being optimised away
	}
	return float64(time.Since(t)) / 1e6
}

// sweep is a Lennard-Jones-like pair loop over a fixed neighbour list.
func (d probeData) sweep() float64 {
	var acc float64
	for i := 0; i < probeN; i++ {
		xi, yi, zi := d.pos[3*i], d.pos[3*i+1], d.pos[3*i+2]
		for _, j := range d.nbr[i*probeK : (i+1)*probeK] {
			dx, dy, dz := xi-d.pos[3*j], yi-d.pos[3*j+1], zi-d.pos[3*j+2]
			inv := 1 / (dx*dx + dy*dy + dz*dz + 0.5)
			s6 := inv * inv * inv
			acc += s6 * (s6 - 0.5) * inv
		}
	}
	return acc
}

// hostScale returns the factor that scales a time measured next to
// probes[i] to the reference host: probeRefMs over the median probe
// within probeWindow of i.
func hostScale(probes []float64, i int) float64 {
	lo, hi := max(i-probeWindow, 0), min(i+probeWindow+1, len(probes))
	s := append([]float64(nil), probes[lo:hi]...)
	sort.Float64s(s)
	return probeRefMs / s[len(s)/2]
}
