package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"permcell/internal/comm"
	"permcell/internal/potential"
	"permcell/internal/workload"
)

// wellAt is a harmonic well at the box center: it pulls the gas into a
// standing imbalance that keeps the balancer moving columns.
func wellAt(sys workload.System) potential.External {
	return potential.HarmonicWell{Center: sys.Box.L.Scale(0.5), K: 1, L: sys.Box.L}
}

// haloRecord is one PE's halo plan after a step, keyed by neighbor rank,
// next to the need lists the pull protocol would have sent: the PE's
// ghost cells grouped by their host in its ledger.
type haloRecord struct {
	send, recv, need map[int][]int
}

// recordHalo snapshots p's current plan and need lists.
func recordHalo(p *pe) haloRecord {
	rec := haloRecord{send: map[int][]int{}, recv: map[int][]int{}, need: map[int][]int{}}
	for k, nb := range p.nbs {
		rec.send[nb] = slices.Clone(p.haloSend[k])
		rec.recv[nb] = slices.Clone(p.haloRecv[k])
	}
	g := p.cfg.Grid
	for _, nc := range p.cl.GhostCells() {
		host, err := p.lg.HostOf(g.ColumnOf(nc))
		if err != nil {
			panic(err)
		}
		rec.need[host] = append(rec.need[host], nc)
	}
	return rec
}

// TestHaloPlanSymmetry runs DLB engines under Verify and checks, after
// init and after every step, that for every rank pair (r, nb) the cells r
// pushes to nb are exactly the cells nb plans to receive from r, and that
// both equal the need list nb would have requested from r under the pull
// protocol: nb's ghost cells hosted by r. P=4 is a 2x2 torus on which one
// rank is a neighbor in several directions.
func TestHaloPlanSymmetry(t *testing.T) {
	for _, tc := range []struct{ p, m int }{{4, 2}, {4, 3}, {16, 2}, {16, 3}} {
		t.Run(fmt.Sprintf("P%d_m%d", tc.p, tc.m), func(t *testing.T) {
			const steps = 25
			sys, g := testSystem(t, tc.m*int(math.Sqrt(float64(tc.p))), 0.256, 41)
			cfg := baseConfig(g, tc.p)
			cfg.DLB = true
			cfg.Verify = true
			cfg.Ext = wellAt(sys)
			cfg.normalize()
			if err := cfg.validate(); err != nil {
				t.Fatal(err)
			}
			cfg.StatsEvery = 1
			layout, err := cfg.Layout()
			if err != nil {
				t.Fatal(err)
			}
			world, err := comm.NewWorld(cfg.P)
			if err != nil {
				t.Fatal(err)
			}
			recs := make([][]haloRecord, steps+1) // [step][rank]
			for i := range recs {
				recs[i] = make([]haloRecord, cfg.P)
			}
			res := &Result{M: layout.M}
			world.Run(func(c *comm.Comm) {
				p := newPE(c, &cfg, layout, sys, nil)
				defer p.cl.Close()
				p.init()
				recs[0][c.Rank()] = recordHalo(p)
				for step := 1; step <= steps; step++ {
					p.oneStep(step, res)
					recs[step][c.Rank()] = recordHalo(p)
				}
			})
			moved := 0
			for _, st := range res.Stats {
				moved += st.Moved
			}
			if moved == 0 {
				t.Fatal("no column moved: the plan was never rebuilt after a decision")
			}
			for step, byRank := range recs {
				for r, rec := range byRank {
					for nb, send := range rec.send {
						if recv := byRank[nb].recv[r]; !slices.Equal(send, recv) {
							t.Fatalf("step %d: rank %d sends %v to %d, which plans to receive %v", step, r, send, nb, recv)
						}
						if need := byRank[nb].need[r]; !slices.Equal(send, need) {
							t.Fatalf("step %d: rank %d sends %v to %d, whose need list is %v", step, r, send, nb, need)
						}
					}
				}
			}
		})
	}
}

// TestStepAllocations pins the per-step heap allocations of a steady-state
// stepwise engine (P=4, stats census off, one step per batch). The PE
// exchange reuses its buffers: a DDM step allocates nothing inside the PEs,
// and the 4 allocations left are the driver's per-batch handshake (two
// channels, two goroutines). A DLB step adds the boxed load and decision
// messages, the decider's column lists and the occasional column move, 20
// in all. Each bound is that count plus 20% headroom, so a per-step map or
// closure coming back into the exchange fails here.
func TestStepAllocations(t *testing.T) {
	for _, tc := range []struct {
		dlb   bool
		bound float64
	}{{false, 5}, {true, 24}} {
		t.Run(fmt.Sprintf("dlb=%v", tc.dlb), func(t *testing.T) {
			sys, g := testSystem(t, 6, 0.256, 43)
			cfg := baseConfig(g, 4)
			cfg.DLB = tc.dlb
			cfg.Ext = wellAt(sys)
			cfg.StatsEvery = 1 << 30
			e, err := NewEngine(cfg, sys)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Finish()
			if err := e.Step(20); err != nil { // grow the reused buffers
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if err := e.Step(1); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.bound {
				t.Errorf("%v allocations per step, bound %v", allocs, tc.bound)
			}
		})
	}
}
