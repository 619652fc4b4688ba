package bench

import (
	"fmt"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
)

// Fig4Point is one measured row of Figure 4.
type Fig4Point struct {
	P           int
	Termination time.Duration
	ARMCIBar    time.Duration
	MPIBar      time.Duration
}

// mpiBarrier is a tree barrier over two-sided messages (gather to root,
// broadcast down), the shape of a classic MPI_Barrier implementation. Its
// cost is ~2 log2(P) message latencies, slightly above the one-sided
// dissemination barrier — matching the ordering in the paper's Figure 4.
func mpiBarrier(p pgas.Proc, gen int32) {
	n := p.NProcs()
	if n == 1 {
		return
	}
	me := p.Rank()
	tagUp := int32(-(1 << 21)) - gen*2
	tagDown := tagUp - 1
	left, right := 2*me+1, 2*me+2
	if left < n {
		p.Recv(left, tagUp)
	}
	if right < n {
		p.Recv(right, tagUp)
	}
	if me > 0 {
		p.Send((me-1)/2, tagUp, nil)
		p.Recv((me-1)/2, tagDown)
	}
	if left < n {
		p.Send(left, tagDown, nil)
	}
	if right < n {
		p.Send(right, tagDown, nil)
	}
}

// MeasureFig4Point measures termination detection and both barrier flavors
// for one process count on the cluster calibration.
func MeasureFig4Point(n int, reps int) Fig4Point {
	if reps <= 0 {
		reps = 10
	}
	pt := Fig4Point{P: n}
	mustRun(ClusterWorld(n, 1), func(p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 64})
		h := tc.Register(func(tc *core.TC, t *core.Task) {})

		// ARMCI-style one-sided dissemination barrier.
		p.Barrier() // align clocks
		t0 := p.Now()
		for i := 0; i < reps; i++ {
			p.Barrier()
		}
		if p.Rank() == 0 {
			pt.ARMCIBar = (p.Now() - t0) / time.Duration(reps)
		}

		// MPI-style tree barrier.
		p.Barrier()
		t0 = p.Now()
		for i := 0; i < reps; i++ {
			mpiBarrier(p, int32(i%2))
		}
		if p.Rank() == 0 {
			pt.MPIBar = (p.Now() - t0) / time.Duration(reps)
		}

		// Termination detection: process a collection holding a single
		// no-op task (the paper's methodology), minus the Process
		// entry/exit barriers so the number reflects the detection waves.
		p.Barrier()
		t0 = p.Now()
		for i := 0; i < reps; i++ {
			if p.Rank() == 0 {
				task := core.NewTask(h, 8)
				if err := tc.Add(0, core.AffinityHigh, task); err != nil {
					panic(err)
				}
			}
			tc.Process()
			tc.Reset()
		}
		if p.Rank() == 0 {
			perIter := (p.Now() - t0) / time.Duration(reps)
			// Process + Reset contain four barriers between them: the
			// phase's entry and exit, and Reset's two.
			est := perIter - 4*pt.ARMCIBar
			if est < 0 {
				est = perIter
			}
			pt.Termination = est
		}
	})
	return pt
}

// Fig4 reproduces Figure 4: termination detection time versus ARMCI and
// MPI barrier times as the process count grows.
func Fig4(ps []int, reps int) *Table {
	if len(ps) == 0 {
		ps = []int{1, 2, 4, 8, 16, 32, 64}
	}
	t := &Table{
		ID:      "fig4",
		Title:   "Termination detection vs. barriers on the cluster model (µs)",
		Columns: []string{"P", "Scioto Termination", "ARMCI Barrier", "MPI Barrier"},
		Notes: []string{
			"paper: detection completes in roughly twice the barrier time; all curves grow ~log P",
		},
	}
	for _, n := range ps {
		pt := MeasureFig4Point(n, reps)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(pt.P), us(pt.Termination), us(pt.ARMCIBar), us(pt.MPIBar),
		})
	}
	return t
}
