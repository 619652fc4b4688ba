package main

import (
	"syscall"
	"time"

	"scioto"
	"scioto/internal/core"
	"scioto/internal/ga"
	"scioto/internal/pgas"
)

// microStages measures single layers through their public API on a
// dedicated 2-rank world of the workload's transport: the four Table 1
// queue operations, a local Add, an empty phase and a Reset (core), and
// block get/accumulate/gather/scatter at the SCF block size (ga). Rank 0
// measures against rank 1; the values are what one call costs a caller
// with nothing else going on — the floor under the in-workload figures.
func microStages(e *env, world scioto.Config) map[string]float64 {
	world.Procs = 2
	iters := 2000
	if e.quick {
		iters = 200
	}
	win := e.launch(world, plain, func(p pgas.Proc, _ *recorder, report func(*window)) {
		layer := map[string]float64{}
		us := func(d time.Duration, n int) float64 { return float64(d) / 1e3 / float64(n) }

		ops := core.MeasureOps(p, 32, 10, iters)
		layer["core.local_insert_us"] = us(ops.LocalInsert, 1)
		layer["core.local_get_us"] = us(ops.LocalGet, 1)
		layer["core.remote_insert_us"] = us(ops.RemoteInsert, 1)
		layer["core.remote_steal_us"] = us(ops.RemoteSteal, 1)

		tc := core.NewTC(core.Attach(p), core.Config{MaxBodySize: 32, MaxTasks: iters + 8})
		h := tc.Register(func(*core.TC, *core.Task) {})
		p.Barrier()
		phases := iters / 4 // a phase is three barriers and a termination wave
		t0 := p.Now()
		for i := 0; i < phases; i++ {
			tc.Process()
		}
		layer["core.empty_phase_us"] = us(p.Now()-t0, phases)
		t0 = p.Now()
		for i := 0; i < phases; i++ {
			tc.Reset()
		}
		layer["core.reset_us"] = us(p.Now()-t0, phases)
		if p.Rank() == 0 {
			task := core.NewTask(h, 32)
			t0 = p.Now()
			for i := 0; i < iters; i++ {
				if err := tc.Add(0, core.AffinityHigh, task); err != nil {
					panic(err)
				}
			}
			layer["core.add_ns"] = float64(p.Now()-t0) / float64(iters)
		}
		tc.Reset()

		// A 48x48 array in 4x4 blocks, as scf-tcp distributes its density
		// and Fock matrices; block (0,1) lives on rank 1.
		a := ga.New(p, 48, 48, 4, 4)
		p.Barrier()
		if p.Rank() == 0 {
			blk := make([]float64, 16)
			t0 = p.Now()
			for i := 0; i < iters; i++ {
				a.GetBlock(0, 1, blk)
			}
			layer["ga.get_us"] = us(p.Now()-t0, iters)
			t0 = p.Now()
			for i := 0; i < iters; i++ {
				a.AccBlock(0, 1, blk)
			}
			layer["ga.acc_us"] = us(p.Now()-t0, iters)
			reps := iters/100 + 1
			full := make([]float64, 48*48)
			t0 = p.Now()
			for i := 0; i < reps; i++ {
				a.ScatterFrom(full)
			}
			layer["ga.scatter_us"] = us(p.Now()-t0, reps)
			t0 = p.Now()
			for i := 0; i < reps; i++ {
				full = a.Gather()
			}
			layer["ga.gather_us"] = us(p.Now()-t0, reps)
		}
		p.Barrier()
		if p.Rank() == 0 {
			report(&window{Layer: layer})
		}
	})
	if win == nil {
		return nil
	}
	return win.Layer
}

// peakRSSMB is the calling process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
