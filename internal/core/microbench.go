package core

import (
	"fmt"
	"runtime"
	"time"

	"scioto/internal/pgas"
	"scioto/internal/trace"
)

// OpTimings holds the per-operation average costs of the four core task
// collection operations measured by Table 1 of the paper.
type OpTimings struct {
	LocalInsert  time.Duration
	RemoteInsert time.Duration
	LocalGet     time.Duration
	RemoteSteal  time.Duration
}

// String renders the timings in the paper's units (microseconds).
func (o OpTimings) String() string {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	return fmt.Sprintf("local insert %.4fµs, remote insert %.4fµs, local get %.4fµs, remote steal %.4fµs",
		us(o.LocalInsert), us(o.RemoteInsert), us(o.LocalGet), us(o.RemoteSteal))
}

// MeasureOps reproduces the paper's Table 1 microbenchmark: the average
// cost of a lock-free local insert, a lock-free local get, a one-sided
// remote insert, and a one-sided remote steal, with the given task body
// size and steal chunk. It must be called collectively on a world with at
// least two processes; rank 0 performs the measurements against rank 1 and
// returns the timings (other ranks return zero timings). A steal is timed
// against a shared portion holding exactly one chunk (stealChunk): a thief
// takes half of a deeper one, which is not the operation the table names.
//
//scioto:journal-exempt raw-queue measurement harness: no TC and no recovery, so the journal discipline does not apply
func MeasureOps(p pgas.Proc, bodySize, chunk, iters int) OpTimings {
	if p.NProcs() < 2 {
		panic("core: MeasureOps needs at least 2 processes")
	}
	if iters <= 0 {
		iters = 1000
	}
	slotSize := HeaderBytes + bodySize
	capacity := iters + chunk + 8
	q := newTaskQueue(p, ModeSplit, slotSize, capacity)
	var s Stats
	var out OpTimings

	task := NewTask(0, bodySize)
	wire := task.wire()
	per := func(d time.Duration) time.Duration { return d / time.Duration(iters) }

	p.Barrier()
	if p.Rank() == 0 {
		// Local insert: lock-free pushes at the private end.
		t0 := p.Now()
		for i := 0; i < iters; i++ {
			if !q.pushPrivate(wire, &s) {
				panic("core: microbench queue overflow")
			}
		}
		out.LocalInsert = per(p.Now() - t0)

		// Local get: lock-free pops of the same tasks.
		t0 = p.Now()
		for i := 0; i < iters; i++ {
			if _, ok := q.popPrivate(&s); !ok {
				panic("core: microbench queue underflow")
			}
		}
		out.LocalGet = per(p.Now() - t0)

		// Remote insert: one-sided adds at the shared end of rank 1's queue.
		t0 = p.Now()
		for i := 0; i < iters; i++ {
			if !q.addRemote(1, wire, &s) {
				panic("core: microbench remote queue overflow")
			}
		}
		out.RemoteInsert = per(p.Now() - t0)

		// Remote steal, once what the inserts left in rank 1's shared
		// portion is out of the way.
		for {
			k, _ := q.steal(1, chunk, false, &s)
			if k == 0 {
				break
			}
			popLanded(q, k, &s)
		}
		for i := 0; i < iters; i++ {
			out.RemoteSteal += stealChunk(q, wire, chunk, &s)
		}
		out.RemoteSteal = per(out.RemoteSteal)
	}
	p.Barrier()
	return out
}

// stealChunk stocks the shared portion of rank 1's queue with exactly
// chunk tasks (remote adds, untimed) and steals them back in one steal,
// whose duration it returns; then, untimed, it pops what landed.
//
//scioto:journal-exempt raw-queue measurement harness: no TC and no recovery, so the journal discipline does not apply
func stealChunk(q *taskQueue, wire []byte, chunk int, s *Stats) time.Duration {
	for i := 0; i < chunk; i++ {
		if !q.addRemote(1, wire, s) {
			panic("core: microbench victim overflow")
		}
	}
	t0 := q.p.Now()
	k, res := q.steal(1, chunk, false, s)
	d := q.p.Now() - t0
	if res != stealOK || k != int64(chunk) {
		panic(fmt.Sprintf("core: microbench steal failed: %v", res))
	}
	popLanded(q, k, s)
	return d
}

// popLanded pops the k tasks a steal landed in the thief's ring.
func popLanded(q *taskQueue, k int64, s *Stats) {
	for ; k > 0; k-- {
		if _, ok := q.popPrivate(s); !ok {
			panic("core: microbench steal landed nothing")
		}
	}
}

// MeasureStealAllocs reports the average heap allocations per successful
// steal on the calling rank, exercising the same pipelined path as
// MeasureOps. It must be called collectively on a world with at least two
// processes; rank 0 steals from rank 1 and returns the average (other
// ranks return 0). The steady-state figure should be zero: the tasks land
// in the thief's own ring, and the transport's in-flight operation
// records and wire frames are pooled.
func MeasureStealAllocs(p pgas.Proc, bodySize, chunk, iters int) float64 {
	if p.NProcs() < 2 {
		panic("core: MeasureStealAllocs needs at least 2 processes")
	}
	if iters <= 0 {
		iters = 100
	}
	slotSize := HeaderBytes + bodySize
	q := newTaskQueue(p, ModeSplit, slotSize, chunk+8)
	// An observer with a retaining recorder is attached so the zero-alloc
	// gate proves the steal path stays allocation-free with recording
	// *enabled*, not just in the nil-observer no-op mode.
	q.obs = NewObserver(p, nil, trace.NewRecorder(p.Rank(), iters*4+64, nil))
	var s Stats
	task := NewTask(0, bodySize)
	wire := task.wire()

	p.Barrier()
	var allocs float64
	if p.Rank() == 0 {
		steals := func(n int) {
			for i := 0; i < n; i++ {
				stealChunk(q, wire, chunk, &s)
			}
		}
		// Warm the pools (transport op records, frame buffers) before
		// measuring the steady state.
		warm := iters / 10
		if warm < 1 {
			warm = 1
		}
		steals(warm)
		measured := iters - warm
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		steals(measured)
		runtime.ReadMemStats(&m1)
		allocs = float64(m1.Mallocs-m0.Mallocs) / float64(measured)
	}
	p.Barrier()
	return allocs
}
