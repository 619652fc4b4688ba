package core

import (
	"fmt"

	"scioto/internal/pgas"
)

// Inter-task dependencies. The paper's conclusion announces work on
// "extending our independent task model with support for tasks that
// exhibit arbitrary inter-task dependencies"; this file implements the
// natural counted-dependency design on top of the one-sided substrate:
//
//   - AddDeferred registers a task on the calling process together with a
//     dependency counter, without enqueueing it;
//   - the returned Dep handle is a portable 8-byte value that can travel
//     in other tasks' bodies;
//   - Satisfy atomically decrements the counter from anywhere; the caller
//     whose decrement reaches zero fetches the pending descriptor with a
//     one-sided get and enqueues it (on its registering process, with its
//     recorded affinity), making it available for normal scheduling and
//     stealing.
//
// Dependencies must resolve within the processing phase in which the
// dependent tasks run: a pending task is invisible to termination
// detection until it is enqueued, so a phase that ends with unsatisfied
// dependencies simply leaves those tasks pending (query PendingDeferred).

// Dep is a portable reference to a deferred task: the rank that registered
// it and its slot in that rank's pending pool.
type Dep struct {
	Proc int32
	Slot int32
}

// DepBytes is the encoded size of a Dep.
const DepBytes = 8

// EncodeDep writes d into b.
func EncodeDep(b []byte, d Dep) {
	pgas.PutI32(b, d.Proc)
	pgas.PutI32(b[4:], d.Slot)
}

// DecodeDep reads a Dep from b.
func DecodeDep(b []byte) Dep {
	return Dep{Proc: pgas.GetI32(b), Slot: pgas.GetI32(b[4:])}
}

// depPool is where a process's deferred tasks are recorded: a record is a
// descriptor image and a word holding base + its remaining dependency
// count. Without recovery it is a pool of its own, whose free words hold
// depFree (base 0). With recovery armed it is a view of the journal (base
// jLive, journal.go), so the last Satisfy leaves the record live: one
// durable record either way.
type depPool struct {
	slots, slotSize int
	data            pgas.Seg // slots * slotSize bytes
	ctr             pgas.Seg // slots record words
	base            int64
}

const depFree = -1

// newDepPool collectively allocates the pool and marks every slot free, or
// returns the view of rec's journal when recovery is armed.
func newDepPool(p pgas.Proc, slots, slotSize int, rec *recovery) *depPool {
	if rec != nil {
		return &depPool{slots: rec.jn.slots, slotSize: slotSize, data: rec.jn.data, ctr: rec.jn.state, base: jLive}
	}
	pool := &depPool{slots: slots, slotSize: slotSize, data: p.AllocData(slots * slotSize), ctr: p.AllocWords(slots)}
	for i := 0; i < slots; i++ {
		p.Store64(p.Rank(), pool.ctr, i, depFree)
	}
	return pool
}

// pool returns the collection's deferred-task records.
func (tc *TC) pool() *depPool {
	if tc.cfg.MaxDeferred <= 0 {
		panic("core: dependency API requires Config.MaxDeferred > 0 at NewTC")
	}
	return tc.deps
}

// AddDeferred registers a copy of the task on the calling process with the
// given dependency count (> 0) and returns its portable handle. The task
// is enqueued — on this process, with this affinity — by whichever process
// performs the final Satisfy. At most Config.MaxDeferred of the tasks a
// process registered are pending at once; with recovery armed they are
// journal records, which the journal's size bounds instead.
func (tc *TC) AddDeferred(affinity int32, t *Task, deps int) (Dep, error) {
	if deps <= 0 {
		return Dep{}, fmt.Errorf("core: AddDeferred needs a positive dependency count, got %d", deps)
	}
	if int(t.Handle()) < 0 || int(t.Handle()) >= len(tc.callbacks) {
		return Dep{}, fmt.Errorf("core: task handle %d not registered", t.Handle())
	}
	if t.BodyLen() > tc.cfg.MaxBodySize {
		return Dep{}, fmt.Errorf("core: task body %dB exceeds collection max %dB", t.BodyLen(), tc.cfg.MaxBodySize)
	}
	pool := tc.pool()
	p := tc.rt.p
	me := p.Rank()
	t.setAffinity(affinity)
	t.setOrigin(me)
	slot := -1
	if tc.rec != nil {
		// A journal record, written with no communication: a seeding rank
		// meets a peer's death only in its adds (deferFault).
		slot = tc.rec.jn.journalize(t, jLive+int64(deps))
	} else {
		for s := 0; s < pool.slots && slot < 0; s++ {
			if p.Load64(me, pool.ctr, s) == depFree {
				// Claim: write the descriptor first, then publish the counter.
				slot = s
				copy(p.Local(pool.data)[s*pool.slotSize:], t.wire())
				p.Store64(me, pool.ctr, s, int64(deps))
			}
		}
	}
	if slot < 0 {
		return Dep{}, fmt.Errorf("core: deferred-task pool full (%d slots)", tc.cfg.MaxDeferred)
	}
	tc.stats.DeferredRegistered++
	return Dep{Proc: int32(me), Slot: int32(slot)}, nil
}

// Satisfy atomically resolves one dependency of the deferred task. The
// caller that resolves the last dependency fetches the descriptor and
// enqueues it; that caller's Add follows the normal full-queue rules
// (inline execution during a processing phase).
//
// With recovery armed the record is a journal record, and a Satisfy that
// a fault cuts short is applied again, exactly once: the last dependency
// leaves the record live, so a launch cut short is replayed by the
// record's home; an edge that had not landed is applied by resuming the
// execution that made it, which skips the edges that had (recover.go), or,
// made outside any execution, from the collection's owed list once
// Process has healed the fault.
func (tc *TC) Satisfy(d Dep) {
	pool := tc.pool()
	if tc.rec == nil {
		tc.satisfy(pool, d)
		return
	}
	tc.effect(func() { tc.rec.owe(d) }, func() { tc.satisfy(pool, tc.rec.remapDep(d)) })
}

// satisfy applies one dependency edge, d's, and launches the task when it
// was the last. With recovery armed the launched descriptor is its own
// journal record, read back with its reference, so the launch records
// nothing.
func (tc *TC) satisfy(pool *depPool, d Dep) {
	p := tc.rt.p
	target := int(d.Proc)
	slot := int(d.Slot)
	if target < 0 || target >= p.NProcs() || slot < 0 || slot >= pool.slots {
		panic(fmt.Sprintf("core: Satisfy of invalid dep %+v", d))
	}
	old := p.FetchAdd64(target, pool.ctr, slot, -1)
	tc.rec.applied()
	switch {
	case old <= pool.base:
		panic(fmt.Sprintf("core: Satisfy of dep %+v with count %d (unregistered or over-satisfied)", d, old-pool.base))
	case old > pool.base+1:
		return // dependencies remain
	}
	// Final dependency: launch the task.
	buf := make([]byte, pool.slotSize)
	p.Get(buf, target, pool.data, slot*pool.slotSize)
	task := decodeTask(buf)
	tc.stats.DeferredLaunched++
	if tc.rec == nil {
		// Free the slot once the descriptor is copied out: the launch is
		// this rank's add.
		p.Store64(target, pool.ctr, slot, depFree)
		task.setOrigin(p.Rank())
	}
	if err := tc.addJournaled(target, task); err != nil {
		panic(fmt.Sprintf("core: launching deferred task: %v", err))
	}
}

// PendingDeferred counts this process's registered-but-unlaunched deferred
// tasks (a debugging aid for dependency leaks at phase end).
func (tc *TC) PendingDeferred() int {
	pool := tc.pool()
	n := 0
	for slot := 0; slot < pool.slots; slot++ {
		if tc.rt.p.RelaxedLoad64(pool.ctr, slot) > pool.base {
			n++
		}
	}
	return n
}
