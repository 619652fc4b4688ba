package core

import (
	"fmt"
	"strings"
	"testing"

	"scioto/internal/pgas"
	"scioto/internal/pgas/shm"
)

// rejoinWitness is a proc over the transport's that checks, at each
// recovery's rejoin barrier, what the recovery left on its rank's ring:
// no descriptor there may name a dead home, because no later recovery
// reads a dead rank's journal, so a task recorded only there is lost to
// the next death. The claims scan re-records the queued ones and the
// healer re-homes the ones it salvages. The check reads the ring through
// the owner's mirrors and a relaxed load of its packed word: it issues no
// op of its own.
type rejoinWitness struct {
	pgas.Front
	pgas.Kernel
	tc      *TC
	checked int64 // the recovery epoch checked last
	met     bool  // the epoch's first barrier, the rendezvous, has passed
}

func (w *rejoinWitness) Unwrap() pgas.Kernel { return w.Kernel }

// Barrier checks the ring at the second barrier of every recovery, its
// rejoin; the first is its rendezvous.
func (w *rejoinWitness) Barrier() {
	if w.tc != nil && w.tc.rec.epoch > w.checked {
		if w.met {
			w.check()
			w.checked = w.tc.rec.epoch
		}
		w.met = !w.met
	}
	w.Front.Barrier()
}

func (w *rejoinWitness) check() {
	q, rec := w.tc.q, w.tc.rec
	for i := q.top - q.totalCountHint(); i < q.top; i++ {
		if home := wireJHome(q.ring[q.slotOff(i):]); home >= 0 && !rec.alive[home] {
			panic(fmt.Sprintf("core: after recovery %d, rank %d index %d names dead home %d", rec.epoch, q.me, i, home))
		}
	}
}

// NewCheckedTC is NewTC with recovery armed, over p wrapped in a
// rejoinWitness.
func NewCheckedTC(p pgas.Proc, cfg Config) *TC {
	w := &rejoinWitness{Kernel: p}
	w.Bind(w)
	rt := Attach(w)
	rt.EnableRecovery()
	w.tc = NewTC(rt, cfg)
	return w.tc
}

// TestRejoinWitnessFlagsDeadHome: the witness's check passes a ring whose
// descriptors name live homes, or none, and panics on one that names a
// dead home — the state a healer that requeued a salvaged task without
// re-homing it would leave behind.
func TestRejoinWitnessFlagsDeadHome(t *testing.T) {
	var home int
	var got [4]string
	err := shm.NewWorld(shm.Config{NProcs: 2, Seed: 9, Survivable: true}).Run(func(p pgas.Proc) {
		w := &rejoinWitness{Kernel: p}
		w.Bind(w)
		rt := Attach(w)
		rt.EnableRecovery()
		w.tc = NewTC(rt, Config{MaxBodySize: 24})
		tc := w.tc
		leaf := NewTask(tc.Register(func(*TC, *Task) {}), 24)
		if p.Rank() == 0 {
			for i := 0; i < 2; i++ {
				if err := tc.Add(0, AffinityHigh, leaf); err != nil {
					panic(err)
				}
			}
			check := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				w.check()
				return ""
			}
			slot := tc.q.ring[tc.q.slotOff(tc.q.top-1):]
			home = wireJHome(slot)
			got[0] = check()
			tc.rec.alive[1] = false
			got[1] = check()
			pgas.PutI32(slot[hdrJHome:], 1)
			got[2] = check()
			pgas.PutI32(slot[hdrJHome:], -1)
			got[3] = check()
			pgas.PutI32(slot[hdrJHome:], int32(home))
			tc.rec.alive[1] = true
		}
		tc.Process()
	})
	if err != nil {
		t.Fatal(err)
	}
	if home != 0 {
		t.Fatalf("an armed add on rank 0 recorded home %d, want 0", home)
	}
	for i, c := range []struct{ ring, want string }{
		{"every rank alive", ""},
		{"rank 1 dead, no descriptor homed there", ""},
		{"a descriptor homed on dead rank 1", "names dead home 1"},
		{"rank 1 dead, an unjournaled descriptor", ""},
	} {
		if (got[i] == "") != (c.want == "") || !strings.Contains(got[i], c.want) {
			t.Errorf("%s: check panicked with %q, want %q", c.ring, got[i], c.want)
		}
	}
}
