package core

import (
	"fmt"
	"math/rand"
	"testing"

	"scioto/internal/pgas"
	"scioto/internal/pgas/shm"
)

// withQueue runs f on a fresh 2-process shm world with a queue of the given
// geometry on each process.
func withQueue(t *testing.T, slotBody, capacity int, f func(p pgas.Proc, q *taskQueue)) {
	t.Helper()
	w := shm.NewWorld(shm.Config{NProcs: 2, Seed: 9})
	if err := w.Run(func(p pgas.Proc) {
		q := newTaskQueue(p, ModeSplit, HeaderBytes+slotBody, capacity)
		p.Barrier()
		f(p, q)
		p.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
}

// mkWire builds a task wire image with the value encoded in the body.
func mkWire(body int, val int64) []byte {
	tk := NewTask(0, body)
	pgas.PutI64(tk.Body(), val)
	return tk.wire()
}

// TestQueueLIFOPrivate: private push/pop is LIFO.
func TestQueueLIFOPrivate(t *testing.T) {
	withQueue(t, 8, 64, func(p pgas.Proc, q *taskQueue) {
		if p.Rank() != 0 {
			return
		}
		var s Stats
		for i := int64(0); i < 10; i++ {
			if !q.pushPrivate(mkWire(8, i), &s) {
				panic("push failed")
			}
		}
		for i := int64(9); i >= 0; i-- {
			tk, ok := q.popPrivate(&s)
			if !ok || pgas.GetI64(tk.Body()) != i {
				panic(fmt.Sprintf("LIFO violated at %d", i))
			}
		}
		if _, ok := q.popPrivate(&s); ok {
			panic("pop from empty queue succeeded")
		}
	})
}

// TestQueueSharedFIFO: remote adds prepend at the steal end; steals return
// the most recently prepended first (the steal end is ordered away from the
// owner).
func TestQueueRemoteAddThenSteal(t *testing.T) {
	withQueue(t, 8, 64, func(p pgas.Proc, q *taskQueue) {
		var s Stats
		if p.Rank() == 0 {
			for i := int64(0); i < 6; i++ {
				if !q.addRemote(1, mkWire(8, i), &s) {
					panic("remote add failed")
				}
			}
		}
		p.Barrier()
		if p.Rank() == 0 {
			// Steal back from rank 1's shared region.
			if k, res := q.steal(1, 4, false, &s); res != stealOK || k != 4 {
				panic(fmt.Sprintf("steal: %v, %d tasks", res, k))
			}
			// The last prepended values sit at the lowest indices, 5,4,3,2,
			// and land in that order at the thief's top: pops return 2,3,4,5.
			for want := int64(2); want <= 5; want++ {
				tk, ok := q.popPrivate(&s)
				if got := pgas.GetI64(tk.Body()); !ok || got != want {
					panic(fmt.Sprintf("landed task popped as %d, want %d", got, want))
				}
			}
		}
	})
}

// TestQueueReleaseReacquire: releasing exposes half the private work;
// reacquire reclaims shared work; counts always balance.
func TestQueueReleaseReacquire(t *testing.T) {
	withQueue(t, 8, 64, func(p pgas.Proc, q *taskQueue) {
		if p.Rank() != 0 {
			return
		}
		var s Stats
		for i := int64(0); i < 8; i++ {
			q.pushPrivate(mkWire(8, i), &s)
		}
		counts := func() (private, shared int64) { return q.top - q.split, wordN(q.sharedHint()) }
		if private, shared := counts(); private != 8 || shared != 0 {
			panic("initial counts wrong")
		}
		q.maybeRelease(true, &s)
		if private, shared := counts(); private != 4 || shared != 4 {
			panic(fmt.Sprintf("after release: private %d shared %d", private, shared))
		}
		// Drain the private portion, then reacquire.
		for i := 0; i < 4; i++ {
			if _, ok := q.popPrivate(&s); !ok {
				panic("pop failed")
			}
		}
		if _, ok := q.popPrivate(&s); ok {
			panic("private should be empty")
		}
		if !q.reacquire(&s) {
			panic("reacquire failed with shared work available")
		}
		if private, shared := counts(); private != 2 || shared != 2 {
			panic(fmt.Sprintf("after reacquire: private %d shared %d", private, shared))
		}
	})
}

// TestQueueCapacity: the queue refuses pushes beyond capacity on both
// paths.
func TestQueueCapacity(t *testing.T) {
	withQueue(t, 8, 4, func(p pgas.Proc, q *taskQueue) {
		if p.Rank() != 0 {
			return
		}
		var s Stats
		for i := int64(0); i < 4; i++ {
			if !q.pushPrivate(mkWire(8, i), &s) {
				panic("push within capacity failed")
			}
		}
		if q.pushPrivate(mkWire(8, 99), &s) {
			panic("push beyond capacity succeeded")
		}
		if q.addRemote(0, mkWire(8, 99), &s) {
			panic("remote add beyond capacity succeeded")
		}
		// Freeing one slot re-enables both paths.
		if _, ok := q.popPrivate(&s); !ok {
			panic("pop failed")
		}
		if !q.addRemote(0, mkWire(8, 5), &s) {
			panic("remote add after free failed")
		}
	})
}

// TestQueueWraparound: indices wrap the ring across many cycles, including
// negative bottoms from remote adds, without corruption.
func TestQueueWraparound(t *testing.T) {
	withQueue(t, 8, 8, func(p pgas.Proc, q *taskQueue) {
		if p.Rank() != 0 {
			return
		}
		var s Stats
		rng := rand.New(rand.NewSource(4))
		live := []int64{}
		next := int64(0)
		for step := 0; step < 2000; step++ {
			switch {
			case rng.Intn(2) == 0 && len(live) < 8:
				if rng.Intn(2) == 0 {
					if !q.pushPrivate(mkWire(8, next), &s) {
						panic("push failed below capacity")
					}
					live = append(live, next) // private end (LIFO top)
				} else {
					if !q.addRemote(0, mkWire(8, next), &s) {
						panic("remote add failed below capacity")
					}
					live = append([]int64{next}, live...) // steal end
				}
				next++
			case len(live) > 0:
				// Pop from the owner end; reacquire as needed.
				tk, ok := q.popPrivate(&s)
				if !ok {
					if !q.reacquire(&s) {
						panic("no work despite live tasks")
					}
					tk, ok = q.popPrivate(&s)
					if !ok {
						panic("pop after reacquire failed")
					}
				}
				got := pgas.GetI64(tk.Body())
				// Owner pops from the private top; the model list's last
				// element corresponds to the top of the deque.
				want := live[len(live)-1]
				if got != want {
					panic(fmt.Sprintf("step %d: popped %d, want %d", step, got, want))
				}
				live = live[:len(live)-1]
			}
		}
	})
}

// TestQueueModelQuick: a randomized differential test of the full local
// protocol (push/pop/release/reacquire) against a simple deque model over
// thousands of operations and several geometries.
func TestQueueModelQuick(t *testing.T) {
	for _, capacity := range []int{2, 3, 8, 17} {
		capacity := capacity
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			withQueue(t, 8, capacity, func(p pgas.Proc, q *taskQueue) {
				if p.Rank() != 0 {
					return
				}
				var s Stats
				rng := rand.New(rand.NewSource(int64(capacity) * 77))
				model := []int64{}
				next := int64(0)
				for step := 0; step < 3000; step++ {
					op := rng.Intn(4)
					switch op {
					case 0: // private push
						ok := q.pushPrivate(mkWire(8, next), &s)
						if ok != (len(model) < capacity) {
							panic(fmt.Sprintf("push ok=%v with %d/%d live", ok, len(model), capacity))
						}
						if ok {
							model = append(model, next)
							next++
						}
					case 1: // shared-end add
						ok := q.addRemote(0, mkWire(8, next), &s)
						if ok != (len(model) < capacity) {
							panic(fmt.Sprintf("add ok=%v with %d/%d live", ok, len(model), capacity))
						}
						if ok {
							model = append([]int64{next}, model...)
							next++
						}
					case 2: // pop (with reacquire)
						tk, ok := q.popPrivate(&s)
						if !ok && q.reacquire(&s) {
							tk, ok = q.popPrivate(&s)
						}
						if ok != (len(model) > 0) {
							panic(fmt.Sprintf("pop ok=%v with %d live", ok, len(model)))
						}
						if ok {
							want := model[len(model)-1]
							if got := pgas.GetI64(tk.Body()); got != want {
								panic(fmt.Sprintf("pop %d, want %d", got, want))
							}
							model = model[:len(model)-1]
						}
					case 3: // release check
						q.maybeRelease(true, &s)
					}
					if total := q.totalCountHint(); total != int64(len(model)) {
						panic(fmt.Sprintf("count %d, model %d", total, len(model)))
					}
				}
			})
		})
	}
}

// TestQueueStealConcurrencyStress: rank 1 floods its own queue while rank 0
// steals continuously; every task must be executed exactly once across both
// ranks (shm transport, real concurrency, race-detector relevant).
func TestQueueStealConcurrencyStress(t *testing.T) {
	const total = 5000
	w := shm.NewWorld(shm.Config{NProcs: 2, Seed: 10})
	seen := make([]int32, total)
	if err := w.Run(func(p pgas.Proc) {
		q := newTaskQueue(p, ModeSplit, HeaderBytes+8, 256)
		done := p.AllocWords(1)
		p.Barrier()
		var s Stats
		if p.Rank() == 1 {
			// Producer-consumer on own queue with periodic release.
			pushed := int64(0)
			for pushed < total {
				if q.pushPrivate(mkWire(8, pushed), &s) {
					pushed++
				} else {
					// Full: drain one locally.
					if tk, ok := q.popPrivate(&s); ok {
						seen[pgas.GetI64(tk.Body())]++
					} else if !q.reacquire(&s) {
						panic("full queue with nothing to pop")
					}
				}
				q.maybeRelease(true, &s)
			}
			// Drain the remainder.
			for {
				tk, ok := q.popPrivate(&s)
				if !ok {
					if q.reacquire(&s) {
						continue
					}
					break
				}
				seen[pgas.GetI64(tk.Body())]++
			}
			p.Store64(0, done, 0, 1)
		} else {
			// Steals land in this rank's ring, to be popped; once the
			// producer has finished, a final sweep until one finds nothing.
			for {
				finished := p.Load64(0, done, 0) != 0
				k, _ := q.steal(1, 7, false, &s)
				for i := k; i > 0; i-- {
					tk, _ := q.popPrivate(&s)
					seen[pgas.GetI64(tk.Body())]++
				}
				if finished && k == 0 {
					break
				}
			}
		}
		p.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("task %d executed %d times", i, n)
		}
	}
}

// TestSplitQueueRejectsWhatItsWordCannotCount: a capacity beyond the packed
// word's count fields is refused at creation, not wrapped at run time.
func TestSplitQueueRejectsWhatItsWordCannotCount(t *testing.T) {
	for _, c := range []struct {
		mode     QueueMode
		capacity int
		ok       bool
	}{
		{ModeSplit, maxSplitTasks, true},
		{ModeSplit, maxSplitTasks + 1, false},
		{ModeLocked, maxSplitTasks + 1, true},
	} {
		err := shm.NewWorld(shm.Config{NProcs: 1, Seed: 1}).Run(func(p pgas.Proc) {
			newTaskQueue(p, c.mode, HeaderBytes, c.capacity)
		})
		if (err == nil) != c.ok {
			t.Errorf("%v queue of %d tasks: %v", c.mode, c.capacity, err)
		}
	}
}
