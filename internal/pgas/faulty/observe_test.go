package faulty_test

import (
	"maps"
	"sync"
	"testing"
	"time"

	"scioto/internal/obs"
	"scioto/internal/pgas"
	"scioto/internal/pgas/faulty"
	"scioto/internal/pgas/shm"
	"scioto/internal/trace"
)

// observed captures Observe callbacks from concurrently running ranks.
type observed struct {
	mu     sync.Mutex
	faults []string // kind
	ops    map[string]int
}

func (o *observed) hook(now time.Duration, rank int, kind, op string, target int) {
	o.mu.Lock()
	o.faults = append(o.faults, kind)
	if o.ops == nil {
		o.ops = make(map[string]int)
	}
	o.ops[op]++
	o.mu.Unlock()
}

func (o *observed) kinds() map[string]int {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := make(map[string]int)
	for _, k := range o.faults {
		m[k]++
	}
	return m
}

func TestObserveDrop(t *testing.T) {
	var o observed
	w := faulty.Wrap(shm.NewWorld(shm.Config{NProcs: 2, Seed: 1}), faulty.Config{
		Seed: 1, DropProb: 1, CrashRank: faulty.NoCrash, Observe: o.hook,
	})
	err := w.Run(func(p pgas.Proc) {
		words := p.AllocWords(1)
		p.Store64((p.Rank()+1)%2, words, 0, 1) // remote → dropped
	})
	if err == nil {
		t.Fatal("expected injected drop to fail the run")
	}
	if o.kinds()["drop"] == 0 {
		t.Fatalf("observer saw no drops: %v", o.kinds())
	}
}

// TestObserveDelayAndStalls: with every operation delayed, the observer
// sees each one by name. A barrier is Front's Sends and Recvs over the
// wrapper, so a stalled barrier is its delayed messages: one Send and one
// Recv per rank and barrier at P = 2.
func TestObserveDelayAndStalls(t *testing.T) {
	var o observed
	w := faulty.Wrap(shm.NewWorld(shm.Config{NProcs: 2, Seed: 2}), faulty.Config{
		Seed: 2, DelayProb: 1, MaxDelay: time.Microsecond,
		CrashRank: faulty.NoCrash, Observe: o.hook,
	})
	err := w.Run(func(p pgas.Proc) {
		words := p.AllocWords(1)
		lk := p.AllocLock()
		p.Barrier()
		p.Store64((p.Rank()+1)%2, words, 0, 1)
		p.Lock((p.Rank()+1)%2, lk)
		p.Unlock((p.Rank()+1)%2, lk)
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if k := o.kinds(); len(k) != 1 || k["delay"] == 0 {
		t.Errorf("observer saw %v, want delays only", k)
	}
	// A lock is built on CAS64 above the wrapper, so its traffic is delayed
	// like any word operation: one CAS64 per rank to lock, one to unlock.
	want := map[string]int{"Send": 4, "Recv": 4, "Store64": 2, "CAS64": 4}
	if !maps.Equal(o.ops, want) {
		t.Errorf("delays by op = %v, want %v", o.ops, want)
	}
}

func TestObserveCrash(t *testing.T) {
	var o observed
	w := faulty.Wrap(shm.NewWorld(shm.Config{NProcs: 2, Seed: 3}), faulty.Config{
		Seed: 3, CrashRank: 1, CrashAfterOps: 1, Observe: o.hook,
	})
	err := w.Run(func(p pgas.Proc) {
		words := p.AllocWords(1)
		p.Store64(p.Rank(), words, 0, 1)
	})
	if err == nil {
		t.Fatal("expected injected crash to fail the run")
	}
	if o.kinds()["crash"] != 1 {
		t.Fatalf("observer crash count = %d, want 1", o.kinds()["crash"])
	}
}

// TestObserveFeedsHub wires the hook the way the facade does and checks
// faults land as obs counters and trace events.
func TestObserveFeedsHub(t *testing.T) {
	hub := obs.NewHub()
	rec := trace.NewRecorder(0, 100, nil)
	hub.SetTracer(0, rec)
	w := faulty.Wrap(shm.NewWorld(shm.Config{NProcs: 2, Seed: 4}), faulty.Config{
		Seed: 4, DelayProb: 1, MaxDelay: time.Microsecond,
		CrashRank: faulty.NoCrash, Observe: hub.RecordFault,
	})
	err := w.Run(func(p pgas.Proc) {
		words := p.AllocWords(1)
		p.Barrier()
		p.Store64((p.Rank()+1)%2, words, 0, 1)
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	got := hub.Registry(0).Counter(`scioto_faults_injected_total{kind="delay",target="1"}`, "").Value()
	if got == 0 {
		t.Fatal("hub counter saw no delays for rank 0 → 1")
	}
	found := false
	for _, e := range rec.Records() {
		if e.Kind == trace.Fault && e.A1 == obs.FaultDelay && e.Start == e.End {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("rank 0's trace has no Fault instant")
	}
}
