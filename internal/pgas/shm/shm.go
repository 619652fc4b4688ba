// Package shm implements the pgas interface with real shared-memory
// concurrency: every simulated process is a goroutine and all communication
// primitives are built from sync and sync/atomic. It is the transport used
// for correctness testing (including under the race detector) and for
// measuring the true cost of individual Scioto queue operations (Table 1).
//
// An optional calibrated latency can be injected on remote operations so
// that single-host runs reproduce the local/remote cost ratio of the
// paper's InfiniBand cluster.
//
// A rank failure (any panic out of the SPMD body, including injected
// faults from pgas/faulty) poisons the whole world: the mailboxes wake
// their waiters (a barrier waits in one), and every later communication op
// on any rank panics with a clone of the first registered *pgas.FaultError,
// so survivors unwind promptly instead of parking forever. Run returns
// that fault, rank-attributed, exactly as the tcp transport does.
package shm

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scioto/internal/pgas"
)

// Config parameterizes a shared-memory world.
type Config struct {
	// NProcs is the number of simulated processes (goroutines).
	NProcs int
	// RemoteLatency, when nonzero, is busy-waited on every operation that
	// targets a process other than the caller, emulating network latency.
	RemoteLatency time.Duration
	// RemotePerByte, when nonzero, adds a bandwidth term to injected
	// latency: RemotePerByte per transferred byte.
	RemotePerByte time.Duration
	// SpeedFactor, when non-nil, returns the relative cost multiplier for
	// computation on the given rank (1.0 = nominal; larger = slower CPU).
	// It models heterogeneous clusters.
	SpeedFactor func(rank int) float64
	// Seed seeds the per-process random sources.
	Seed int64
	// Survivable switches the failure model from whole-world poisoning to
	// per-rank containment: a rank death is delivered to each survivor
	// exactly once (as a *pgas.FaultError panic from its next operation),
	// after which the survivor acknowledges it via SurviveFault and the
	// world keeps operating over the live membership — barriers complete
	// with live arrivals and the dead rank's symmetric memory stays
	// reachable by every one-sided op. Run returns nil when every
	// surviving rank finishes cleanly.
	Survivable bool
}

type world struct {
	cfg Config

	// The segment tables. Collective allocation appends under allocMu and
	// publishes a new snapshot; the operation path loads the
	// current one and indexes it, with no lock. A snapshot is never
	// modified after publication (an append that reuses spare capacity
	// writes only past every published length), so an op on an existing
	// segment does not race a peer that is still allocating the next one.
	allocMu sync.Mutex
	tab     atomic.Pointer[tables]
	segs    pgas.Segments // the data segments' memory, under allocMu; Run releases it

	accMu []sync.Mutex // per-process accumulate lock (ARMCI_Acc atomicity)

	boxes []*mailbox

	// Crash containment, mirroring the tcp transport's failure model: the
	// first rank to die registers its fault here and every structure a
	// sibling goroutine can park in — the mailboxes — wakes with the fault, while subsequent communication operations (a lock
	// attempt is one) panic a rank-attributed clone. Without this
	// a crashed rank (e.g. an injected fault) leaves the other goroutines
	// blocked forever and Run never returns.
	fault    atomic.Pointer[pgas.FaultError]
	failOnce sync.Once

	// Survivable-mode membership, guarded by deadMu. faultSeq counts
	// registered deaths; each proc acknowledges up to a sequence number,
	// so check() delivers every death exactly once per survivor.
	deadMu    sync.Mutex
	deadRanks []bool
	faultSeq  atomic.Int64
}

type tables struct {
	data  [][][]byte  // [seg][proc]bytes
	words [][][]int64 // [seg][proc]words
}

// NewWorld creates a shared-memory world with the given configuration.
func NewWorld(cfg Config) pgas.World {
	if cfg.NProcs <= 0 {
		panic("shm: NProcs must be positive")
	}
	return &world{cfg: cfg}
}

func (w *world) NProcs() int { return w.cfg.NProcs }

// fail registers rank's death of fe and wakes every parked goroutine.
// Later deaths (the cascade of survivors panicking on their next
// operation) are ignored: the first fault is the root cause.
//
// In survivable mode every death is registered (bumping faultSeq so every
// survivor observes it once) and the world keeps operating. A rank that
// dies on a clone of an earlier death (the clone names the root rank) is
// registered too, so no survivor waits on it, while the world keeps the
// root's fault as its attribution.
func (w *world) fail(rank int, fe *pgas.FaultError) {
	if w.cfg.Survivable {
		w.deadMu.Lock()
		w.deadRanks[rank] = true
		if fe.Rank == rank || w.fault.Load() == nil {
			w.fault.Store(fe)
		}
		w.faultSeq.Add(1)
		root := w.fault.Load()
		w.deadMu.Unlock()
		for _, b := range w.boxes {
			b.fail(root)
		}
		return
	}
	w.failOnce.Do(func() {
		w.fault.Store(fe)
		for _, b := range w.boxes {
			b.fail(fe)
		}
	})
}

// Run starts a fresh machine every time: no segment, message, death or
// fault of an earlier run carries over. The large data segments are
// unmapped before Run returns, which ends the life of every Local slice.
func (w *world) Run(body func(p pgas.Proc)) error {
	n := w.cfg.NProcs
	*w = world{
		cfg:       w.cfg,
		segs:      pgas.Segments{Heap: raceBuild},
		accMu:     make([]sync.Mutex, n),
		boxes:     make([]*mailbox, n),
		deadRanks: make([]bool, n),
	}
	w.tab.Store(&tables{})
	defer w.segs.Release()
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, w.cfg.NProcs)
	for r := 0; r < w.cfg.NProcs; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if fe, ok := rec.(*pgas.FaultError); ok {
						// Transport faults are already structured and
						// rank-attributed; keep the typed error intact
						// for errors.As / pgas.AsFault.
						errs[rank] = fe
						fmt.Fprintf(os.Stderr, "shm: rank %d: %v\n", rank, fe)
						w.fail(rank, fe)
						return
					}
					buf := make([]byte, 16<<10)
					n := runtime.Stack(buf, false)
					errs[rank] = fmt.Errorf("shm: rank %d panicked: %v\n%s", rank, rec, buf[:n])
					// Surface the failure immediately: sibling ranks may
					// be blocked in collectives this rank will never
					// reach, so the error must not wait for Run to return.
					fmt.Fprintf(os.Stderr, "%v\n", errs[rank])
					w.fail(rank, &pgas.FaultError{
						Rank:  rank,
						Phase: "exit",
						Err:   fmt.Errorf("rank %d panicked: %v", rank, rec),
					})
				}
			}()
			p := &proc{w: w, rank: rank}
			p.clk = pgas.NewClock(start, nil, w.cfg.Seed, rank, w.cfg.SpeedFactor)
			p.Bind(p)
			body(p)
		}(r)
	}
	wg.Wait()
	// The first-registered fault is the root cause: survivors' errors are
	// cascade clones of it. For a generic panic the origin rank's own
	// entry carries the stack, so prefer it over the synthesized fault.
	if fe := w.fault.Load(); fe != nil {
		if w.cfg.Survivable {
			// Recovered run: every rank that exited with an error died of
			// its own *pgas.FaultError and one finished cleanly, so the
			// survivors healed around the death(s). One that died on
			// another rank's fault did not heal, and a plain panic is a
			// failure, not a death.
			recovered := false
			for r, err := range errs {
				if c, ok := err.(*pgas.FaultError); err != nil && (!ok || c.Rank != r) {
					recovered = false
					break
				}
				recovered = recovered || err == nil
			}
			if recovered {
				return nil
			}
		}
		if fe.Phase == "exit" && errs[fe.Rank] != nil {
			return errs[fe.Rank]
		}
		return fe
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type proc struct {
	pgas.Front
	w    *world
	rank int
	clk  pgas.Clock

	// Per-process collective allocation counters. Collective allocation
	// calls must occur in the same order on every process; each process's
	// i-th call maps to global segment i.
	dataCount int
	wordCount int

	// ackedSeq is the fault sequence number this proc has acknowledged
	// (survivable mode). check() panics once per unacknowledged death;
	// SurviveFault advances it. Only touched by the proc's own goroutine.
	ackedSeq int64
	// alive is the bitmap Membership fills and returns (survivable mode).
	alive []bool
}

var _ pgas.Proc = (*proc)(nil)

func (p *proc) Rank() int          { return p.rank }
func (p *proc) NProcs() int        { return p.w.cfg.NProcs }
func (p *proc) Clock() *pgas.Clock { return &p.clk }

// check panics a clone of the registered world fault, so a surviving rank
// — including one spinning in an application-level polling loop built
// from non-blocking operations — unwinds on its next communication
// attempt instead of running against a half-dead world. The clone leaves
// Op unset: which local operation surfaced the fault differs per rank and
// the root attribution is what matters.
func (p *proc) check() {
	fe := p.w.fault.Load()
	if fe == nil {
		return
	}
	if p.w.cfg.Survivable && p.w.faultSeq.Load() <= p.ackedSeq {
		// Every registered death has been acknowledged (SurviveFault);
		// the world keeps operating over the live membership.
		return
	}
	panic(&pgas.FaultError{Rank: fe.Rank, Phase: fe.Phase, Detail: fe.Detail, Err: fe.Err})
}

// Collective allocation: the first process to request allocation index i
// creates instances for all processes; later arrivals attach. Sizes must
// agree across processes.

func (p *proc) AllocData(nbytes int) pgas.Seg {
	w := p.w
	w.allocMu.Lock()
	defer w.allocMu.Unlock()
	seg := p.dataCount
	if t := w.tab.Load(); seg == len(t.data) {
		nt := *t
		nt.data = append(nt.data, w.segs.Alloc(w.cfg.NProcs, nbytes))
		w.tab.Store(&nt)
	} else if got := len(t.data[seg][0]); got != nbytes {
		panic(fmt.Sprintf("shm: collective AllocData size mismatch on rank %d: %d vs %d", p.rank, nbytes, got))
	}
	p.dataCount++
	return pgas.Seg(seg)
}

func (p *proc) AllocWords(nwords int) pgas.Seg {
	w := p.w
	w.allocMu.Lock()
	defer w.allocMu.Unlock()
	seg := p.wordCount
	if t := w.tab.Load(); seg == len(t.words) {
		inst := make([][]int64, w.cfg.NProcs)
		for i := range inst {
			inst[i] = make([]int64, nwords)
		}
		nt := *t
		nt.words = append(nt.words, inst)
		w.tab.Store(&nt)
	} else if got := len(t.words[seg][0]); got != nwords {
		panic(fmt.Sprintf("shm: collective AllocWords size mismatch on rank %d: %d vs %d", p.rank, nwords, got))
	}
	p.wordCount++
	return pgas.Seg(seg)
}

func (p *proc) netDelay(proc, nbytes int) {
	if proc == p.rank {
		return
	}
	pgas.Spin(p.w.cfg.RemoteLatency + time.Duration(nbytes)*p.w.cfg.RemotePerByte)
}

// Issue completes every operation inline, non-blocking ones included:
// the transport's value is race-detector coverage of the real memory
// operations, and deferring them to Flush would hide exactly the
// interleavings the detector should see. Always-NbDone with a no-op Flush
// is a legal (maximally eager) completion schedule under the contract.
func (p *proc) Issue(op *pgas.Op) pgas.Nb {
	p.check()
	p.netDelay(op.Target, op.Bytes())
	t := p.w.tab.Load()
	if op.Kind.IsWord() {
		op.ApplyWord(&t.words[op.Seg][op.Target][op.Off])
		return pgas.NbDone
	}
	if op.Kind == pgas.OpAccF64 {
		mu := &p.w.accMu[op.Target]
		mu.Lock()
		defer mu.Unlock()
	}
	op.ApplyData(t.data[op.Seg][op.Target][op.Off : op.Off+op.Bytes()])
	return pgas.NbDone
}

func (p *proc) Flush() {}

func (p *proc) Local(seg pgas.Seg) []byte { return p.w.tab.Load().data[seg][p.rank] }

func (p *proc) LocalWords(seg pgas.Seg) []int64 { return p.w.tab.Load().words[seg][p.rank] }

func (p *proc) Send(to int, tag int32, data []byte) {
	p.check()
	p.netDelay(to, len(data))
	cp := make([]byte, len(data))
	copy(cp, data)
	p.w.boxes[to].push(message{from: p.rank, tag: tag, data: cp})
}

func (p *proc) Recv(from int, tag int32) ([]byte, int) {
	m, fe := p.w.boxes[p.rank].pop(from, tag, true, p.ackedSeq)
	if fe != nil {
		p.check()
	}
	return m.data, m.from
}

func (p *proc) TryRecv(from int, tag int32) ([]byte, int, bool) {
	m, fe := p.w.boxes[p.rank].pop(from, tag, false, p.ackedSeq)
	if fe != nil {
		p.check()
	}
	if m.data == nil && m.from < 0 {
		return nil, -1, false
	}
	return m.data, m.from, true
}

// pgas.Resilient: survivable-mode fault acknowledgement. The dying
// goroutine's final writes happen-before fail() registers the death
// (release on w.fault), and the survivor's check() load acquired it
// before panicking, so its later one-sided reads of the dead rank's
// memory are ordered after everything the dead rank wrote.

var _ pgas.Resilient = (*proc)(nil)

// SurviveFault acknowledges every death registered so far and returns the
// live membership. ok is false when the world is not survivable.
func (p *proc) SurviveFault(fe *pgas.FaultError) (alive []bool, ok bool) {
	if !p.w.cfg.Survivable {
		return nil, false
	}
	p.ackedSeq = p.w.faultSeq.Load()
	alive, _ = p.Membership()
	return append([]bool(nil), alive...), true
}

// Membership reports the acknowledged fault sequence and the ranks not
// registered dead, in the proc's own bitmap.
func (p *proc) Membership() (alive []bool, epoch int64) {
	w := p.w
	if !w.cfg.Survivable {
		return nil, 0
	}
	if p.alive == nil {
		p.alive = make([]bool, w.cfg.NProcs)
	}
	w.deadMu.Lock()
	for r := range p.alive {
		p.alive[r] = !w.deadRanks[r]
	}
	w.deadMu.Unlock()
	return p.alive, p.ackedSeq
}
