package dsim

import (
	"fmt"
	"time"

	"scioto/internal/pgas"
	"scioto/internal/trace"
)

// proc is a simulated process. All of its methods must be called from the
// process's own goroutine, while it holds the scheduler token.
type proc struct {
	pgas.Front
	w    *world
	rank int
	clk  pgas.Clock // virtual: Now reads clock, Compute and Charge advance it

	clock time.Duration
	state procState
	err   error

	resumeCh chan struct{} // the token, handed over by the proc that had it

	// Recv wait descriptor, valid while state == stateWaiting.
	waitFrom int
	waitTag  int32

	inbox []message

	dataCount int
	wordCount int

	// ackedSeq is the fault sequence this proc has acknowledged
	// (survivable mode); yield() panics a fault clone while it lags the
	// world's sequence, and SurviveFault advances it.
	ackedSeq int64
	// alive is the bitmap Membership fills and returns (survivable mode).
	alive []bool

	// Pending non-blocking operations, completed (and their data movement
	// performed) at the next Flush. Descriptors are held by value so the
	// pending slice is reusable without per-issue allocation.
	nb []pgas.Op

	// rec, when attached, receives the NIC service window of every remote
	// operation this process issues, in virtual time. Windows are derived
	// from the deterministic clock, so traced runs stay bit-reproducible.
	rec *trace.Recorder
}

// AttachRecorder wires the rank's recorder into this process's handle
// (trace.Attacher).
func (p *proc) AttachRecorder(r *trace.Recorder) { p.rec = r }

var _ pgas.Proc = (*proc)(nil)

func (p *proc) Rank() int          { return p.rank }
func (p *proc) NProcs() int        { return p.w.cfg.NProcs }
func (p *proc) Clock() *pgas.Clock { return &p.clk }

// yield returns when this process's clock is the global minimum among
// runnable processes: at once while it still is (the token stays), and
// otherwise after handing the token to the minimum and being handed it back.
func (p *proc) yield() {
	if next := p.w.dispatch(p); next != p {
		next.resumeCh <- struct{}{}
		<-p.resumeCh
	}
	p.resumed()
	if p.w.cfg.Survivable && p.w.faultSeq > p.ackedSeq {
		// An unacknowledged rank death: deliver it by unwinding the
		// operation that yielded. The panic happens while this proc holds
		// the scheduler token, so a survivor that recovers (acknowledging
		// via SurviveFault) continues issuing operations normally.
		fe := p.w.fault
		panic(&pgas.FaultError{Rank: fe.Rank, Phase: fe.Phase, Detail: fe.Detail, Err: fe.Err})
	}
}

// resumed applies what holding the token at a new clock means, whether the
// token was handed over or kept: the MaxVirtualTime guard, and the unwinding
// of an aborted world.
func (p *proc) resumed() {
	w := p.w
	if w.cfg.MaxVirtualTime > 0 && p.clock > w.cfg.MaxVirtualTime && !w.aborting {
		w.err = fmt.Errorf("dsim: virtual time %v exceeded MaxVirtualTime %v", p.clock, w.cfg.MaxVirtualTime)
		w.aborting = true
	}
	if w.aborting {
		panic(abortPanic{})
	}
}

// advance adds d to the local clock without yielding.
func (p *proc) advance(d time.Duration) { p.clock += d }

// ordered charges cost and yields, so that when it returns this process may
// perform a globally visible operation at the current virtual time.
func (p *proc) ordered(cost time.Duration) {
	p.advance(cost)
	p.yield()
}

// orderedRemote charges the cost of a one-sided operation of n payload
// bytes targeting the given process and yields so the caller may perform
// it. A remote operation first yields to its issue point, where it books
// its slot on the target's interface behind every slot booked before it
// (reserve), and then completes once, at the later of its round trip and
// its slot's start — the serialization that makes hot objects (a shared
// counter, a popular victim's queue lock) scale poorly.
func (p *proc) orderedRemote(target, n int) {
	// A blocking one-sided operation may not overtake pending non-blocking
	// ones: the Proc contract orders them per origin-target pair (on tcp
	// this falls out of frame order on the connection; here the pending ops
	// execute lazily, so they must drain first).
	if len(p.nb) > 0 {
		p.Flush()
	}
	if target != p.rank {
		p.yield()
	}
	done := p.clock + p.opCost(target, n)
	if start, _ := p.reserve(target, p.clock, n); start > done {
		done = start
	}
	p.clock = done
	p.yield()
}

// reserve books n payload bytes' service on target's interface for an
// operation issued at virtual time at: the slot starts when the interface
// is next free, or at at, and the interface stays busy until end. It is
// the one writer of busyUntil. Its callers hold the token at at, so every
// operation issued earlier has booked: the interface serves remote
// operations, blocking and flushed alike, in the order they are issued.
// Local operations and a machine without Occupancy book nothing
// (start = end = at).
func (p *proc) reserve(target int, at time.Duration, n int) (start, end time.Duration) {
	if target == p.rank || p.w.cfg.Occupancy == 0 {
		return at, at
	}
	start = max(p.w.busyUntil[target], at)
	end = start + p.w.cfg.Occupancy + time.Duration(n)*p.w.cfg.PerByte
	p.w.busyUntil[target] = end
	p.rec.Record(trace.DsimNIC, start, end, int64(target), 0)
	return start, end
}

// opCost is the cost of a one-sided operation of n payload bytes targeting
// the given process.
func (p *proc) opCost(target, n int) time.Duration {
	if target == p.rank {
		return p.w.cfg.LocalOpCost
	}
	return p.w.cfg.Latency + time.Duration(n)*p.w.cfg.PerByte
}

// --- Collective allocation -------------------------------------------------

// Collective allocations are performed lazily by whichever process arrives
// first; all processes must allocate in the same order with equal sizes.

func (p *proc) AllocData(nbytes int) pgas.Seg {
	p.ordered(p.w.cfg.LocalOpCost)
	seg := p.dataCount
	w := p.w
	if seg == len(w.dataSegs) {
		w.dataSegs = append(w.dataSegs, w.segs.Alloc(w.cfg.NProcs, nbytes))
	} else if got := len(w.dataSegs[seg][0]); got != nbytes {
		panic(fmt.Sprintf("dsim: collective AllocData size mismatch on rank %d: %d vs %d", p.rank, nbytes, got))
	}
	p.dataCount++
	return pgas.Seg(seg)
}

func (p *proc) AllocWords(nwords int) pgas.Seg {
	p.ordered(p.w.cfg.LocalOpCost)
	seg := p.wordCount
	w := p.w
	if seg == len(w.wordSegs) {
		inst := make([][]int64, w.cfg.NProcs)
		for i := range inst {
			inst[i] = make([]int64, nwords)
		}
		w.wordSegs = append(w.wordSegs, inst)
	} else if got := len(w.wordSegs[seg][0]); got != nwords {
		panic(fmt.Sprintf("dsim: collective AllocWords size mismatch on rank %d: %d vs %d", p.rank, nwords, got))
	}
	p.wordCount++
	return pgas.Seg(seg)
}

// --- One-sided operations ------------------------------------------------------

// apply moves the data of one operation; the caller holds the scheduler
// token at the operation's virtual completion time.
func (p *proc) apply(op *pgas.Op) {
	if op.Kind.IsWord() {
		op.ApplyWord(&p.w.wordSegs[op.Seg][op.Target][op.Off])
		return
	}
	op.ApplyData(p.w.dataSegs[op.Seg][op.Target][op.Off : op.Off+op.Bytes()])
}

// Issue has two charging rules over one booking rule. Every remote
// operation books its slot on the target's interface when it is issued
// (reserve), so the interface serves operations in issue order. A blocking
// operation then completes at the later of its round trip and its slot's
// start, and moves its data. A non-blocking one models
// communication/latency overlap: issuing is nearly free (one local
// injection cost, no yield), and completion at Flush charges max(op
// latencies) — the transfers travel the network concurrently — or the end
// of the batch's last slot, if later, instead of the serial sum the
// blocking path pays. This is the model that moves the Table 1 / Figure 7
// virtual-time numbers.
//
// The data movement of a pending operation is deferred to the completion
// point and applied in issue order while holding the scheduler token,
// which is a legal linearization of operations whose completion window is
// [issue, Flush]. Per-target issue-order application is also what the
// per-pair FIFO rule requires.
func (p *proc) Issue(op *pgas.Op) pgas.Nb {
	if op.Nb {
		p.advance(p.w.cfg.LocalOpCost)
		p.nb = append(p.nb, *op)
		return pgas.NbPending
	}
	p.orderedRemote(op.Target, op.Bytes())
	p.apply(op)
	return pgas.NbDone
}

func (p *proc) Local(seg pgas.Seg) []byte { return p.w.dataSegs[seg][p.rank] }

// Flush completes every pending operation. The batch yields to its start,
// books its slots there in issue order (reserve), and completes when both
// the slowest round trip and the last of its slots have finished. Unlike
// the blocking path, the occupancy overlaps the latency advance: the
// requests are already in flight on the wire, so a small trailing op rides
// behind a bulk transfer instead of paying its serialization time again —
// the pipelining win the non-blocking layer exists for.
func (p *proc) Flush() {
	if len(p.nb) == 0 {
		return
	}
	p.yield() // the batch's issue point: every operation issued earlier has booked
	start := p.clock
	end := start
	for i := range p.nb {
		op := &p.nb[i]
		_, nic := p.reserve(op.Target, start, op.Bytes())
		end = max(end, start+p.opCost(op.Target, op.Bytes()), nic)
	}
	p.ordered(end - start)
	for i := range p.nb {
		p.apply(&p.nb[i])
		p.nb[i] = pgas.Op{} // drop buffer references so the reused slice does not pin them
	}
	p.nb = p.nb[:0]
}

func (p *proc) LocalWords(seg pgas.Seg) []int64 { return p.w.wordSegs[seg][p.rank] }

// --- Two-sided messages -------------------------------------------------------

func (p *proc) Send(to int, tag int32, data []byte) {
	n := len(data)
	// The sender is occupied for the injection overhead; the message
	// arrives at the receiver one message latency after the send started.
	arrival := p.clock + p.w.cfg.MsgLatency + time.Duration(n)*p.w.cfg.PerByte
	p.ordered(p.w.cfg.LocalOpCost)
	cp := make([]byte, n)
	copy(cp, data)
	dst := p.w.procs[to]
	dst.inbox = append(dst.inbox, message{from: p.rank, tag: tag, data: cp, arrival: arrival})
	if dst.state == stateWaiting && dst.matches(len(dst.inbox)-1) {
		if dst.clock < arrival {
			dst.clock = arrival
		}
		p.w.wake(dst)
	}
}

// matches reports whether inbox message i satisfies the wait descriptor.
func (p *proc) matches(i int) bool {
	m := p.inbox[i]
	return (p.waitFrom == pgas.AnySource || m.from == p.waitFrom) && m.tag == p.waitTag
}

// takeMatching removes and returns the first inbox message matching
// (from, tag) that has arrived by the local clock. ok reports success.
func (p *proc) takeMatching(from int, tag int32) (message, bool) {
	for i, m := range p.inbox {
		if (from == pgas.AnySource || m.from == from) && m.tag == tag && m.arrival <= p.clock {
			p.inbox = append(p.inbox[:i], p.inbox[i+1:]...)
			return m, true
		}
	}
	return message{}, false
}

func (p *proc) Recv(from int, tag int32) ([]byte, int) {
	p.ordered(p.w.cfg.LocalOpCost)
	if m, ok := p.takeMatching(from, tag); ok {
		return m.data, m.from
	}
	// Block: deschedule until a matching message wakes us. Messages already
	// in flight (arrival > clock) also count — wait for the earliest one.
	if m, ok := p.earliestInFlight(from, tag); ok {
		p.clock = m.arrival
		p.yield()
		m2, ok2 := p.takeMatching(from, tag)
		if !ok2 {
			panic("dsim: in-flight message vanished")
		}
		return m2.data, m2.from
	}
	p.waitFrom = from
	p.waitTag = tag
	p.state = stateWaiting
	p.yield() // not runnable again until a sender wakes us
	m, ok := p.takeMatching(from, tag)
	if !ok {
		panic("dsim: woken without a matching message")
	}
	return m.data, m.from
}

// earliestInFlight finds the matching message with the smallest arrival
// time strictly in the future.
func (p *proc) earliestInFlight(from int, tag int32) (message, bool) {
	best := -1
	for i, m := range p.inbox {
		if (from == pgas.AnySource || m.from == from) && m.tag == tag {
			if best < 0 || m.arrival < p.inbox[best].arrival {
				best = i
			}
		}
	}
	if best < 0 {
		return message{}, false
	}
	return p.inbox[best], true
}

func (p *proc) TryRecv(from int, tag int32) ([]byte, int, bool) {
	// A poll costs PollInterval of CPU time (the paper's "explicit polling
	// operations" under MPI work stealing).
	p.ordered(p.w.cfg.PollInterval)
	if m, ok := p.takeMatching(from, tag); ok {
		return m.data, m.from, true
	}
	return nil, -1, false
}

// --- Resilience (survivable mode) --------------------------------------------

var _ pgas.Resilient = (*proc)(nil)

// SurviveFault acknowledges every death registered so far and returns the
// live membership.
func (p *proc) SurviveFault(fe *pgas.FaultError) (alive []bool, ok bool) {
	if !p.w.cfg.Survivable {
		return nil, false
	}
	p.ackedSeq = p.w.faultSeq
	alive, _ = p.Membership()
	return append([]bool(nil), alive...), true
}

// Membership reports the acknowledged fault sequence and the ranks not
// registered dead, in the proc's own bitmap. Reading deadRanks is
// token-ordered: only the token holder mutates it.
func (p *proc) Membership() (alive []bool, epoch int64) {
	w := p.w
	if !w.cfg.Survivable {
		return nil, 0
	}
	if p.alive == nil {
		p.alive = make([]bool, w.cfg.NProcs)
	}
	for r := range p.alive {
		p.alive[r] = !w.deadRanks[r]
	}
	return p.alive, p.ackedSeq
}
