package ipc

import (
	"encoding/binary"
	"fmt"
	"time"
	"unsafe"

	"scioto/internal/pgas"
	"scioto/internal/trace"
)

// proc is the pgas.Proc handle of one rank process. Every one-sided
// operation resolves the remote address arithmetically (arena base +
// symmetric segment offset) and acts on the mapped bytes directly; there
// is no request path and no goroutine besides the rank's own.
type proc struct {
	pgas.Front
	cfg  Config
	m    *mapping
	rank int
	clk  pgas.Clock

	// Symmetric-heap bump allocation, identical on every rank because
	// collective allocation happens in the same order with the same sizes.
	dataOff  []int64
	dataLen  []int64
	wordOff  []int64
	wordLen  []int64
	heapUsed int64

	// ackedSeq is the fault sequence this rank has acknowledged
	// (survivable mode; see pgas.Resilient). Own-goroutine only.
	ackedSeq int64

	// inbox is the receiver-local message queue: shared rings are drained
	// into it in ring order, and tag/source matching removes from it, so
	// per-pair FIFO holds while non-matching messages stay queued.
	inbox []message

	// rec, when attached, receives ring-backpressure windows against the
	// proc's Now() epoch. Own-goroutine only.
	rec *trace.Recorder
}

// AttachRecorder wires the rank's recorder into this rank's handle
// (trace.Attacher).
func (p *proc) AttachRecorder(r *trace.Recorder) { p.rec = r }

type message struct {
	from int
	tag  int32
	data []byte
}

var _ pgas.Proc = (*proc)(nil)
var _ pgas.Resilient = (*proc)(nil)

func (p *proc) tag() int64         { return int64(p.rank) + 1 }
func (p *proc) Rank() int          { return p.rank }
func (p *proc) NProcs() int        { return p.cfg.NProcs }
func (p *proc) Clock() *pgas.Clock { return &p.clk }

// check panics a clone of the registered fault so a surviving rank
// unwinds on its next communication attempt. In survivable mode a death
// is delivered only until this rank acknowledges it via SurviveFault;
// otherwise any registered fault poisons every later operation, exactly
// like the shm transport. The fast path is one atomic load.
func (p *proc) check() {
	seq := p.m.load(p.m.l.faultSeq)
	if seq == 0 {
		return
	}
	if p.cfg.Survivable && seq <= p.ackedSeq {
		return
	}
	panic(p.m.currentFault(p.tag()))
}

// Collective allocation is pure arithmetic: every rank bumps the same
// allocator in the same order, so segment k has one arena offset shared
// by all ranks and no communication is needed to agree on it.

func (p *proc) bump(nbytes int64, what string) int64 {
	off := align8(p.heapUsed)
	if off+nbytes > p.m.l.arenaBytes {
		panic(fmt.Sprintf("ipc: rank %d: symmetric heap exhausted allocating %d bytes for %s (arena %d bytes; raise Config.ArenaBytes or %s)",
			p.rank, nbytes, what, p.m.l.arenaBytes, envArena))
	}
	p.heapUsed = off + nbytes
	return off
}

func (p *proc) AllocData(nbytes int) pgas.Seg {
	off := p.bump(int64(nbytes), "AllocData")
	p.dataOff = append(p.dataOff, off)
	p.dataLen = append(p.dataLen, int64(nbytes))
	return pgas.Seg(len(p.dataOff) - 1)
}

func (p *proc) AllocWords(nwords int) pgas.Seg {
	off := p.bump(int64(nwords)*wordSize, "AllocWords")
	p.wordOff = append(p.wordOff, off)
	p.wordLen = append(p.wordLen, int64(nwords))
	return pgas.Seg(len(p.wordOff) - 1)
}

// dataAt bounds-checks and returns the [off, off+n) window of segment seg
// on the given rank's arena.
func (p *proc) dataAt(rank int, seg pgas.Seg, off, n int) []byte {
	if off < 0 || int64(off)+int64(n) > p.dataLen[seg] {
		panic(fmt.Sprintf("ipc: data access [%d, %d) outside segment %d (%d bytes)", off, off+n, seg, p.dataLen[seg]))
	}
	base := p.m.l.arena(rank) + p.dataOff[seg] + int64(off)
	return p.m.bytes(base, int64(n))
}

// wordAt bounds-checks and returns the map offset of word idx of segment
// seg on the given rank's arena.
func (p *proc) wordAt(rank int, seg pgas.Seg, idx int) int64 {
	if idx < 0 || int64(idx) >= p.wordLen[seg] {
		panic(fmt.Sprintf("ipc: word access %d outside segment %d (%d words)", idx, seg, p.wordLen[seg]))
	}
	return p.m.l.arena(rank) + p.wordOff[seg] + int64(idx)*wordSize
}

// Issue completes every operation inline, non-blocking ones included, like
// shm: the data path is a memory access, so there is nothing to overlap.
// AccF64 serializes accumulates per target rank through a holder-tagged
// spin word (the ARMCI_Acc atomicity contract), released on the holder's
// behalf by the death registrar if it dies mid-accumulate.
func (p *proc) Issue(op *pgas.Op) pgas.Nb {
	p.check()
	if op.Kind.IsWord() {
		op.ApplyWord(p.m.word(p.wordAt(op.Target, op.Seg, op.Off)))
		return pgas.NbDone
	}
	win := p.dataAt(op.Target, op.Seg, op.Off, op.Bytes())
	if op.Kind != pgas.OpAccF64 {
		op.ApplyData(win)
		return pgas.NbDone
	}
	w := p.m.l.accLock(op.Target)
	var bo pgas.Backoff
	for !p.m.cas(w, 0, p.tag()) {
		p.check()
		bo.Pause()
	}
	op.ApplyData(win)
	if !p.m.cas(w, p.tag(), 0) {
		panic("ipc: accumulate lock released by a non-holder")
	}
	return pgas.NbDone
}

func (p *proc) Flush() {}

func (p *proc) Local(seg pgas.Seg) []byte {
	return p.dataAt(p.rank, seg, 0, int(p.dataLen[seg]))
}

func (p *proc) LocalWords(seg pgas.Seg) []int64 {
	return unsafe.Slice(p.m.word(p.m.l.arena(p.rank)+p.wordOff[seg]), p.wordLen[seg])
}

// Two-sided messages ride per-(sender, receiver) byte rings in the
// control region: the sender appends [tag|len][payload] records and
// publishes by bumping the tail word; the receiver drains complete
// records into its local inbox and publishes consumption by bumping the
// head word. Single producer and single consumer per ring, so two atomic
// words are the whole protocol.

// ringRecord returns the record stride for an n-byte payload.
func ringRecord(n int) int64 { return wordSize + align8(int64(n)) }

func (p *proc) Send(to int, tag int32, data []byte) {
	p.check()
	need := ringRecord(len(data))
	l := &p.m.l
	if need > l.ringBytes {
		panic(fmt.Sprintf("ipc: Send of %d bytes exceeds the %d-byte message ring (raise %s)", len(data), l.ringBytes, envRing))
	}
	headW, tailW := l.ringHead(to, p.rank), l.ringTail(to, p.rank)
	tail := p.m.load(tailW)
	var bo pgas.Backoff
	var wait0 time.Duration
	waited := false
	for tail-p.m.load(headW)+need > l.ringBytes {
		// Backpressure: the receiver is behind. The fault poll keeps a
		// send to (or past) a dead world from spinning forever.
		if !waited && p.rec != nil {
			wait0 = p.Now()
			waited = true
		}
		p.check()
		bo.Pause()
	}
	if waited {
		p.rec.Record(trace.IPCRingWait, wait0, p.Now(), int64(to), 0)
	}
	ring := p.m.bytes(l.ring(to, p.rank), l.ringBytes)
	pos := tail % l.ringBytes
	binary.LittleEndian.PutUint64(ring[pos:], uint64(tag)<<32|uint64(uint32(len(data))))
	copyIn(ring, pos+wordSize, data)
	p.m.store(tailW, tail+need) // publish: release-store after the payload
}

// copyIn copies src into the ring starting at pos, wrapping modulo the
// ring size. pos is always 8-aligned and record headers never wrap
// (strides are 8-aligned and the ring size is a multiple of 8).
func copyIn(ring []byte, pos int64, src []byte) {
	pos %= int64(len(ring))
	n := copy(ring[pos:], src)
	copy(ring, src[n:])
}

// copyOut is the inverse of copyIn.
func copyOut(dst []byte, ring []byte, pos int64) {
	pos %= int64(len(ring))
	n := copy(dst, ring[pos:])
	copy(dst[n:], ring)
}

// drain moves every complete record from every incoming ring into the
// local inbox, preserving per-sender order.
func (p *proc) drain() {
	l := &p.m.l
	for s := 0; s < p.cfg.NProcs; s++ {
		headW, tailW := l.ringHead(p.rank, s), l.ringTail(p.rank, s)
		tail := p.m.load(tailW) // acquire: payloads below tail are complete
		head := p.m.load(headW)
		if head == tail {
			continue
		}
		ring := p.m.bytes(l.ring(p.rank, s), l.ringBytes)
		for head < tail {
			hdr := binary.LittleEndian.Uint64(ring[head%l.ringBytes:])
			tag := int32(uint32(hdr >> 32))
			n := int(uint32(hdr))
			data := make([]byte, n)
			copyOut(data, ring, head+wordSize)
			p.inbox = append(p.inbox, message{from: s, tag: tag, data: data})
			head += ringRecord(n)
		}
		p.m.store(headW, head) // publish consumption
	}
}

// popInbox removes and returns the first queued message matching
// (from, tag); from may be pgas.AnySource.
func (p *proc) popInbox(from int, tag int32) (message, bool) {
	for i, m := range p.inbox {
		if (from == pgas.AnySource || m.from == from) && m.tag == tag {
			p.inbox = append(p.inbox[:i], p.inbox[i+1:]...)
			return m, true
		}
	}
	return message{from: -1}, false
}

func (p *proc) Recv(from int, tag int32) ([]byte, int) {
	var bo pgas.Backoff
	for {
		p.drain()
		if m, ok := p.popInbox(from, tag); ok {
			return m.data, m.from
		}
		// Queued matches are delivered even after a fault; once nothing
		// matches, an unacknowledged death is returned instead of parking
		// for a message a dead rank will never send.
		p.check()
		bo.Pause()
	}
}

func (p *proc) TryRecv(from int, tag int32) ([]byte, int, bool) {
	p.drain()
	if m, ok := p.popInbox(from, tag); ok {
		return m.data, m.from, true
	}
	p.check()
	return nil, -1, false
}

// pgas.Resilient: survivable-mode fault acknowledgement. The dead rank's
// arena stays mapped after its process died, and the registrar's faultSeq
// bump is the release edge ordering its final (pre-registration) writes
// before any one-sided read that observed the bump.

// SurviveFault acknowledges every death registered so far and returns the
// live membership. ok is false when the world is not survivable.
func (p *proc) SurviveFault(fe *pgas.FaultError) (alive []bool, ok bool) {
	if !p.cfg.Survivable {
		return nil, false
	}
	p.ackedSeq = p.m.load(p.m.l.faultSeq)
	alive, _ = p.Membership()
	return alive, true
}

// Membership reports the acknowledged fault sequence and the ranks whose
// dead flag is clear.
func (p *proc) Membership() (alive []bool, epoch int64) {
	if !p.cfg.Survivable {
		return nil, 0
	}
	alive = make([]bool, p.cfg.NProcs)
	for r := range alive {
		alive[r] = p.m.load(p.m.l.deadFlag(r)) == 0
	}
	return alive, p.ackedSeq
}
