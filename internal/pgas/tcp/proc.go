package tcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"scioto/internal/pgas"
	"scioto/internal/trace"
)

// peerConn is this rank's connection to one remote rank's service. The
// connection is pipelined: every request frame carries a client-assigned
// sequence number, many requests may be outstanding at once, and a
// per-connection demux goroutine routes each reply to the pendingOp
// registered under its sequence number. Request frames are assembled into
// pooled buffers and queued; a flush hands the whole window to the kernel
// in one net.Buffers vector write (writev), so consecutive non-blocking
// issues cost one syscall instead of one per frame — a bufio.Writer would
// coalesce too, but only by paying an extra copy of every frame into its
// internal buffer. Blocking operations flush immediately.
type peerConn struct {
	rank    int
	c       net.Conn
	own     *owner
	timeout time.Duration // deadline of every request; 0 disables deadlines

	wmu    sync.Mutex  // serializes frame queuing and flushes
	wfbs   []*frameBuf // assembled frames queued since the last flush
	wvec   net.Buffers // reusable scatter list (backing array persists)
	wBytes int         // bytes queued in wfbs; autoFlushBytes caps the window

	// The rank's recorder (nil = disabled). Spans are recorded against
	// recEpoch so they share the owning proc's Now() timeline. winT0 is
	// the open flush-window's start (first frame queued), guarded by wmu
	// like the window itself.
	rec      *trace.Recorder
	recEpoch time.Time
	winT0    time.Duration

	pmu         sync.Mutex // guards the fields below
	nextSeq     uint32
	pending     map[uint32]*pendingOp
	deadErr     error // set once the demux dies; fails all later issues
	maxInflight int   // high-water mark of len(pending), test instrumentation
}

// pendingOp is one in-flight request. done is a 1-slot channel signaled
// (not closed) by the demux goroutine, so completed ops can be pooled and
// reused. The demux fills the result destinations before signaling; the
// channel receive is the happens-before edge that lets the issuing
// goroutine read them.
type pendingOp struct {
	done  chan struct{}
	dst   []byte // Get destination: reply payload is copied here
	out   *int64 // word result cell (pgas.Op.Out): the reply's i64 lands here
	fault *pgas.FaultError
	err   error
}

// opPool recycles pendingOps so the steady-state operation path (and in
// particular the work-stealing hot path) allocates nothing. Ops that
// complete with a fault are abandoned to the GC: their owner panics out
// before returning them.
var opPool = sync.Pool{New: func() any { return &pendingOp{done: make(chan struct{}, 1)} }}

func getOp() *pendingOp { return opPool.Get().(*pendingOp) }

func putOp(op *pendingOp) {
	op.dst = nil
	op.out = nil
	op.fault = nil
	op.err = nil
	opPool.Put(op)
}

// newPeerConn wraps a freshly dialed connection, sends the hello frame
// identifying the dialing rank (so the remote service can attribute a
// later unexpected EOF on this connection), and starts the reply demux.
func newPeerConn(self, rank int, c net.Conn, own *owner, timeout time.Duration) (*peerConn, error) {
	pc := &peerConn{
		rank:    rank,
		c:       c,
		own:     own,
		timeout: timeout,
		pending: make(map[uint32]*pendingOp),
	}
	hello := append([]byte{opHello}, appendI32(nil, int32(self))...)
	if err := writeFrameSeq(c, 0, hello, nil); err != nil {
		return nil, err
	}
	go pc.demux(bufio.NewReader(c))
	return pc, nil
}

// issue registers op under a fresh sequence number and writes its request
// frame ([seq][head][tail]). When flush is set the frame (and any
// coalesced predecessors) is pushed onto the wire and the read deadline
// armed; otherwise it stays in the write buffer so consecutive
// non-blocking issues become one write at flushWrites. head and tail are
// copied before issue returns, so the caller's request scratch may be
// reused immediately. info formats the operation context lazily: it is
// only invoked on failure.
func (pc *peerConn) issue(op *pendingOp, head, tail []byte, flush bool, info func() string) {
	if fe := pc.own.getFault(); fe != nil {
		panic(refault(fe, info()))
	}
	pc.pmu.Lock()
	if err := pc.deadErr; err != nil {
		pc.pmu.Unlock()
		pc.fail(err, info)
	}
	pc.nextSeq++
	seq := pc.nextSeq
	pc.pending[seq] = op
	if n := len(pc.pending); n > pc.maxInflight {
		pc.maxInflight = n
	}
	pc.pmu.Unlock()

	pc.wmu.Lock()
	pc.queueFrame(seq, head, tail)
	var err error
	if flush || pc.wBytes >= autoFlushBytes {
		err = pc.flushLocked()
		if err == nil {
			pc.armReadDeadline()
		}
	}
	pc.wmu.Unlock()
	if err != nil {
		// The stream is broken; the demux's read error will abort every
		// pending op (including this one) shortly.
		pc.fail(err, info)
	}
}

// autoFlushBytes caps the unflushed window: once the queued frames exceed
// it, the next issue flushes even without an explicit Flush. Typical
// steal-shaped batches stay far under it and still leave as one writev;
// a long run of Nb issues streams in window-sized writes instead of
// accumulating pooled frames without bound (and without any send/reply
// overlap) until the next blocking op.
const autoFlushBytes = 64 << 10

// queueFrame assembles one [len][seq][head][tail] request frame into a
// pooled buffer and appends it to the flush window. head and tail are
// copied, so the caller may reuse both immediately. No I/O happens here:
// the write deadline is armed (and the syscall paid) at flush time, when
// the bytes actually move.
func (pc *peerConn) queueFrame(seq uint32, head, tail []byte) {
	if pc.rec != nil && len(pc.wfbs) == 0 {
		pc.winT0 = time.Since(pc.recEpoch)
	}
	fb := getFrame()
	fb.b = append(fb.b[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(fb.b, uint32(4+len(head)+len(tail)))
	binary.LittleEndian.PutUint32(fb.b[4:], seq)
	fb.b = append(fb.b, head...)
	fb.b = append(fb.b, tail...)
	pc.wfbs = append(pc.wfbs, fb)
	pc.wBytes += len(fb.b)
}

// flushLocked pushes the queued window onto the wire — a lone frame as a
// plain Write, a batch as one net.Buffers vector write (writev on Linux),
// so an n-frame window costs one syscall, not n. Called with wmu held.
func (pc *peerConn) flushLocked() error {
	if len(pc.wfbs) == 0 {
		return nil
	}
	if pc.timeout > 0 {
		pc.c.SetWriteDeadline(time.Now().Add(pc.timeout))
	}
	var wv0 time.Duration
	if pc.rec != nil {
		wv0 = time.Since(pc.recEpoch)
	}
	var err error
	if len(pc.wfbs) == 1 {
		_, err = pc.c.Write(pc.wfbs[0].b)
	} else {
		vec := pc.wvec[:0]
		for _, fb := range pc.wfbs {
			vec = append(vec, fb.b)
		}
		pc.wvec = vec // keep the backing array before WriteTo consumes the view
		_, err = vec.WriteTo(pc.c)
		for i := range pc.wvec[:len(pc.wfbs)] {
			pc.wvec[i] = nil // do not pin pooled frames past the flush
		}
	}
	if pc.rec != nil {
		now := time.Since(pc.recEpoch)
		nf := int64(len(pc.wfbs))
		// Window depth (first frame queued -> wire) and the syscall stall
		// itself, both blamed on the frame count that rode the write.
		pc.rec.Record(trace.TCPFlushWindow, pc.winT0, now, nf, 0)
		pc.rec.Record(trace.TCPWritev, wv0, now, nf, 0)
	}
	wireWrites.Add(1)
	wireFrames.Add(int64(len(pc.wfbs)))
	for _, fb := range pc.wfbs {
		putFrame(fb)
	}
	pc.wfbs = pc.wfbs[:0]
	pc.wBytes = 0
	return err
}

// flushWrites pushes coalesced non-blocking request frames onto the wire
// and arms the read deadline for their replies.
func (pc *peerConn) flushWrites(info func() string) {
	pc.wmu.Lock()
	err := pc.flushLocked()
	if err == nil {
		pc.armReadDeadline()
	}
	pc.wmu.Unlock()
	if err != nil {
		pc.fail(err, info)
	}
}

// armReadDeadline (re)arms the connection's read deadline while requests
// are outstanding; the demux clears it when the last reply arrives.
// Re-arming at every flush means each request is covered by a deadline
// set no earlier than the flush that sent it.
func (pc *peerConn) armReadDeadline() {
	if pc.timeout <= 0 {
		return
	}
	pc.pmu.Lock()
	if len(pc.pending) > 0 {
		pc.c.SetReadDeadline(time.Now().Add(pc.timeout))
	}
	pc.pmu.Unlock()
}

// demux is the per-connection reply reader: it routes each
// [seq][status][payload] frame to the pendingOp issued under seq, fills
// the op's result destinations, and signals completion. A read error —
// EOF, an expired deadline — aborts every outstanding op.
func (pc *peerConn) demux(r *bufio.Reader) {
	for {
		fb, err := readFrameP(r)
		if err != nil {
			pc.abort(err)
			return
		}
		if len(fb.b) < 5 {
			putFrame(fb)
			pc.abort(fmt.Errorf("short reply frame (%d bytes)", len(fb.b)))
			return
		}
		seq := binary.LittleEndian.Uint32(fb.b)
		status, payload := fb.b[4], fb.b[5:]
		pc.pmu.Lock()
		op := pc.pending[seq]
		if op != nil {
			delete(pc.pending, seq)
			if len(pc.pending) == 0 {
				pc.c.SetReadDeadline(time.Time{})
			}
		}
		pc.pmu.Unlock()
		if op == nil {
			putFrame(fb)
			pc.abort(fmt.Errorf("reply with unknown sequence number %d", seq))
			return
		}
		switch status {
		case replyOK:
			if op.dst != nil {
				copy(op.dst, payload)
			}
			if op.out != nil && len(payload) >= 8 {
				*op.out = pgas.GetI64(payload)
			}
		case replyFaulted:
			op.fault = pgas.DecodeFault(payload) // copies; safe past putFrame
		default:
			op.err = fmt.Errorf("corrupt reply status %d", status)
		}
		putFrame(fb)
		op.done <- struct{}{}
	}
}

// abort poisons the connection: every outstanding op, and every later
// issue, completes with err.
func (pc *peerConn) abort(err error) {
	pc.pmu.Lock()
	if pc.deadErr == nil {
		pc.deadErr = err
	}
	ops := pc.pending
	pc.pending = make(map[uint32]*pendingOp)
	pc.pmu.Unlock()
	for _, op := range ops {
		op.err = err
		op.done <- struct{}{}
	}
}

// wait blocks for op's completion. A transport error or faulted reply has
// no meaningful local recovery in a SPMD program, so it panics with a
// *pgas.FaultError; the recover in the rank-side Run (package launch) reports it to the
// parent. On success the caller owns the op again and normally pools it.
func (pc *peerConn) wait(op *pendingOp, info func() string) {
	<-op.done
	if op.fault != nil {
		fe := op.fault
		fe.Op = info()
		panic(fe)
	}
	if op.err != nil {
		pc.fail(op.err, info)
	}
}

// roundTrip is the blocking request/reply exchange every synchronous Proc
// method uses: issue with an immediate flush, then wait. Because frames
// on one connection are applied in order by the remote service, the
// round trip also completes every earlier coalesced non-blocking request
// on this connection at the target (per-pair FIFO; see pgas.Proc).
func (pc *peerConn) roundTrip(op *pendingOp, head, tail []byte, info func() string) {
	pc.issue(op, head, tail, true, info)
	pc.wait(op, info)
}

// bye writes the departure frame (opBye) behind whatever this connection
// still has queued. A write error is ignored: the peer is gone too.
func (pc *peerConn) bye() {
	pc.wmu.Lock()
	pc.queueFrame(0, []byte{opBye}, nil)
	pc.flushLocked()
	pc.wmu.Unlock()
}

// maxOutstanding reports the high-water mark of simultaneously pending
// requests on this connection (test instrumentation for pipelining).
func (pc *peerConn) maxOutstanding() int {
	pc.pmu.Lock()
	defer pc.pmu.Unlock()
	return pc.maxInflight
}

// fail converts a transport error on this connection into a FaultError
// panic. If the world already registered a fault (a peer death observed
// by the service side, which severs outgoing connections), that fault is
// the cause and keeps its attribution; otherwise the failure is
// attributed to the rank this connection talks to.
func (pc *peerConn) fail(err error, info func() string) {
	if fe := pc.own.getFault(); fe != nil {
		panic(refault(fe, info()))
	}
	panic(&pgas.FaultError{Rank: pc.rank, Op: info(), Phase: "op", Err: err})
}

// refault clones a registered (shared) fault with this operation's
// context. The registered value is never mutated: other goroutines
// observe it concurrently.
func refault(fe *pgas.FaultError, op string) *pgas.FaultError {
	return &pgas.FaultError{Rank: fe.Rank, Op: op, Phase: fe.Phase, Detail: fe.Detail, Err: fe.Err}
}

// faultFor converts an error delivered through the poisoned mailbox into
// the FaultError to panic with.
func faultFor(err error, op string) *pgas.FaultError {
	if fe, ok := pgas.AsFault(err); ok {
		return refault(fe, op)
	}
	return &pgas.FaultError{Rank: -1, Op: op, Phase: "op", Err: err}
}

// proc is the pgas.Proc handle of one rank process. Operations targeting
// the rank itself act directly on the owner state — the same state the
// service goroutines mutate for remote peers, which is what makes the two
// paths coherent; operations targeting a peer are framed requests on the
// pipelined peer connections.
type proc struct {
	pgas.Front
	cfg   Config
	rank  int
	own   *owner
	peers []*peerConn // peers[rank] == nil
	clk   pgas.Clock

	// req is the request-assembly scratch and enc the AccF64 payload
	// scratch. A Proc is single-goroutine by contract, and queueFrame
	// copies the bytes before returning, so one buffer of each serves
	// every operation without allocating.
	req, enc []byte

	// Pending non-blocking operations, in issue order, plus the set of
	// connections holding their (possibly still unflushed) frames.
	nb      []nbRef
	nbConns []*peerConn
}

type nbRef struct {
	op *pendingOp
	pc *peerConn
}

func (p *proc) Rank() int          { return p.rank }
func (p *proc) NProcs() int        { return p.cfg.NProcs }
func (p *proc) Clock() *pgas.Clock { return &p.clk }

// AttachRecorder wires the rank's recorder into its peer connections
// (trace.Attacher): flush-window spans and writev stalls are recorded
// against the proc's Now() epoch. The wmu handshake publishes the recorder
// to any concurrent flusher.
func (p *proc) AttachRecorder(r *trace.Recorder) {
	for _, pc := range p.peers {
		if pc == nil {
			continue
		}
		pc.wmu.Lock()
		pc.rec = r
		pc.recEpoch = p.clk.Start()
		pc.wmu.Unlock()
	}
}

// nbFlushInfo is Flush's operation context: a package-level func value
// captures nothing, so passing it costs no allocation.
var nbFlushInfo = func() string { return "Flush()" }

// Collective allocation is purely local: every rank appends to its own
// heap in the same order, so handle k names the same logical segment on
// every rank (the collective-order discipline of pgas.Seg).

func (p *proc) AllocData(n int) pgas.Seg  { return pgas.Seg(p.own.heap.addData(n)) }
func (p *proc) AllocWords(n int) pgas.Seg { return pgas.Seg(p.own.heap.addWords(n)) }

func (p *proc) Local(seg pgas.Seg) []byte { return p.own.heap.dataSeg(int(seg)) }

// Issue applies a self-targeting operation to the owner heap inline — the
// same heap.apply the service runs for remote peers, refused like theirs
// once the world has faulted (a rank spinning on a lock of its own whose
// holder died must unwind, not spin). A remote operation
// becomes one request frame. Blocking, it is flushed at once and awaited.
// Non-blocking, it is queued on the connection without flushing, so a
// batch of issues to one peer leaves as a single wire write and their
// replies stream back while later issues are still being written; it
// completes at Flush. The per-pair FIFO ordering falls out of frame
// order: the remote service applies one connection's frames sequentially.
func (p *proc) Issue(op *pgas.Op) pgas.Nb {
	if op.Target == p.rank {
		if fe := p.own.getFault(); fe != nil {
			panic(refault(fe, op.String()))
		}
		if err := p.own.heap.apply(op); err != nil {
			panic(fmt.Sprintf("tcp: rank %d: %s: %v", p.rank, op, err))
		}
		return pgas.NbDone
	}
	tail := p.encodeOp(op)
	po := getOp()
	// The reply lands through exactly one of these, chosen by kind: demux
	// must never write through an operand this kind does not define.
	if op.Kind.IsWord() {
		po.out = op.Out
	} else if op.Kind == pgas.OpGet {
		po.dst = op.Buf
	}
	pc := p.peers[op.Target]
	if !op.Nb {
		pc.roundTrip(po, p.req, tail, op.String)
		putOp(po)
		return pgas.NbDone
	}
	pc.issue(po, p.req, tail, false, op.String)
	p.nb = append(p.nb, nbRef{op: po, pc: pc})
	seen := false
	for _, c := range p.nbConns {
		if c == pc {
			seen = true
			break
		}
	}
	if !seen {
		p.nbConns = append(p.nbConns, pc)
	}
	return pgas.NbPending
}

func (p *proc) Flush() {
	if len(p.nb) == 0 {
		return
	}
	for _, pc := range p.nbConns {
		pc.flushWrites(nbFlushInfo)
	}
	for i := range p.nb {
		ref := p.nb[i]
		ref.pc.wait(ref.op, nbFlushInfo)
		putOp(ref.op)
		p.nb[i] = nbRef{}
	}
	p.nb = p.nb[:0]
	p.nbConns = p.nbConns[:0]
}

func (p *proc) LocalWords(seg pgas.Seg) []int64 { return p.own.heap.wordSeg(int(seg)) }

func (p *proc) Send(to int, tag int32, data []byte) {
	if to == p.rank {
		// The copy transfers ownership to the mailbox (and from there to
		// the eventual receiver), so it cannot come from a pool.
		cp := make([]byte, len(data))
		copy(cp, data)
		p.own.mbox.push(message{from: p.rank, tag: tag, data: cp})
		return
	}
	p.req = appendI32(appendI32(append(p.req[:0], opSend), int32(p.rank)), tag)
	op := getOp()
	p.peers[to].roundTrip(op, p.req, data, func() string { return fmt.Sprintf("Send(to=%d, tag=%d, n=%d)", to, tag, len(data)) })
	putOp(op)
}

func (p *proc) Recv(from int, tag int32) ([]byte, int) {
	m, err := p.own.mbox.pop(from, tag, true)
	if err != nil {
		panic(faultFor(err, fmt.Sprintf("Recv(from=%d, tag=%d)", from, tag)))
	}
	return m.data, m.from
}

func (p *proc) TryRecv(from int, tag int32) ([]byte, int, bool) {
	m, err := p.own.mbox.pop(from, tag, false)
	if err != nil {
		panic(faultFor(err, fmt.Sprintf("TryRecv(from=%d, tag=%d)", from, tag)))
	}
	if m.from < 0 {
		return nil, -1, false
	}
	return m.data, m.from, true
}
