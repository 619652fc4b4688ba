package tcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"scioto/internal/pgas"
)

// owner is one rank's remotely accessible state: the symmetric heap, the
// incoming mailbox, and (on rank 0 only) the
// barrier counter. It is shared by the rank's SPMD goroutine (owner-side
// fast paths) and the service goroutines applying remote operations.
//
// It also carries the rank's fault state. The first peer death observed
// (an unexpected EOF on a serve connection, or a heartbeat timeout) is
// registered once; registration poisons every structure a goroutine can
// block in — the barrier, the mailbox — and severs the
// rank's outgoing connections, so both the SPMD goroutine and remote
// requesters receive a prompt, rank-attributed *pgas.FaultError instead
// of hanging on a reply the dead rank will never send.
type owner struct {
	rank int
	n    int // world size
	heap *heap
	mbox *mailbox
	bar  *barrierMgr // non-nil on rank 0 only

	// teardown is set once this rank is in clean shutdown (for rank 0:
	// after its completion-barrier release; for others: before entering
	// the completion barrier). From then on an EOF from a peer is that
	// peer exiting cleanly, not dying, and must not register a fault.
	teardown atomic.Bool

	faultMu sync.Mutex
	fault   *pgas.FaultError
	closers []func() // close outgoing connections when a fault registers
}

func newOwner(rank, nprocs int) *owner {
	o := &owner{
		rank: rank,
		n:    nprocs,
		heap: newHeap(),
		mbox: newMailbox(),
	}
	if rank == 0 {
		o.bar = newBarrierMgr(nprocs)
	}
	return o
}

// getFault returns the registered world fault, or nil.
func (o *owner) getFault() *pgas.FaultError {
	o.faultMu.Lock()
	defer o.faultMu.Unlock()
	return o.fault
}

// addCloser registers a function run (once) when a fault registers,
// used to sever outgoing connections so blocked RPCs unblock.
func (o *owner) addCloser(f func()) {
	o.faultMu.Lock()
	fault := o.fault
	if fault == nil {
		o.closers = append(o.closers, f)
	}
	o.faultMu.Unlock()
	if fault != nil {
		f()
	}
}

// enterTeardown marks the start of clean shutdown; see the field doc.
func (o *owner) enterTeardown() { o.teardown.Store(true) }

// markDead registers rank's death, first observation wins. It poisons the
// blocking structures and severs outgoing connections; during teardown it
// is a no-op, because peers exit as soon as the completion barrier
// releases them and their EOFs are expected.
func (o *owner) markDead(rank int, cause error) {
	o.adopt(&pgas.FaultError{Rank: rank, Phase: "peer-death", Err: cause})
}

// adopt registers an already-attributed fault (first registration wins),
// used by markDead and by the heartbeat when a peer's faulted reply names
// the actually-dead rank.
func (o *owner) adopt(fe *pgas.FaultError) {
	if o.teardown.Load() {
		return
	}
	o.faultMu.Lock()
	if o.fault != nil {
		o.faultMu.Unlock()
		return
	}
	o.fault = fe
	closers := o.closers
	o.closers = nil
	o.faultMu.Unlock()

	if o.bar != nil {
		o.bar.fail(fe)
	}
	o.mbox.poison(fe)
	for _, f := range closers {
		f()
	}
}

// acceptLoop services peer connections until the listener closes (at
// process exit).
func (o *owner) acceptLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go o.serve(conn)
	}
}

// serve applies one peer's request stream to the local state. The stream
// is pipelined: many requests may be in flight, each prefixed with the
// peer's sequence number, and every reply echoes the number of the
// request it answers. Requests are applied strictly in frame order — the
// per-pair FIFO guarantee the pgas.Proc contract promises — but the reply
// to a Barrier is deferred until the round completes, so every reply
// write is serialized on a per-connection mutex; the handler itself never
// blocks on an incomplete barrier (it registers the deferred reply and
// keeps reading).
//
// The first frame on every connection is opHello carrying the dialing
// rank, so that a mid-run EOF — the peer process died — can be converted
// into a fault attributed to that rank.
func (o *owner) serve(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)

	hello, err := readFrame(r)
	if err != nil || len(hello) < 9 || hello[4] != opHello {
		return // never identified itself; nothing to attribute
	}
	peer := int(pgas.GetI32(hello[5:]))
	if peer < 0 || peer >= o.n {
		return // no rank of this world; nothing to attribute
	}

	var wmu sync.Mutex
	send := func(seq uint32, status byte, payload []byte) {
		wmu.Lock()
		defer wmu.Unlock()
		head := [1]byte{status}
		if err := writeFrameSeq(w, seq, head[:], payload); err != nil {
			return // peer gone; its EOF on the read side attributes the failure
		}
		w.Flush()
	}
	var req request // decode scratch, reused for every frame of this connection
	for {
		fb, err := readFrameP(r)
		if err != nil {
			// Mid-run EOF: the peer died. At teardown markDead no-ops —
			// released peers exit and their EOFs are expected.
			o.markDead(peer, fmt.Errorf("connection from rank %d lost: %v", peer, err))
			return
		}
		if len(fb.b) < 5 {
			putFrame(fb)
			o.markDead(peer, fmt.Errorf("short request frame from rank %d", peer))
			return
		}
		seq := binary.LittleEndian.Uint32(fb.b)
		err = o.apply(peer, seq, fb.b[4:], &req, send)
		// apply never retains request bytes (bulk payloads are copied into
		// the heap or mailbox), so the frame can be recycled immediately.
		putFrame(fb)
		if err != nil {
			// The peer sent bytes no correct rank sends: blame it, tell it
			// so (its pending op unwinds with the fault), and stop reading a
			// stream that can no longer be trusted.
			fe := &pgas.FaultError{Rank: peer, Phase: "service", Err: fmt.Errorf("bad request from rank %d: %v", peer, err)}
			o.adopt(fe)
			send(seq, replyFaulted, pgas.AppendFault(nil, fe))
			return
		}
	}
}

// granter adapts a deferred barrier release to the reply protocol: the
// waiter was released (nil) or the world faulted while it was parked.
// Built only on the deferred-reply path so the immediate operations stay
// closure-free.
func granter(seq uint32, send func(uint32, byte, []byte)) func(error) {
	return func(err error) {
		if err == nil {
			send(seq, replyOK, nil)
			return
		}
		if fe, ok := pgas.AsFault(err); ok {
			send(seq, replyFaulted, pgas.AppendFault(nil, fe))
			return
		}
		send(seq, replyFaulted, pgas.AppendFault(nil, &pgas.FaultError{Rank: -1, Phase: "service", Err: err}))
	}
}

// apply executes one of peer's requests against the local state and
// delivers the reply — immediately, or (Barrier) when released —
// tagged with the request's sequence number. It must not retain frame past
// returning: the caller recycles it. Once the world is faulted every
// operation is refused with the registered fault, so a requester that has
// not yet observed the death learns of it on its next operation instead of
// acting on a half-dead world. An error means the request was malformed,
// addressed memory outside its segment or named a source other than peer;
// nothing was applied or replied.
func (o *owner) apply(peer int, seq uint32, frame []byte, r *request, send func(seq uint32, status byte, payload []byte)) error {
	if fe := o.getFault(); fe != nil {
		send(seq, replyFaulted, pgas.AppendFault(nil, fe))
		return nil
	}
	if err := decodeOp(frame, r); err != nil {
		return err
	}
	switch r.code {
	case opGet:
		// Reply straight from the heap slice: writeFrameSeq copies it into
		// the pooled frame buffer, so no per-request buffer is needed. The
		// unsynchronized read window is the same as a copy-then-send
		// (bulk ops are unordered unless the application locks).
		win, err := o.heap.window(r.op.Seg, r.op.Off, r.n)
		if err != nil {
			return err
		}
		send(seq, replyOK, win)
	case opPut, opAcc, opLoad, opStore, opFAdd, opCAS:
		if err := o.heap.apply(&r.op); err != nil {
			return err
		}
		if r.code == opPut || r.code == opAcc || r.code == opStore {
			send(seq, replyOK, nil)
			break
		}
		var out [8]byte
		pgas.PutI64(out[:], r.res)
		send(seq, replyOK, out[:])
	case opSend:
		if r.from != peer {
			return fmt.Errorf("opSend names source rank %d", r.from)
		}
		data := make([]byte, len(r.data))
		copy(data, r.data)
		o.mbox.push(message{from: r.from, tag: r.tag, data: data})
		send(seq, replyOK, nil)
	case opBarrier:
		if o.bar == nil {
			return fmt.Errorf("opBarrier sent to rank %d, which is not the barrier host", o.rank)
		}
		o.bar.enter(granter(seq, send))
	case opPing:
		send(seq, replyOK, nil)
	}
	return nil
}
