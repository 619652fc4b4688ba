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

// owner is one rank's remotely accessible state: the symmetric heap and
// the incoming mailbox. It is shared by the rank's SPMD goroutine
// (owner-side fast paths) and the service goroutines applying remote
// operations.
//
// It also carries the rank's fault state. The first peer death observed
// (an unannounced EOF on a data connection, or a heartbeat timeout) is
// registered once; registration poisons the one structure a goroutine can
// block in — the mailbox, where a barrier waits — and severs the rank's
// outgoing connections, so both the SPMD goroutine and remote requesters
// receive a prompt, rank-attributed *pgas.FaultError instead of hanging
// on a reply the dead rank will never send.
type owner struct {
	rank int
	n    int // world size
	heap *heap
	mbox *mailbox

	// teardown is set once this rank's completion barrier has returned:
	// it is about to announce its departure and exit, and a death it
	// observes now can no longer matter to it.
	teardown atomic.Bool

	faultMu sync.Mutex
	fault   *pgas.FaultError
	closers []func() // close outgoing connections when a fault registers
}

func newOwner(rank, nprocs int) *owner {
	return &owner{
		rank: rank,
		n:    nprocs,
		heap: newHeap(),
		mbox: newMailbox(),
	}
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
// mailbox and severs outgoing connections; during teardown it is a no-op.
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
// request it answers. Requests are applied, and answered, strictly in
// frame order — the per-pair FIFO guarantee the pgas.Proc contract
// promises — by this goroutine alone.
//
// The first frame on every connection is opHello carrying the dialing
// rank, so that an EOF on a data connection that no opBye announced — the
// peer process died — can be converted into a fault attributed to that
// rank. A heartbeat connection's EOF is not judged: the peer's data
// connection closes too, announced or not.
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
	heartbeat := len(hello) > 9

	reply := func(seq uint32, status byte, payload []byte) {
		head := [1]byte{status}
		if writeFrameSeq(w, seq, head[:], payload) == nil {
			w.Flush()
		} // else the peer is gone; its EOF on the read side attributes the failure
	}
	var req request // decode scratch, reused for every frame of this connection
	for {
		fb, err := readFrameP(r)
		if err != nil {
			if !heartbeat {
				o.markDead(peer, fmt.Errorf("connection from rank %d lost: %v", peer, err))
			}
			return
		}
		if len(fb.b) < 5 {
			putFrame(fb)
			o.markDead(peer, fmt.Errorf("short request frame from rank %d", peer))
			return
		}
		if len(fb.b) == 5 && fb.b[4] == opBye {
			putFrame(fb)
			return // the peer departed; its EOF follows
		}
		seq := binary.LittleEndian.Uint32(fb.b)
		err = o.apply(peer, seq, fb.b[4:], &req, reply)
		// apply never retains request bytes (bulk payloads are copied into
		// the heap or mailbox), so the frame can be recycled immediately.
		putFrame(fb)
		if err != nil {
			// The peer sent bytes no correct rank sends: blame it, tell it
			// so (its pending op unwinds with the fault), and stop reading a
			// stream that can no longer be trusted.
			fe := &pgas.FaultError{Rank: peer, Phase: "service", Err: fmt.Errorf("bad request from rank %d: %v", peer, err)}
			o.adopt(fe)
			reply(seq, replyFaulted, pgas.AppendFault(nil, fe))
			return
		}
	}
}

// apply executes one of peer's requests against the local state and
// replies, tagged with the request's sequence number. It must not retain
// frame past returning: the caller recycles it. Once the world is faulted
// every operation is refused with the registered fault, so a requester
// that has not yet observed the death learns of it on its next operation
// instead of acting on a half-dead world. An error means the request was
// malformed, addressed memory outside its segment or named a source other
// than peer; nothing was applied or replied.
func (o *owner) apply(peer int, seq uint32, frame []byte, r *request, reply func(seq uint32, status byte, payload []byte)) error {
	if fe := o.getFault(); fe != nil {
		reply(seq, replyFaulted, pgas.AppendFault(nil, fe))
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
		reply(seq, replyOK, win)
	case opPut, opAcc, opLoad, opStore, opFAdd, opCAS:
		if err := o.heap.apply(&r.op); err != nil {
			return err
		}
		if r.code == opPut || r.code == opAcc || r.code == opStore {
			reply(seq, replyOK, nil)
			break
		}
		var out [8]byte
		pgas.PutI64(out[:], r.res)
		reply(seq, replyOK, out[:])
	case opSend:
		if r.from != peer {
			return fmt.Errorf("opSend names source rank %d", r.from)
		}
		data := make([]byte, len(r.data))
		copy(data, r.data)
		// The reply leaves before the message is delivered: a receiver
		// that pops it may exit at once (the last round of the completion
		// barrier), and the sender's Send must not be left waiting on a
		// process that is gone.
		reply(seq, replyOK, nil)
		o.mbox.push(message{from: r.from, tag: r.tag, data: data})
	case opPing:
		reply(seq, replyOK, nil)
	}
	return nil
}
