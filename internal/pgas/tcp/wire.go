package tcp

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"scioto/internal/pgas"
)

// Wire-write accounting for the mesh request path: wireFrames counts
// request frames flushed, wireWrites counts the write calls (plain or
// vector) that carried them. The gap between the two is the syscall
// saving of the writev flush window; pgasbench reports it and
// TestFlushWindowCoalesces pins it down.
var (
	wireFrames atomic.Int64
	wireWrites atomic.Int64
)

// WireStats reports the cumulative (frames flushed, write calls) of every
// mesh connection in this process since it started.
func WireStats() (frames, writes int64) {
	return wireFrames.Load(), wireWrites.Load()
}

// Request opcodes, one per remote Proc method (see doc.go for the frame
// layouts). Mesh frames are sequence-numbered in both directions: a reply
// carries the request's sequence number instead of an opcode, so one
// connection may carry many outstanding requests at once (pipelining).
const (
	opGet = byte(iota + 1)
	opPut
	opAcc
	opLoad
	opStore
	opFAdd
	opCAS
	opLock
	opTryLock
	opUnlock
	opSend
	opBarrier
	// opHello identifies the dialing rank. It is the first frame on every
	// mesh connection (data and heartbeat alike) and carries [rank i32];
	// it has no reply. The service needs the peer's identity so that an
	// unexpected EOF on the connection can be attributed to that rank.
	opHello
	// opPing is the heartbeat probe: empty request, empty ok reply.
	opPing
)

// Reply status bytes. Every reply frame starts with one (after the
// sequence number); the payload documented in doc.go follows an ok
// status, an encoded fault (pgas.AppendFault) follows a faulted status.
const (
	replyOK      = byte(0)
	replyFaulted = byte(1)
)

// maxFrame bounds a frame's payload; a longer length prefix indicates a
// corrupt or misframed stream.
const maxFrame = 1 << 30

// frameBuf is a pooled frame assembly/receive buffer. Pooling keeps the
// per-operation wire path allocation-free in steady state, which matters
// on the work-stealing hot path (a steal moves several frames per
// attempt).
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

func getFrame() *frameBuf { return framePool.Get().(*frameBuf) }

func putFrame(fb *frameBuf) { framePool.Put(fb) }

// writeFrame writes one length-prefixed frame. Prefix and payload are
// assembled in a pooled buffer and handed to a single Write call: on an
// unbuffered conn two Writes would be two syscalls (and, with
// TCP_NODELAY, often two packets).
func writeFrame(w io.Writer, payload []byte) error {
	fb := getFrame()
	fb.b = append(fb.b[:0], 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(fb.b, uint32(len(payload)))
	fb.b = append(fb.b, payload...)
	_, err := w.Write(fb.b)
	putFrame(fb)
	return err
}

// writeFrameSeq writes one mesh frame whose payload is [seq u32][head]
// [tail], assembled with the length prefix into a single Write. head and
// tail are fully copied before it returns, so callers may reuse both
// buffers immediately (this is what makes the per-proc request scratch
// sound). tail may be nil; it exists so bulk payloads (Put src, Send
// data) need not be appended onto the head first.
func writeFrameSeq(w io.Writer, seq uint32, head, tail []byte) error {
	fb := getFrame()
	fb.b = append(fb.b[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(fb.b, uint32(4+len(head)+len(tail)))
	binary.LittleEndian.PutUint32(fb.b[4:], seq)
	fb.b = append(fb.b, head...)
	fb.b = append(fb.b, tail...)
	_, err := w.Write(fb.b)
	putFrame(fb)
	return err
}

// readFrame reads one length-prefixed frame into a fresh buffer. It is
// used on the bootstrap paths (rendezvous, hello, heartbeat), where the
// caller may retain the bytes and allocation is irrelevant.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("tcp: frame length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readFrameP reads one length-prefixed frame into a pooled buffer. The
// caller must putFrame it once the contents are consumed and must not
// retain the bytes past that. The length prefix is read into the pooled
// buffer too: a stack header array would escape through the io.Reader
// interface and cost an allocation per frame.
func readFrameP(r io.Reader) (*frameBuf, error) {
	fb := getFrame()
	if cap(fb.b) < 4 {
		fb.b = make([]byte, 4, 512)
	}
	fb.b = fb.b[:4]
	if _, err := io.ReadFull(r, fb.b); err != nil {
		putFrame(fb)
		return nil, err
	}
	n := binary.LittleEndian.Uint32(fb.b)
	if n > maxFrame {
		putFrame(fb)
		return nil, fmt.Errorf("tcp: frame length %d exceeds limit", n)
	}
	if uint32(cap(fb.b)) < n {
		fb.b = make([]byte, n)
	} else {
		fb.b = fb.b[:n]
	}
	if _, err := io.ReadFull(r, fb.b); err != nil {
		putFrame(fb)
		return nil, err
	}
	return fb, nil
}

// Payload append helpers, little-endian like the codec in package pgas.

func appendI32(b []byte, v int32) []byte {
	var w [4]byte
	pgas.PutI32(w[:], v)
	return append(b, w[:]...)
}

func appendI64(b []byte, v int64) []byte {
	var w [8]byte
	pgas.PutI64(w[:], v)
	return append(b, w[:]...)
}
