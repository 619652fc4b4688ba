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
// saving of the writev flush window; the repository benchmark reports it
// (pgas.tcp.frames_per_write) and TestFlushWindowCoalesces pins it down.
var (
	wireFrames atomic.Int64
	wireWrites atomic.Int64
)

// WireStats reports the cumulative (frames flushed, write calls) of every
// mesh connection in this process since it started.
func WireStats() (frames, writes int64) {
	return wireFrames.Load(), wireWrites.Load()
}

// Request opcodes (see doc.go for the frame layouts): the one-sided
// operations, numbered pgas.OpKind+1, then the control operations. Mesh
// frames are sequence-numbered in both directions: a reply carries the
// request's sequence number instead of an opcode, so one connection may
// carry many outstanding requests at once (pipelining).
const (
	opGet = byte(iota + 1)
	opPut
	opAcc
	opLoad
	opStore
	opFAdd
	opCAS
	opSend
	// opHello identifies the dialing rank. It is the first frame on every
	// mesh connection and carries [rank i32], plus one byte on a heartbeat
	// connection; it has no reply. The service needs the peer's identity
	// so that an unexpected EOF on a data connection can be attributed to
	// that rank.
	opHello
	// opPing is the heartbeat probe: empty request, empty ok reply.
	opPing
	// opBye is the last frame a rank writes on each data connection it
	// dialed, once its completion barrier has returned: the EOF that
	// follows is a clean departure, not a death. It has no reply.
	opBye
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

// readFrame reads one length-prefixed frame into a buffer the caller
// keeps. It is used on the bootstrap paths (rendezvous, hello, heartbeat),
// where the caller may retain the bytes and allocation is irrelevant.
func readFrame(r io.Reader) ([]byte, error) {
	fb, err := readFrameP(r)
	if err != nil {
		return nil, err
	}
	return fb.b, nil // the caller keeps the bytes; the pool goes without
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

// encodeOp assembles the request of a one-sided operation, blocking or
// not: [opcode][seg i32][off|idx i64] then the kind's operands go into
// p.req, and a bulk payload is returned as the frame's tail.
func (p *proc) encodeOp(op *pgas.Op) (tail []byte) {
	p.req = appendI64(appendI32(append(p.req[:0], byte(op.Kind)+1), int32(op.Seg)), int64(op.Off))
	switch op.Kind {
	case pgas.OpGet:
		p.req = appendI64(p.req, int64(len(op.Buf)))
	case pgas.OpPut:
		return op.Buf
	case pgas.OpAccF64:
		n := op.Bytes()
		if cap(p.enc) < n {
			p.enc = make([]byte, n)
		}
		p.enc = p.enc[:n]
		pgas.PutF64Slice(p.enc, op.F64)
		return p.enc
	case pgas.OpStore64, pgas.OpFetchAdd64:
		p.req = appendI64(p.req, op.Val)
	case pgas.OpCAS64:
		p.req = appendI64(appendI64(p.req, op.Old), op.Val)
	}
	return nil
}

// request is one decoded service frame.
type request struct {
	code byte
	op   pgas.Op // one-sided codes; Buf (a Put's payload) aliases the frame
	n    int     // opGet: bytes requested (the reply is cut from the heap)
	res  int64   // where op.Out points
	from int     // opSend: sending rank
	tag  int32   // opSend
	data []byte  // opSend payload, aliasing the frame
}

// reqLen is the fixed part of each opcode's request body, after the opcode
// byte; only Put, Acc and Send carry more. -1 marks an opcode that is
// never a request (opHello is a connection's first frame only, opBye its
// last, and the service reads both itself).
var reqLen = [...]int{opGet: 20, opPut: 12, opAcc: 12, opLoad: 12, opStore: 20, opFAdd: 20, opCAS: 28,
	opSend: 8, opHello: -1, opPing: 0, opBye: -1}

// maxID bounds the segment ids a request may name. The service
// waits for an id its owner has not allocated yet (the requester may be
// ahead in the collective schedule), so an id no program reaches must be
// refused here or it parks the connection's service goroutine for good.
const maxID = 1 << 20

// decodeOp parses one request frame (after its sequence number) into r.
// The bytes come from another process: every length is checked against
// the opcode before a field is read, segment ids must lie in
// [0, maxID), and offset and count must be non-negative. Whether an offset
// lies inside its segment is for the heap to say, which knows the segment;
// whether a Send's source is the connection's peer is for the service.
func decodeOp(frame []byte, r *request) error {
	if len(frame) == 0 {
		return fmt.Errorf("empty request frame")
	}
	code, b := frame[0], frame[1:]
	if code == 0 || int(code) >= len(reqLen) || reqLen[code] < 0 {
		return fmt.Errorf("unknown opcode %d", code)
	}
	fixed := reqLen[code]
	variable := code == opPut || code == opAcc || code == opSend
	if len(b) < fixed || (!variable && len(b) != fixed) {
		return fmt.Errorf("opcode %d: request body of %d bytes, want %d", code, len(b), fixed)
	}
	*r = request{code: code}
	switch {
	case code <= opCAS:
		r.op = pgas.Op{Kind: pgas.OpKind(code - 1), Seg: pgas.Seg(pgas.GetI32(b)), Off: int(pgas.GetI64(b[4:])), Out: &r.res}
		if r.op.Seg < 0 || r.op.Seg >= maxID || r.op.Off < 0 {
			return fmt.Errorf("opcode %d: segment %d or offset %d out of range", code, r.op.Seg, r.op.Off)
		}
		switch code {
		case opGet:
			if r.n = int(pgas.GetI64(b[12:])); r.n < 0 || r.n > maxFrame {
				return fmt.Errorf("opGet: bad length %d", r.n)
			}
		case opPut:
			r.op.Buf = b[12:]
		case opAcc:
			enc := b[12:]
			if len(enc)%pgas.F64Bytes != 0 {
				return fmt.Errorf("opAcc: payload of %d bytes is not whole float64s", len(enc))
			}
			r.op.F64 = make([]float64, len(enc)/pgas.F64Bytes)
			pgas.GetF64Slice(r.op.F64, enc)
		case opStore, opFAdd:
			r.op.Val = pgas.GetI64(b[12:])
		case opCAS:
			r.op.Old, r.op.Val = pgas.GetI64(b[12:]), pgas.GetI64(b[20:])
		}
	case code == opSend:
		r.from, r.tag, r.data = int(pgas.GetI32(b)), pgas.GetI32(b[4:]), b[8:]
	}
	return nil
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
