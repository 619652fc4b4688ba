package tcp

import (
	"bufio"
	"encoding/binary"
	"net"
	"reflect"
	"testing"
	"time"

	"scioto/internal/pgas"
)

// validFrames returns one well-formed request frame per opcode, built by
// the client-side encoder where there is one.
func validFrames() map[byte][]byte {
	frames := map[byte][]byte{
		opSend: append(appendI32(appendI32([]byte{opSend}, 1), 7), "hi"...),
		opPing: {opPing},
	}
	var out int64
	for _, op := range []pgas.Op{
		{Kind: pgas.OpGet, Seg: 0, Off: 8, Buf: make([]byte, 16)},
		{Kind: pgas.OpPut, Seg: 0, Off: 8, Buf: []byte("payload!")},
		{Kind: pgas.OpAccF64, Seg: 0, Off: 16, F64: []float64{1.5, -2}},
		{Kind: pgas.OpLoad64, Seg: 0, Off: 1, Out: &out},
		{Kind: pgas.OpStore64, Seg: 0, Off: 2, Val: 42},
		{Kind: pgas.OpFetchAdd64, Seg: 0, Off: 3, Val: -5, Out: &out},
		{Kind: pgas.OpCAS64, Seg: 0, Off: 0, Old: 9, Val: 10, Out: &out},
	} {
		var p proc
		tail := p.encodeOp(&op)
		frames[byte(op.Kind)+1] = append(append([]byte(nil), p.req...), tail...)
	}
	return frames
}

// TestDecodeOpRoundTrip: what encodeOp writes, decodeOp reads back.
func TestDecodeOpRoundTrip(t *testing.T) {
	frames := validFrames()
	for code, frame := range frames {
		var r request
		if err := decodeOp(frame, &r); err != nil {
			t.Fatalf("opcode %d: valid frame rejected: %v", code, err)
		}
	}
	var r request
	if err := decodeOp(frames[opCAS], &r); err != nil || r.op.Kind != pgas.OpCAS64 || r.op.Old != 9 || r.op.Val != 10 {
		t.Errorf("CAS decoded as %+v (%v)", r.op, err)
	}
	if err := decodeOp(frames[opGet], &r); err != nil || r.op.Off != 8 || r.n != 16 {
		t.Errorf("Get decoded as off=%d n=%d (%v)", r.op.Off, r.n, err)
	}
	if err := decodeOp(frames[opAcc], &r); err != nil || !reflect.DeepEqual(r.op.F64, []float64{1.5, -2}) {
		t.Errorf("Acc decoded addends %v (%v)", r.op.F64, err)
	}
	if err := decodeOp(frames[opSend], &r); err != nil || r.from != 1 || r.tag != 7 || string(r.data) != "hi" {
		t.Errorf("Send decoded as from=%d tag=%d data=%q (%v)", r.from, r.tag, r.data, err)
	}
	for name, frame := range map[string][]byte{
		"empty":        {},
		"opcode 0":     {0},
		"hello":        appendI32([]byte{opHello}, 1),
		"bye":          {opBye},
		"short load":   frames[opLoad][:9],
		"long load":    append(append([]byte(nil), frames[opLoad]...), 0),
		"negative seg": appendI64(appendI32([]byte{opLoad}, -1), 0),
		"negative off": appendI64(appendI32([]byte{opLoad}, 0), -1),
		"negative n":   appendI64(appendI64(appendI32([]byte{opGet}, 0), 0), -1),
		"ragged acc":   append(append([]byte(nil), frames[opAcc]...), 1, 2, 3),
		"huge seg":     appendI64(appendI32([]byte{opLoad}, 1<<31-1), 0),
	} {
		if err := decodeOp(frame, &r); err == nil {
			t.Errorf("%s: malformed frame accepted", name)
		}
	}
	// No opcode without a valid frame above is a request, whatever
	// follows it: not a connection's first and last frames (opHello,
	// opBye), not a gap or a code past the table. There is no barrier
	// opcode either: a barrier is opSend frames (pgas/barrier.go).
	for code := 0; code <= 255; code++ {
		if _, ok := frames[byte(code)]; ok {
			continue
		}
		for _, body := range [][]byte{nil, make([]byte, 4), make([]byte, 12)} {
			if err := decodeOp(append([]byte{byte(code)}, body...), &r); err == nil {
				t.Errorf("opcode %d with a %d-byte body accepted", code, len(body))
			}
		}
	}
}

// FuzzDecodeOp: no request bytes a peer can send make the decoder or the
// heap's range checks panic.
func FuzzDecodeOp(f *testing.F) {
	for _, frame := range validFrames() {
		f.Add(frame)
	}
	h := newHeap()
	h.addData(64)
	h.addWords(4)
	f.Fuzz(func(t *testing.T, frame []byte) {
		var r request
		if decodeOp(frame, &r) != nil || r.code > opCAS {
			return
		}
		if r.op.Seg < 0 || r.op.Seg >= maxID || r.op.Off < 0 || r.n < 0 {
			t.Fatalf("decodeOp accepted seg=%d off=%d n=%d", r.op.Seg, r.op.Off, r.n)
		}
		if r.op.Seg != 0 {
			return // an unallocated segment is waited for, not rejected
		}
		if r.code == opGet {
			h.window(0, r.op.Off, r.n)
		} else {
			h.apply(&r.op)
		}
	})
}

// TestServiceBlamesBadRequest: a request no correct rank sends — memory
// outside its segment, a segment no program reaches, a message under
// another rank's name — gets its sender a rank-attributed fault instead of
// crashing or parking the owner's service goroutine.
func TestServiceBlamesBadRequest(t *testing.T) {
	for name, bad := range map[string][]byte{
		"word outside segment": appendI64(appendI32([]byte{opLoad}, 0), 99), // of 4 words
		"unreachable segment":  appendI64(appendI32([]byte{opLoad}, 1<<31-1), 0),
		"forged send source":   appendI32(appendI32([]byte{opSend}, 2), 7),
	} {
		t.Run(name, func(t *testing.T) {
			o := newOwner(0, 3)
			o.heap.addWords(4)
			client, server := net.Pipe()
			go o.serve(server)
			defer client.Close()
			client.SetDeadline(time.Now().Add(5 * time.Second))

			if err := writeFrameSeq(client, 0, appendI32([]byte{opHello}, 1), nil); err != nil {
				t.Fatal(err)
			}
			if err := writeFrameSeq(client, 7, bad, nil); err != nil {
				t.Fatal(err)
			}
			reply, err := readFrame(bufio.NewReader(client))
			if err != nil {
				t.Fatal(err)
			}
			if len(reply) < 5 || binary.LittleEndian.Uint32(reply) != 7 || reply[4] != replyFaulted {
				t.Fatalf("reply = %v, want a faulted reply to seq 7", reply)
			}
			if fe := pgas.DecodeFault(reply[5:]); fe.Rank != 1 || fe.Phase != "service" {
				t.Errorf("fault = %v, want rank 1 in phase service", fe)
			}
			if fe := o.getFault(); fe == nil || fe.Rank != 1 {
				t.Errorf("owner registered %v, want a fault blaming rank 1", fe)
			}
		})
	}
}
