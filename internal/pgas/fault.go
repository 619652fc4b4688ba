package pgas

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// FaultError is the structured error every transport surfaces when a
// process of the world fails or becomes unreachable: a peer process died
// mid-run, a remote operation's frame was lost or timed out, or the fault
// injector (pgas/faulty) fired. It attributes the failure to a rank and
// records the operation and protocol phase in progress, so a hang in a
// 64-rank traversal turns into "rank 17 died during Get(seg=2, off=4096,
// n=512)" instead of an opaque panic on some other rank.
//
// Convention: inside a SPMD body, transports report unrecoverable
// communication failures by panicking with a *FaultError. World.Run
// recovers the panic and returns the same *FaultError (possibly after
// shipping it across process boundaries on the tcp transport), so callers
// of Run and scioto.Run retrieve it with errors.As or AsFault.
type FaultError struct {
	// Rank is the rank the fault is attributed to — the process that
	// died, panicked, or failed to respond. It is not necessarily the
	// rank that observed the fault. -1 means the rank is unknown.
	Rank int
	// Op names the operation in progress with its operands, e.g.
	// "Get(seg=1, off=128, n=64)" or "Lock(id=2)". Empty if unknown.
	Op string
	// Phase names the protocol phase: "rendezvous", "op", "service",
	// "barrier", "peer-death", "injected-crash", "injected-drop",
	// "exit", or "teardown".
	Phase string
	// Detail optionally records where in the runtime the fault surfaced
	// (e.g. "task-parallel phase (TC.Process)").
	Detail string
	// Err is the underlying cause, if any.
	Err error
}

// Error formats the fault with every known attribute.
func (e *FaultError) Error() string {
	s := "pgas: fault"
	if e.Rank >= 0 {
		s = fmt.Sprintf("pgas: fault at rank %d", e.Rank)
	}
	if e.Phase != "" {
		s += " [" + e.Phase + "]"
	}
	if e.Op != "" {
		s += " during " + e.Op
	}
	if e.Detail != "" {
		s += " in " + e.Detail
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap exposes the underlying cause to errors.Is/As chains.
func (e *FaultError) Unwrap() error { return e.Err }

// AsFault reports the *FaultError in err's chain, if there is one.
func AsFault(err error) (*FaultError, bool) {
	var fe *FaultError
	if errors.As(err, &fe) {
		return fe, true
	}
	return nil, false
}

// AppendFault appends the cross-process form of fe to b: the one wire
// format every transport uses to move a fault between OS processes (tcp
// faulted replies and child exit reports, the ipc fault record and report
// slots). Layout, little-endian:
//
//	[rank i32] [len i32][Phase] [len i32][Detail] [len i32][Err text]
//
// Op is not shipped: it names the operation the *sender* was performing,
// and each receiver fills in its own.
func AppendFault(b []byte, fe *FaultError) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(fe.Rank)))
	errText := ""
	if fe.Err != nil {
		errText = fe.Err.Error()
	}
	for _, s := range [...]string{fe.Phase, fe.Detail, errText} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	return b
}

// DecodeFault is the inverse of AppendFault. The bytes come from another
// process, so any input decodes without panicking: a buffer cut short (the
// ipc regions are fixed-size) yields every field that arrived intact plus
// the surviving head of the field the cut landed in, and trailing bytes
// are ignored. A buffer too short to name a rank decodes as an
// unattributed peer death. The result is a fresh FaultError the caller
// may annotate (Op, Detail) without racing other observers of the fault.
func DecodeFault(b []byte) *FaultError {
	if len(b) < 4 {
		return &FaultError{Rank: -1, Phase: "peer-death",
			Err: fmt.Errorf("malformed fault record (%d bytes)", len(b))}
	}
	fe := &FaultError{Rank: int(GetI32(b))}
	b = b[4:]
	next := func() string {
		if len(b) < 4 {
			b = nil
			return ""
		}
		n := int(GetI32(b))
		b = b[4:]
		if n < 0 || n > len(b) {
			n = len(b)
		}
		s := string(b[:n])
		b = b[n:]
		return s
	}
	fe.Phase, fe.Detail = next(), next()
	if errText := next(); errText != "" {
		fe.Err = errors.New(errText)
	}
	return fe
}
