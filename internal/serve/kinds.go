package serve

import (
	"fmt"
	"strconv"
	"time"

	"scioto/internal/pgas"
)

// Built-in task kinds. The ingest service executes opaque work on behalf
// of HTTP clients, so the work itself must be named rather than shipped as
// code; each kind is a small, self-contained function of (arg, payload)
// whose result is written back into the task body in place and routed to
// the submitting client.
const (
	// KindEcho returns the payload unchanged (connectivity and routing
	// checks; the result exercises the full payload round trip).
	KindEcho = "echo"
	// KindSpin busy-computes for arg nanoseconds via Proc.Compute (load
	// generation: real CPU on shm/tcp). The result is empty.
	KindSpin = "spin"
	// KindFib computes fib(arg) iteratively in uint64 arithmetic (wrapping
	// on overflow — this is a demo workload, not a bignum service) and
	// returns the value in decimal.
	KindFib = "fib"
)

// kind codes on the task-body wire.
const (
	kindEcho byte = iota
	kindSpin
	kindFib
	kindCount
)

// kindNames maps wire codes to API names.
var kindNames = [kindCount]string{kindEcho: KindEcho, kindSpin: KindSpin, kindFib: KindFib}

// kindCode maps an API kind name to its wire code.
func kindCode(name string) (byte, bool) {
	for code, n := range kindNames {
		if n == name {
			return byte(code), true
		}
	}
	return 0, false
}

// kindName maps a wire code back to its API name. Every name is ASCII that
// JSON carries unescaped.
func kindName(code byte) string {
	if code < kindCount {
		return kindNames[code]
	}
	return fmt.Sprintf("kind(%d)", code)
}

// kindString copies b into a string, resolving a known kind to its
// constant.
func kindString(b []byte) string {
	for _, n := range kindNames {
		if string(b) == n {
			return n
		}
	}
	return string(b)
}

// Serve task body layout. The same region holds the input payload before
// execution and the result after it (the descriptor a callback receives is
// a private copy it may scribble on; the completion hook reads the
// scribbles):
//
//	[0]     kind code
//	[1:5)   data length (payload in, result out)
//	[5:13)  arg (uint64)
//	[13:..) data
const (
	bodyKindOff = 0
	bodyLenOff  = 1
	bodyArgOff  = 5
	bodyDataOff = 13
)

// minResultBytes is the smallest result capacity any serve task body
// carries, so fixed-size results (fib's decimal digits) always fit even
// when the submitted payload is empty.
const minResultBytes = 24

// encodeTaskBody writes a serve task into body (kind, arg, payload).
func encodeTaskBody(body []byte, kind byte, arg uint64, payload []byte) {
	body[bodyKindOff] = kind
	pgas.PutI32(body[bodyLenOff:], int32(len(payload)))
	pgas.PutU64(body[bodyArgOff:], arg)
	copy(body[bodyDataOff:], payload)
}

// bodyData returns the body's current data region (payload before
// execution, result after).
func bodyData(body []byte) []byte {
	n := int(pgas.GetI32(body[bodyLenOff:]))
	if n < 0 || bodyDataOff+n > len(body) {
		panic(fmt.Sprintf("serve: corrupt task body: data length %d in %d-byte body", n, len(body)))
	}
	return body[bodyDataOff : bodyDataOff+n]
}

// setBodyResult replaces the body's data region with the result. Results
// are bounded by the body's capacity; encode enforces the bound at
// admission time, so a truncation here would be a serve bug.
func setBodyResult(body, result []byte) {
	if bodyDataOff+len(result) > len(body) {
		panic(fmt.Sprintf("serve: result %dB exceeds body capacity %dB", len(result), len(body)-bodyDataOff))
	}
	pgas.PutI32(body[bodyLenOff:], int32(len(result)))
	copy(body[bodyDataOff:], result)
}

// runKind executes a serve task body in place: decode kind/arg/payload,
// compute, write the result back. compute abstracts pgas.Proc.Compute so
// the kind table stays testable without a world.
func runKind(compute func(time.Duration), body []byte) {
	bodyData(body) // validate the length word before trusting the body
	arg := pgas.GetU64(body[bodyArgOff:])
	switch body[bodyKindOff] {
	case kindEcho:
		// Result == payload; the length word is already correct.
	case kindSpin:
		compute(time.Duration(arg))
		setBodyResult(body, nil)
	case kindFib:
		var scratch [minResultBytes]byte
		setBodyResult(body, strconv.AppendUint(scratch[:0], fibIter(arg), 10))
	default:
		// Admission validates kinds, so an unknown code is corruption.
		panic(fmt.Sprintf("serve: task with unknown kind code %d", body[bodyKindOff]))
	}
}

// fibIter is the demo arithmetic workload: fib(n) with wrapping uint64
// arithmetic, O(n) time, no allocation.
func fibIter(n uint64) uint64 {
	var a, b uint64 = 0, 1
	for ; n > 0; n-- {
		a, b = b, a+b
	}
	return a
}
