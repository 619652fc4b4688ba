package pgas

import (
	"fmt"
	"sync/atomic"
)

// OpKind names a one-sided operation. The data kinds (Get, Put, AccF64)
// address bytes of a data segment; the word kinds address one cell of a
// word segment.
type OpKind uint8

const (
	OpGet OpKind = iota
	OpPut
	OpAccF64
	OpLoad64
	OpStore64
	OpFetchAdd64
	OpCAS64
	NumOpKinds
)

// opNames[nb][kind] is the Proc method an op came from. Every one-sided
// op but AccF64 has a non-blocking form; NbAccF64 exists only so that Name
// is total.
var opNames = [2][NumOpKinds]string{
	{"Get", "Put", "AccF64", "Load64", "Store64", "FetchAdd64", "CAS64"},
	{"NbGet", "NbPut", "NbAccF64", "NbLoad64", "NbStore64", "NbFetchAdd64", "NbCAS64"},
}

// IsWord reports whether k addresses a word segment.
func (k OpKind) IsWord() bool { return k >= OpLoad64 }

// Op describes one one-sided operation; it is what Kernel.Issue takes, so
// a transport has one switch and a wrapper one hook for every kind. The
// descriptor belongs to the caller and is reused for its next operation:
// a callee that defers work past its return (a pending non-blocking op)
// copies the fields it needs.
type Op struct {
	Kind OpKind
	// Nb marks a non-blocking issue: the transport may leave the op
	// pending until the next Flush. What that buys is per transport — shm
	// and ipc complete inline anyway, dsim charges the batch the maximum
	// instead of the sum of its latencies, tcp queues the frame without a
	// flush and lets replies stream back.
	Nb     bool
	Target int // rank whose memory the op addresses
	Seg    Seg
	Off    int // byte offset (data kinds) or word index (word kinds)
	// Buf is the Get destination or the Put source. A Get's bytes are
	// defined at completion; a Put's must stay unmodified until then.
	Buf []byte
	F64 []float64 // AccF64 addends
	Val int64     // Store64 value, FetchAdd64 delta, CAS64 new value
	Old int64     // CAS64 expected value
	// Out receives, at completion, the word Load64 read, the previous
	// value of FetchAdd64, or 1/0 for a CAS64 that did/did not swap.
	Out *int64
}

// Name is the Proc method the op came from: "Get", "NbGet", ...
func (op *Op) Name() string {
	if op.Nb {
		return opNames[1][op.Kind]
	}
	return opNames[0][op.Kind]
}

// Bytes is the op's payload size, the n of every cost model: the bytes a
// data op moves, 8 for a word op.
func (op *Op) Bytes() int {
	switch op.Kind {
	case OpGet, OpPut:
		return len(op.Buf)
	case OpAccF64:
		return len(op.F64) * F64Bytes
	}
	return 8
}

// String renders the op with its operands for FaultError.Op.
func (op *Op) String() string {
	if op.Kind.IsWord() {
		return fmt.Sprintf("%s(rank=%d, seg=%d, idx=%d)", op.Name(), op.Target, op.Seg, op.Off)
	}
	n := len(op.Buf)
	if op.Kind == OpAccF64 {
		n = len(op.F64)
	}
	return fmt.Sprintf("%s(rank=%d, seg=%d, off=%d, n=%d)", op.Name(), op.Target, op.Seg, op.Off, n)
}

// ApplyData performs a data op on win, bytes [Off, Off+Bytes()) of the
// target's instance of the segment. The caller holds whatever makes an
// AccF64 atomic against other accumulates.
func (op *Op) ApplyData(win []byte) {
	switch op.Kind {
	case OpGet:
		copy(op.Buf, win)
	case OpPut:
		copy(win, op.Buf)
	case OpAccF64:
		AccF64Bytes(win, op.F64)
	}
}

// ApplyWord performs a word op on its target cell with sync/atomic.
func (op *Op) ApplyWord(cell *int64) {
	switch op.Kind {
	case OpLoad64:
		*op.Out = atomic.LoadInt64(cell)
	case OpStore64:
		atomic.StoreInt64(cell, op.Val)
	case OpFetchAdd64:
		*op.Out = atomic.AddInt64(cell, op.Val) - op.Val
	case OpCAS64:
		*op.Out = 0
		if atomic.CompareAndSwapInt64(cell, op.Old, op.Val) {
			*op.Out = 1
		}
	}
}

// NbPending is what a Kernel returns from Issue for an op it left pending;
// any value but NbDone means the same. Front hands out its own numbers.
const NbPending Nb = 1

// Front is the one implementation of Proc's typed one-sided methods: each
// fills a scratch Op it owns and passes it, by pointer, to Kernel.Issue.
// The lock methods (lock.go) are built on CAS64 here too, the barrier
// and AllReduce (barrier.go, allreduce.go) on Send and Recv, and the clock
// methods (clock.go) on the kernel's Clock.
// The owner's relaxed word ops are sync/atomic on LocalWords' slice.
// A transport or wrapper embeds a Front in its Kernel type and binds it to
// itself, which makes that type a Proc whose owner-side accessors (Local,
// LocalWords) are still its own methods, one dispatch away.
// Kernel code must not call the Front methods of its own value from inside
// Issue: they would overwrite the descriptor being served.
type Front struct {
	k   Kernel
	op  Op
	res int64 // Out of the blocking word ops

	// Handles number the pending issues; those at or below done were
	// completed by a Wait. A Flush the application calls directly is not
	// seen here, so a Wait on a handle it completed costs one more Flush,
	// which finds nothing pending.
	seq, done uint64

	tag int64  // this rank's holder tag in a lock cell: rank + 1 (lock.go)
	clk *Clock // the kernel's clock (clock.go)

	// words[seg] is LocalWords(seg), resolved on the segment's first
	// relaxed op; the slice is stable, so it is never resolved again.
	words [][]int64

	// The collectives (barrier.go, allreduce.go): the world size, the
	// kernel's membership when it is Resilient, and the member list as of
	// the acknowledged fault epoch, with this rank's index in it and the
	// generation count; and AllReduce's scratch, the bytes it sends and
	// the vector it receives.
	n     int
	mem   Resilient
	epoch int64
	live  []int
	idx   int32
	gen   int32
	wire  []byte
	in    []int64
}

// Bind points the front at the kernel that embeds it.
func (f *Front) Bind(k Kernel) {
	f.k = k
	f.tag = int64(k.Rank()) + 1
	f.clk = k.Clock()
	f.n = k.NProcs()
	f.mem, _ = Find[Resilient](k)
	f.members(nil)
}

// set fills the scratch descriptor's addressing fields. The descriptor is
// filled field by field, never assigned as a whole: a composite-literal
// store of a pointerful 100-byte struct compiles to a bulk copy behind a
// write barrier and costs more than the shm operation it describes.
// Every typed method clears the pointer operands it set (Buf, F64, Out)
// once the kernel has returned, so Issue never sees a pointer the current
// call did not supply and the front pins no application memory between
// calls. Only the scalar operands Val and Old keep a stale value under a
// kind that does not define them. A panic out of Issue (a fault) skips
// the clearing, so a kernel that copies operands into a record of its own
// still copies them by kind.
func (f *Front) set(kind OpKind, nb bool, proc int, seg Seg, off int) *Op {
	op := &f.op
	op.Kind, op.Nb, op.Target, op.Seg, op.Off = kind, nb, proc, seg, off
	return op
}

// number turns a kernel's Issue result into the handle the application
// sees: NbDone, or the next number for an op left pending.
func (f *Front) number(h Nb) Nb {
	if h == NbDone {
		return NbDone
	}
	f.seq++
	return Nb(f.seq)
}

func (f *Front) Get(dst []byte, proc int, seg Seg, off int) {
	op := f.set(OpGet, false, proc, seg, off)
	op.Buf = dst
	f.k.Issue(op)
	op.Buf = nil
}

func (f *Front) Put(proc int, seg Seg, off int, src []byte) {
	op := f.set(OpPut, false, proc, seg, off)
	op.Buf = src
	f.k.Issue(op)
	op.Buf = nil
}

func (f *Front) AccF64(proc int, seg Seg, off int, vals []float64) {
	op := f.set(OpAccF64, false, proc, seg, off)
	op.F64 = vals
	f.k.Issue(op)
	op.F64 = nil
}

func (f *Front) Load64(proc int, seg Seg, idx int) int64 {
	op := f.set(OpLoad64, false, proc, seg, idx)
	op.Out = &f.res
	f.k.Issue(op)
	op.Out = nil
	return f.res
}

func (f *Front) Store64(proc int, seg Seg, idx int, val int64) {
	op := f.set(OpStore64, false, proc, seg, idx)
	op.Val = val
	f.k.Issue(op)
}

func (f *Front) FetchAdd64(proc int, seg Seg, idx int, delta int64) int64 {
	op := f.set(OpFetchAdd64, false, proc, seg, idx)
	op.Val, op.Out = delta, &f.res
	f.k.Issue(op)
	op.Out = nil
	return f.res
}

func (f *Front) CAS64(proc int, seg Seg, idx int, old, new int64) bool {
	op := f.set(OpCAS64, false, proc, seg, idx)
	op.Old, op.Val, op.Out = old, new, &f.res
	f.k.Issue(op)
	op.Out = nil
	return f.res != 0
}

func (f *Front) NbGet(dst []byte, proc int, seg Seg, off int) Nb {
	op := f.set(OpGet, true, proc, seg, off)
	op.Buf = dst
	h := f.k.Issue(op)
	op.Buf = nil
	return f.number(h)
}

func (f *Front) NbPut(proc int, seg Seg, off int, src []byte) Nb {
	op := f.set(OpPut, true, proc, seg, off)
	op.Buf = src
	h := f.k.Issue(op)
	op.Buf = nil
	return f.number(h)
}

func (f *Front) NbLoad64(proc int, seg Seg, idx int, out *int64) Nb {
	op := f.set(OpLoad64, true, proc, seg, idx)
	op.Out = out
	h := f.k.Issue(op)
	op.Out = nil
	return f.number(h)
}

func (f *Front) NbStore64(proc int, seg Seg, idx int, val int64) Nb {
	op := f.set(OpStore64, true, proc, seg, idx)
	op.Val = val
	return f.number(f.k.Issue(op))
}

func (f *Front) NbFetchAdd64(proc int, seg Seg, idx int, delta int64, old *int64) Nb {
	op := f.set(OpFetchAdd64, true, proc, seg, idx)
	op.Val, op.Out = delta, old
	h := f.k.Issue(op)
	op.Out = nil
	return f.number(h)
}

func (f *Front) NbCAS64(proc int, seg Seg, idx int, old, new int64, swapped *int64) Nb {
	op := f.set(OpCAS64, true, proc, seg, idx)
	op.Old, op.Val, op.Out = old, new, swapped
	h := f.k.Issue(op)
	op.Out = nil
	return f.number(h)
}

// RelaxedLoad64 is Proc's owner-side load. The access is sync/atomic, so
// it is sequentially consistent with every word op on the cell; relaxed
// means no yield, no charge and no ordering against ops still in flight.
func (f *Front) RelaxedLoad64(seg Seg, idx int) int64 {
	return atomic.LoadInt64(&f.own(seg)[idx])
}

// RelaxedStore64 is Proc's owner-side store, sync/atomic like the load.
func (f *Front) RelaxedStore64(seg Seg, idx int, val int64) {
	atomic.StoreInt64(&f.own(seg)[idx], val)
}

// own is this rank's instance of word segment seg: a table hit, inlined
// into the relaxed ops, or the out-of-line first resolution.
func (f *Front) own(seg Seg) []int64 {
	if int(seg) < len(f.words) && f.words[seg] != nil {
		return f.words[seg]
	}
	return f.resolve(seg)
}

func (f *Front) resolve(seg Seg) []int64 {
	for len(f.words) <= int(seg) {
		f.words = append(f.words, nil)
	}
	f.words[seg] = f.k.LocalWords(seg)
	return f.words[seg]
}

// Wait completes h by completing everything pending, which the contract
// permits and which keeps the bookkeeping O(1).
func (f *Front) Wait(h Nb) {
	if h == NbDone || uint64(h) <= f.done {
		return
	}
	f.k.Flush()
	f.done = f.seq
}

// Find returns the outermost layer of p — p itself, then whatever each
// wrapper's Unwrap exposes — that implements the capability T (Resilient,
// trace.Attacher, a wrapper's own type). Wrappers therefore forward no
// capability by hand: they only say what they wrap.
func Find[T any](p any) (T, bool) {
	for {
		if t, ok := p.(T); ok {
			return t, true
		}
		w, ok := p.(interface{ Unwrap() Kernel })
		if !ok {
			var none T
			return none, false
		}
		p = w.Unwrap()
	}
}
