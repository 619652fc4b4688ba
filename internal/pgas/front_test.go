package pgas

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// recKernel records every kernel call it receives, one line each. With the
// Front bound to it, it is a Proc whose typed methods can be checked
// against the Issue they must produce.
type recKernel struct {
	Front
	clk     Clock
	vt      time.Duration   // clk's time when clk is virtual
	casAt   []time.Duration // vt at each CAS64 issued
	log     []string
	pending bool  // leave non-blocking issues pending
	word    int64 // what word ops read; a CAS whose Old matches it swaps it
	// busy, when > 0, counts failed CASes until word turns 0: a lock whose
	// holder releases it after that many attempts.
	busy int
}

// newRec returns a bound recKernel on a wall clock or, when virtual, on a
// virtual clock that reads and advances k.vt.
func newRec(virtual bool) *recKernel {
	k := &recKernel{clk: NewClock(time.Now(), nil, 1, 0, nil)}
	if virtual {
		k.clk = NewClock(time.Time{}, &k.vt, 1, 0, nil)
	}
	k.Bind(k)
	return k
}

func (k *recKernel) rec(format string, args ...any) {
	k.log = append(k.log, fmt.Sprintf(format, args...))
}

func (k *recKernel) Issue(op *Op) Nb {
	// Val and Old are recorded where the kind defines them; elsewhere the
	// scratch descriptor may hold an earlier call's.
	var val, old int64
	switch op.Kind {
	case OpCAS64:
		val, old = op.Val, op.Old
	case OpStore64, OpFetchAdd64:
		val = op.Val
	}
	k.rec("Issue %s nb=%t target=%d seg=%d off=%d bytes=%d val=%d old=%d",
		opNames[0][op.Kind], op.Nb, op.Target, op.Seg, op.Off, op.Bytes(), val, old)
	// Only the pointer operands the kind defines may be set.
	wantBuf, wantF64 := op.Kind == OpGet || op.Kind == OpPut, op.Kind == OpAccF64
	wantOut := op.Kind.IsWord() && op.Kind != OpStore64
	if (op.Buf != nil) != wantBuf || (op.F64 != nil) != wantF64 || (op.Out != nil) != wantOut {
		k.rec("%s saw Buf=%t F64=%t Out=%t", op.Name(), op.Buf != nil, op.F64 != nil, op.Out != nil)
	}
	switch op.Kind {
	case OpLoad64, OpFetchAdd64:
		*op.Out = k.word
	case OpCAS64:
		k.casAt = append(k.casAt, k.vt)
		*op.Out = 0
		if op.Old == k.word {
			*op.Out, k.word = 1, op.Val
		} else if k.busy > 0 {
			if k.busy--; k.busy == 0 {
				k.word = 0
			}
		}
	}
	if op.Nb && k.pending {
		return NbPending
	}
	return NbDone
}

func (k *recKernel) Rank() int            { k.rec("Rank"); return 0 }
func (k *recKernel) NProcs() int          { k.rec("NProcs"); return 2 }
func (k *recKernel) Barrier()             { k.rec("Barrier") }
func (k *recKernel) AllocData(n int) Seg  { k.rec("AllocData %d", n); return 0 }
func (k *recKernel) AllocWords(n int) Seg { k.rec("AllocWords %d", n); return 0 }
func (k *recKernel) Local(seg Seg) []byte { k.rec("Local %d", seg); return nil }
func (k *recKernel) Flush()               { k.rec("Flush") }
func (k *recKernel) Clock() *Clock        { k.rec("Clock"); return &k.clk }
func (k *recKernel) RelaxedLoad64(seg Seg, idx int) int64 {
	k.rec("RelaxedLoad64 %d %d", seg, idx)
	return 0
}
func (k *recKernel) RelaxedStore64(seg Seg, idx int, v int64) {
	k.rec("RelaxedStore64 %d %d %d", seg, idx, v)
}
func (k *recKernel) Send(to int, tag int32, data []byte) {
	k.rec("Send %d %d %d", to, tag, len(data))
}
func (k *recKernel) Recv(from int, tag int32) ([]byte, int) {
	k.rec("Recv %d %d", from, tag)
	return nil, 0
}
func (k *recKernel) TryRecv(from int, tag int32) ([]byte, int, bool) {
	k.rec("TryRecv %d %d", from, tag)
	return nil, -1, false
}

// TestFrontEquivalence has one row per Proc method: each API call must
// reach the kernel as exactly one call — or, for the clock methods Front
// serves from the Clock it took at Bind, as none — and for the typed
// one-sided methods as one Issue with the kind, nb flag, target, segment,
// offset and byte count the method's own implementation used to act on (an
// uncontended Lock, TryLock or Unlock is one CAS64 of the lock's cell, 0
// being free and rank + 1 the holder, and nothing else), carrying no
// pointer operand an earlier call supplied (the rows share one front, and
// every call must leave its descriptor free of pointers). Wrappers count and time
// what they see at this level, so these rows are what keeps faulty's
// seed-determined fault streams and instr's op/scope schema stable.
func TestFrontEquivalence(t *testing.T) {
	var out int64
	buf := make([]byte, 16)
	rows := []struct {
		name string
		call func(p Proc)
		want string // the one kernel call the method becomes
	}{
		{"Get", func(p Proc) { p.Get(buf, 1, 2, 8) }, "Issue Get nb=false target=1 seg=2 off=8 bytes=16 val=0 old=0"},
		{"Put", func(p Proc) { p.Put(1, 2, 8, buf[:4]) }, "Issue Put nb=false target=1 seg=2 off=8 bytes=4 val=0 old=0"},
		{"AccF64", func(p Proc) { p.AccF64(1, 2, 8, []float64{1, 2, 3}) }, "Issue AccF64 nb=false target=1 seg=2 off=8 bytes=24 val=0 old=0"},
		{"Load64", func(p Proc) { p.Load64(1, 3, 5) }, "Issue Load64 nb=false target=1 seg=3 off=5 bytes=8 val=0 old=0"},
		{"Store64", func(p Proc) { p.Store64(1, 3, 5, 9) }, "Issue Store64 nb=false target=1 seg=3 off=5 bytes=8 val=9 old=0"},
		{"FetchAdd64", func(p Proc) { p.FetchAdd64(1, 3, 5, -2) }, "Issue FetchAdd64 nb=false target=1 seg=3 off=5 bytes=8 val=-2 old=0"},
		{"CAS64", func(p Proc) { p.CAS64(1, 3, 5, 7, 8) }, "Issue CAS64 nb=false target=1 seg=3 off=5 bytes=8 val=8 old=7"},
		{"NbGet", func(p Proc) { p.NbGet(buf, 1, 2, 8); p.Flush() }, "Issue Get nb=true target=1 seg=2 off=8 bytes=16 val=0 old=0"},
		{"NbPut", func(p Proc) { p.NbPut(1, 2, 8, buf[:4]); p.Flush() }, "Issue Put nb=true target=1 seg=2 off=8 bytes=4 val=0 old=0"},
		{"NbLoad64", func(p Proc) { p.NbLoad64(1, 3, 5, &out); p.Flush() }, "Issue Load64 nb=true target=1 seg=3 off=5 bytes=8 val=0 old=0"},
		{"NbStore64", func(p Proc) { p.NbStore64(1, 3, 5, 9); p.Flush() }, "Issue Store64 nb=true target=1 seg=3 off=5 bytes=8 val=9 old=0"},
		{"NbFetchAdd64", func(p Proc) { p.NbFetchAdd64(1, 3, 5, -2, &out); p.Flush() }, "Issue FetchAdd64 nb=true target=1 seg=3 off=5 bytes=8 val=-2 old=0"},
		{"NbCAS64", func(p Proc) { p.NbCAS64(1, 3, 5, 7, 8, &out); p.Flush() }, "Issue CAS64 nb=true target=1 seg=3 off=5 bytes=8 val=8 old=7"},
		{"Wait", func(p Proc) { p.Wait(Nb(1)) }, "Flush"},
		{"Flush", func(p Proc) { p.Flush() }, "Flush"},
		{"Rank", func(p Proc) { p.Rank() }, "Rank"},
		{"NProcs", func(p Proc) { p.NProcs() }, "NProcs"},
		{"Barrier", func(p Proc) { p.Barrier() }, "Barrier"},
		{"AllocData", func(p Proc) { p.AllocData(64) }, "AllocData 64"},
		{"AllocWords", func(p Proc) { p.AllocWords(4) }, "AllocWords 4"},
		{"AllocLock", func(p Proc) { p.AllocLock() }, "AllocWords 1"},
		{"Local", func(p Proc) { p.Local(2) }, "Local 2"},
		{"RelaxedLoad64", func(p Proc) { p.RelaxedLoad64(3, 1) }, "RelaxedLoad64 3 1"},
		{"RelaxedStore64", func(p Proc) { p.RelaxedStore64(3, 1, 6) }, "RelaxedStore64 3 1 6"},
		{"Lock", func(p Proc) { p.Lock(1, 2); p.Unlock(1, 2) }, "Issue CAS64 nb=false target=1 seg=2 off=0 bytes=8 val=1 old=0"},
		{"TryLock", func(p Proc) { p.TryLock(1, 2) }, "Issue CAS64 nb=false target=1 seg=2 off=0 bytes=8 val=1 old=0"},
		{"Unlock", func(p Proc) { p.Unlock(1, 2) }, "Issue CAS64 nb=false target=1 seg=2 off=0 bytes=8 val=0 old=1"},
		{"Send", func(p Proc) { p.Send(1, 7, buf[:3]) }, "Send 1 7 3"},
		{"Recv", func(p Proc) { p.Recv(AnySource, 7) }, "Recv -1 7"},
		{"TryRecv", func(p Proc) { p.TryRecv(1, 7) }, "TryRecv 1 7"},
		{"Clock", func(p Proc) { p.Clock() }, "Clock"},
		{"Compute", func(p Proc) { p.Compute(time.Microsecond) }, ""},
		{"Charge", func(p Proc) { p.Charge(time.Microsecond) }, ""},
		{"Now", func(p Proc) { p.Now() }, ""},
		{"Rand", func(p Proc) { p.Rand() }, ""},
	}
	methods := reflect.TypeOf((*Proc)(nil)).Elem()
	if got, want := len(rows), methods.NumMethod()-1; got != want { // Issue is the level checked, not a row
		t.Errorf("%d rows for %d Proc methods", got, want)
	}
	k := newRec(false)
	k.pending = true
	for _, row := range rows {
		k.word = 0
		if row.name == "Unlock" {
			k.word = 1 // held by this rank
		}
		if _, ok := methods.MethodByName(row.name); !ok {
			t.Errorf("row %s names no Proc method", row.name)
		}
		k.log = nil
		row.call(k)
		if k.op.Buf != nil || k.op.F64 != nil || k.op.Out != nil {
			t.Errorf("%s left a pointer operand in the front's descriptor: %+v", row.name, k.op)
		}
		// The Nb rows complete their handle and the Lock row releases its
		// lock, as every caller must; that second call is not the row's.
		if strings.HasPrefix(row.name, "Nb") && len(k.log) == 2 && k.log[1] == "Flush" ||
			row.name == "Lock" && len(k.log) == 2 && strings.HasSuffix(k.log[1], "val=0 old=1") {
			k.log = k.log[:1]
		}
		var want []string
		if row.want != "" {
			want = []string{row.want}
		}
		if !slices.Equal(k.log, want) {
			t.Errorf("%s reached the kernel as %q, want %q", row.name, k.log, want)
		}
	}
	if n := reflect.TypeOf((*Kernel)(nil)).Elem().NumMethod(); n != 14 {
		t.Errorf("Kernel has %d methods, want 14", n)
	}
}

// TestFrontResults: the typed methods return what the kernel wrote through
// Out, and handles number only the issues a kernel left pending.
func TestFrontResults(t *testing.T) {
	k := newRec(false)
	k.word = 41
	if got := k.Load64(1, 0, 0); got != 41 {
		t.Errorf("Load64 = %d, want 41", got)
	}
	if got := k.FetchAdd64(1, 0, 0, 1); got != 41 {
		t.Errorf("FetchAdd64 = %d, want 41", got)
	}
	if !k.CAS64(1, 0, 0, 41, 42) || k.CAS64(1, 0, 0, 40, 42) {
		t.Error("CAS64 did not report the kernel's verdict")
	}
	var out int64
	h := k.NbLoad64(1, 0, 0, &out)
	k.Wait(h)
	if h != NbDone || out != 42 {
		t.Errorf("inline NbLoad64 = handle %d, out %d; want NbDone, 42", h, out)
	}

	k.pending = true
	h1 := k.NbStore64(1, 0, 0, 1)
	h2 := k.NbStore64(1, 0, 1, 2)
	k.log = nil
	k.Wait(NbDone)
	k.Wait(h1) // completes the batch, h2 with it
	k.Wait(h2)
	k.Wait(h1)
	if h1 == NbDone || h2 == NbDone || h1 == h2 {
		t.Errorf("pending handles %d, %d: want two distinct non-NbDone handles", h1, h2)
	}
	if want := []string{"Flush"}; !reflect.DeepEqual(k.log, want) {
		t.Errorf("Wait(NbDone), Wait(h1), Wait(h2), Wait(h1) reached the kernel as %q, want %q", k.log, want)
	}
}

// TestLockContended: a Lock that finds the lock held retries its CAS64,
// charging dsim's back-off between attempts — 1 µs doubling to 16 µs — and
// nothing else reaches the kernel. On a wall clock the charges are empty;
// on a virtual clock they are the gaps between the attempts, and Lock
// spends no wall-clock time waiting. Unlock of a lock the caller does not
// hold panics, and BreakLock frees exactly the named dead holder's lock.
func TestLockContended(t *testing.T) {
	k := newRec(false)
	k.word, k.busy = 2, 7 // rank 1 holds it through seven attempts
	k.log = nil
	k.Lock(1, 2)
	for _, line := range k.log {
		if !strings.HasPrefix(line, "Issue CAS64") {
			t.Fatalf("contended Lock reached the kernel as %q, want CAS64s only", k.log)
		}
	}
	if len(k.log) != 8 || k.word != 1 {
		t.Errorf("contended Lock took %d calls and left the cell %d, want 8 and 1", len(k.log), k.word)
	}
	k.Unlock(1, 2)

	v := newRec(true)
	v.word, v.busy = 2, 7
	v.Lock(1, 2)
	var gaps []time.Duration
	for i := 1; i < len(v.casAt); i++ {
		gaps = append(gaps, v.casAt[i]-v.casAt[i-1])
	}
	us := time.Microsecond
	if want := []time.Duration{us, 2 * us, 4 * us, 8 * us, 16 * us, 16 * us, 16 * us}; !slices.Equal(gaps, want) || v.word != 1 {
		t.Errorf("contended Lock on a virtual clock waited %v between attempts and left the cell %d, want %v and 1", gaps, v.word, want)
	}
	v.Unlock(1, 2)

	v.word, v.busy = 2, 1<<12 // far into Backoff's sleeping band
	t0 := time.Now()
	v.Lock(1, 2)
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Errorf("4096 failed attempts on a virtual clock took %v of wall clock: Lock slept", d)
	}
	v.Unlock(1, 2)

	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "does not hold") {
				t.Errorf("Unlock of a lock rank 1 holds: recovered %v, want the not-held panic", r)
			}
		}()
		k.word = 2
		k.Unlock(1, 2)
	}()
	if BreakLock(k, 1, 2, 2) || k.word != 2 {
		t.Error("BreakLock freed a lock its named rank does not hold")
	}
	if !BreakLock(k, 1, 2, 1) || k.word != 0 {
		t.Error("BreakLock did not free the dead holder's lock")
	}
}

type wrapKernel struct{ Kernel }

func (w wrapKernel) Unwrap() Kernel { return w.Kernel }

type flagged interface{ flag() string }

type flagKernel struct {
	Kernel
	name string
}

func (f flagKernel) flag() string { return f.name }

// TestFind: a capability is found on the outermost layer that has it, and
// through any depth of wrappers that only say what they wrap.
func TestFind(t *testing.T) {
	bare := newRec(false)
	if _, ok := Find[flagged](bare); ok {
		t.Error("found a capability nothing implements")
	}
	inner := flagKernel{Kernel: bare, name: "inner"}
	if f, ok := Find[flagged](wrapKernel{wrapKernel{inner}}); !ok || f.flag() != "inner" {
		t.Error("capability not found through two wrappers")
	}
	outer := flagKernel{Kernel: wrapKernel{inner}, name: "outer"}
	if f, ok := Find[flagged](outer); !ok || f.flag() != "outer" {
		t.Error("outermost implementer must win")
	}
	if k, ok := Find[*recKernel](wrapKernel{bare}); !ok || k != bare {
		t.Error("Find must reach a concrete layer type")
	}
}
