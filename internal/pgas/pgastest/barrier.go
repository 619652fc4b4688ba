package pgastest

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"scioto/internal/pgas"
)

// The collectives are built once, in pgas.Front, over Send and Recv
// (pgas/barrier.go, pgas/allreduce.go). The barrier's plain cases are in
// the main group; the all-reduce's are here, and the LiveMembership cases
// hold a survivable transport's Membership and fault delivery to the
// collectives' contract across a death. DeadHeapReadable holds it to the
// pgas.Resilient contract's reads of a dead rank's heap.

// midBarrierDeath is a wrapper that puts a death in the middle of the first
// barrier. On rank dead, the barrier's second Send — the start of its
// second round — dies. On rank parked, the barrier's first Recv does not
// take the message it waits for but polls until the death is delivered,
// as a transport may deliver a fault to a parked receiver ahead of a
// message: the aborted barrier leaves its rounds behind on a survivor.
type midBarrierDeath struct {
	pgas.Front
	pgas.Kernel
	dead, parked int
	sends, recvs int
	ws           pgas.Seg // a word to poll
}

func (d *midBarrierDeath) Unwrap() pgas.Kernel { return d.Kernel }

func (d *midBarrierDeath) Send(to int, tag int32, data []byte) {
	if d.sends++; d.sends == 2 && d.Rank() == d.dead {
		d.Compute(time.Millisecond) // the other ranks' first rounds go out
		panic(fmt.Sprintf("rank %d dying between the rounds of a barrier", d.dead))
	}
	d.Kernel.Send(to, tag, data)
}

func (d *midBarrierDeath) Recv(from int, tag int32) ([]byte, int) {
	if d.recvs++; d.recvs == 1 && d.Rank() == d.parked {
		for {
			d.Load64(d.Rank(), d.ws, 0)
			d.Compute(time.Microsecond)
		}
	}
	return d.Kernel.Recv(from, tag)
}

// testBarrierLiveMembership: of four ranks, rank 1 dies between the two
// rounds of the first barrier, and rank 0 leaves that barrier with the
// death before it took its first round's message. Each survivor
// acknowledges the death wherever it is delivered — inside the barrier, or
// at its next operation when it left the barrier first. The barriers after
// the recovery run over the three live ranks, restarting the generation
// count, and still separate phases: each phase's writer arrives last, and
// no rank leaves before its value is visible — which rank 0 would, were
// the aborted barrier's rounds waiting in its mailbox to satisfy its
// receives of the first barrier after the recovery. f must create
// survivable worlds.
func testBarrierLiveMembership(t *testing.T, f Factory) {
	const n, dead = 4, 1
	live := []int{0, 2, 3}
	run(t, f(n), func(bare pgas.Proc) {
		p := &midBarrierDeath{Kernel: bare, dead: dead, parked: 0}
		p.Bind(p)
		p.ws = p.AllocWords(1)
		acknowledge(p, dead, awaitDeath(p, dead, p.ws, p.Barrier))
		for phase := int64(1); phase <= 6; phase++ {
			if writer := live[phase%3]; p.Rank() == writer {
				p.Compute(200 * time.Microsecond)
				for _, r := range live {
					p.Store64(r, p.ws, 0, phase)
				}
			}
			p.Barrier()
			if got := p.Load64(p.Rank(), p.ws, 0); got != phase {
				panic(fmt.Sprintf("rank %d left the barrier of phase %d before its writer arrived (word = %d)", p.Rank(), phase, got))
			}
			p.Barrier()
		}
	})
}

// unwound runs op and returns the FaultError of rank dead's death if that
// unwound it, nil if op returned; any other panic propagates.
func unwound(dead int, op func()) (fe *pgas.FaultError) {
	defer func() {
		if r := recover(); r != nil {
			if fe, _ = r.(*pgas.FaultError); fe == nil || fe.Rank != dead {
				panic(r)
			}
		}
	}()
	op()
	return nil
}

// awaitDeath runs op and then polls a word of p's own segment ws until
// rank dead's death has unwound the rank, and returns that death.
func awaitDeath(p pgas.Proc, dead int, ws pgas.Seg, op func()) *pgas.FaultError {
	return unwound(dead, func() {
		op()
		for {
			p.Load64(p.Rank(), ws, 0)
			p.Compute(time.Microsecond)
		}
	})
}

// acknowledge acknowledges rank dead's death fe (SurviveFault), which must
// leave dead out of the live membership.
func acknowledge(p pgas.Proc, dead int, fe *pgas.FaultError) {
	res, ok := pgas.Find[pgas.Resilient](p)
	if !ok {
		panic("the transport is not pgas.Resilient")
	}
	if alive, ok := res.SurviveFault(fe); !ok || alive[dead] {
		panic(fmt.Sprintf("SurviveFault = (%v, %t), want rank %d dead", alive, ok, dead))
	}
}

// testDeadHeapReadable: of three ranks, rank 1 writes its data and word
// segments and dies. A survivor polls until the death unwinds it; before
// it acknowledges the death, a Get, a Load64 and an NbLoad64 + Flush of
// the dead rank each unwind with that death's FaultError, and once
// SurviveFault has acknowledged it the same reads return what the dead
// rank last wrote. f must create survivable worlds.
func testDeadHeapReadable(t *testing.T, f Factory) {
	const n, dead = 3, 1
	run(t, f(n), func(p pgas.Proc) {
		ds, ws := p.AllocData(8), p.AllocWords(2)
		if p.Rank() == dead {
			p.Put(dead, ds, 0, []byte("lastword"))
			p.Store64(dead, ws, 0, 41)
			p.Store64(dead, ws, 1, 42)
			panic("dying after its writes")
		}
		got, w := make([]byte, 8), [2]int64{}
		reads := []func(){
			func() { p.Get(got, dead, ds, 0) },
			func() { w[0] = p.Load64(dead, ws, 0) },
			func() { p.NbLoad64(dead, ws, 1, &w[1]); p.Flush() },
		}
		fe := awaitDeath(p, dead, ws, func() {})
		for i, read := range reads {
			if unwound(dead, read) == nil {
				panic(fmt.Sprintf("rank %d: read %d of the dead rank returned before its death was acknowledged", p.Rank(), i))
			}
		}
		acknowledge(p, dead, fe)
		for _, read := range reads {
			read()
		}
		if string(got) != "lastword" || w != [2]int64{41, 42} {
			panic(fmt.Sprintf("rank %d read the dead rank's heap as %q, %v; want \"lastword\", [41 42]", p.Rank(), got, w))
		}
	})
}

// testAllReduce: at every P of {1, 2, 3, 5, 8}, a Sum and a max all-reduce
// give every rank the closed-form result; a word each rank stores before
// the Sum is visible to every rank after it (a rank leaves no earlier than
// the last one enters); and all-reduces and barriers alternate back to
// back without one's rounds satisfying another's.
func testAllReduce(t *testing.T, f Factory) {
	for _, n := range []int64{1, 2, 3, 5, 8} {
		run(t, f(int(n)), func(p pgas.Proc) {
			me := int64(p.Rank())
			ws := p.AllocWords(1)
			for i := int64(0); i < 6; i++ {
				p.Store64(p.Rank(), ws, 0, 100*i+me)
				sum := []int64{me + 1, i, me * me}
				p.AllReduce(sum, pgas.Sum)
				if want := []int64{n * (n + 1) / 2, n * i, (n - 1) * n * (2*n - 1) / 6}; !slices.Equal(sum, want) {
					panic(fmt.Sprintf("rank %d, P = %d, call %d: sum = %v, want %v", me, n, i, sum, want))
				}
				for r := 0; r < int(n); r++ {
					if got := p.Load64(r, ws, 0); got != 100*i+int64(r) {
						panic(fmt.Sprintf("rank %d left all-reduce %d before rank %d entered it (word = %d)", me, i, r, got))
					}
				}
				hi := []int64{(7*me + i) % n, -me}
				p.AllReduce(hi, func(acc, in []int64) {
					for j := range acc {
						acc[j] = max(acc[j], in[j])
					}
				})
				want := int64(0)
				for r := int64(0); r < n; r++ {
					want = max(want, (7*r+i)%n)
				}
				if hi[0] != want || hi[1] != 0 {
					panic(fmt.Sprintf("rank %d, P = %d, call %d: max = %v, want [%d 0]", me, n, i, hi, want))
				}
				p.Barrier()
			}
		})
	}
}

// testAllReduceLiveMembership: of four ranks, rank 1 dies between two
// all-reduces, once every survivor has left the first. No survivor can
// leave the second, which rank 1 never enters: each acknowledges the death
// inside it and calls it again, and that call and the ones after it sum
// the three survivors' vectors only. f must create survivable worlds.
func testAllReduceLiveMembership(t *testing.T, f Factory) {
	const n, dead = 4, 1
	run(t, f(n), func(p pgas.Proc) {
		me := p.Rank()
		left := p.AllocWords(n) // on the dead rank: who has left the first call
		vec := []int64{int64(me) + 1}
		p.AllReduce(vec, pgas.Sum)
		if vec[0] != 10 {
			panic(fmt.Sprintf("rank %d: first sum = %d, want 10", me, vec[0]))
		}
		if me == dead {
			for r := 0; r < n; r++ {
				for r != dead && p.Load64(me, left, r) == 0 {
					p.Compute(time.Microsecond)
				}
			}
			panic(fmt.Sprintf("rank %d dying between two all-reduces", dead))
		}
		p.Store64(dead, left, me, 1)
		fe := unwound(dead, func() { p.AllReduce(vec, pgas.Sum) })
		if fe == nil {
			panic(fmt.Sprintf("rank %d left an all-reduce the dead rank never entered", me))
		}
		acknowledge(p, dead, fe)
		for i := int64(0); i < 4; i++ {
			vec[0] = int64(me) + 1 + i
			p.AllReduce(vec, pgas.Sum)
			if want := 1 + 3 + 4 + 3*i; vec[0] != want {
				panic(fmt.Sprintf("rank %d: sum %d over the survivors = %d, want %d", me, i, vec[0], want))
			}
			p.Barrier()
		}
	})
}
