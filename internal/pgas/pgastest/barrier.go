package pgastest

import (
	"fmt"
	"testing"
	"time"

	"scioto/internal/pgas"
)

// The barrier is built once, in pgas.Front, over Send and Recv
// (pgas/barrier.go). Its plain cases are in the main group; this one holds
// a survivable transport's Membership and fault delivery to the barrier's
// contract across a death.

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
		survive := surviving(p, dead)
		for acked := survive(p.Barrier); !acked; {
			acked = survive(func() {
				p.Load64(p.Rank(), p.ws, 0)
				p.Compute(time.Microsecond)
			})
		}
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

// surviving returns a runner for p's operations in a survivable world in
// which rank dead dies: it runs op and reports whether op delivered the
// death, which it acknowledges (SurviveFault) when it did.
func surviving(p pgas.Proc, dead int) func(op func()) (acked bool) {
	res, ok := pgas.Find[pgas.Resilient](p)
	if !ok {
		panic("the transport is not pgas.Resilient")
	}
	return func(op func()) (acked bool) {
		defer func() {
			if r := recover(); r != nil {
				fe, isFault := r.(*pgas.FaultError)
				if !isFault || fe.Rank != dead {
					panic(r)
				}
				if alive, ok := res.SurviveFault(fe); !ok || alive[dead] {
					panic(fmt.Sprintf("SurviveFault = (%v, %t), want rank %d dead", alive, ok, dead))
				}
				acked = true
			}
		}()
		op()
		return false
	}
}
