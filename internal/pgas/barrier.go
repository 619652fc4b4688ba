package pgas

// The barrier, built once over Send and Recv the way DART-MPI builds its
// collectives over one message layer: a dissemination barrier of
// ceil(log2 n) rounds over the n live ranks in rank order, in which the
// member at index i sends to member i+2^k and then receives from member
// i-2^k. No transport knows about barriers. A wrapper sees a barrier as the
// messages it is, so injected faults and delays apply to each of them, and
// a rank's death wakes the survivors parked in the Recv it would have
// satisfied, with the transport's fault.

// barrierTagBase is the top of the tag space the barrier reserves. A
// round's tag is barrierTagBase - epoch*128 - gen*64 - round: the
// generation parity keeps adjacent barriers apart (a fast rank's next
// round cannot satisfy a slow rank's current one), and the fault epoch
// keeps the rounds of a barrier a death aborted from ever satisfying the
// receives of a barrier after the recovery.
const barrierTagBase int32 = -(1 << 20)

// Barrier is Proc's barrier. The member list is the live membership this
// rank has acknowledged: every rank, unless the kernel is Resilient and a
// SurviveFault moved its epoch, which also restarts the generation count —
// survivors abort a barrier at different rounds, so their parities may
// differ, and the new epoch already fences off the aborted rounds. A
// barrier of one member sends nothing; a virtual clock charges it one
// local step (Clock.SetStep).
func (f *Front) Barrier() {
	if f.mem != nil {
		if alive, epoch := f.mem.Membership(); epoch != f.epoch {
			f.members(alive)
			f.epoch, f.gen = epoch, 0
		}
	}
	n := int32(len(f.live))
	if n == 1 {
		if c := f.clk; c.virt != nil {
			*c.virt += c.step
		}
		return
	}
	gen := f.gen & 1
	f.gen++
	for dist, round := int32(1), int32(0); dist < n; dist, round = 2*dist, round+1 {
		tag := barrierTagBase - int32(f.epoch)*128 - gen*64 - round
		f.k.Send(f.live[(f.idx+dist)%n], tag, nil)
		f.k.Recv(f.live[(f.idx-dist+n)%n], tag)
	}
}

// members sets the barrier's member list from a live bitmap (nil: every
// rank) and this rank's index in it.
func (f *Front) members(alive []bool) {
	f.live = f.live[:0]
	for r := 0; r < f.n; r++ {
		if alive == nil || alive[r] {
			if int64(r) == f.tag-1 {
				f.idx = int32(len(f.live))
			}
			f.live = append(f.live, r)
		}
	}
}
