package pgas

// The collectives, built once over Send and Recv the way DART-MPI builds
// its collectives over one message layer. The barrier is a dissemination
// barrier of ceil(log2 n) rounds over the n live ranks in rank order, in
// which the member at index i sends to member i+2^k and then receives from
// member i-2^k; AllReduce (allreduce.go) is recursive doubling over the
// same members. No transport knows about collectives. A wrapper sees one
// as the messages it is, so injected faults and delays apply to each of
// them, and a rank's death wakes the survivors parked in the Recv it would
// have satisfied, with the transport's fault.

// collTagBase is the top of the tag space the collectives reserve. A
// round's tag is collTagBase - epoch*256 - kind*128 - gen*64 - round: the
// kind keeps a barrier's rounds and an all-reduce's apart by construction;
// the generation parity keeps adjacent collectives apart (a fast rank's
// next round cannot satisfy a slow rank's current one); and the fault
// epoch keeps the rounds of a collective a death aborted from ever
// satisfying the receives of one after the recovery.
const collTagBase int32 = -(1 << 20)

// The kinds of collective in the tag scheme.
const (
	kindBarrier int32 = iota
	kindAllReduce
)

// collTag is the tag of a round of a collective of the given kind in
// generation parity gen of the acknowledged fault epoch.
func (f *Front) collTag(kind, gen, round int32) int32 {
	return collTagBase - int32(f.epoch)*256 - kind*128 - gen*64 - round
}

// enter starts a collective: it refreshes the member list and returns the
// collective's generation parity, or ok=false for a member list of one,
// which sends nothing and on a virtual clock is charged one local step
// (Clock.SetStep). The member list is the live membership this rank has
// acknowledged: every rank, unless the kernel is Resilient and a
// SurviveFault moved its epoch, which also restarts the generation count —
// survivors abort a collective at different rounds, so their parities may
// differ, and the new epoch already fences off the aborted rounds. The
// barrier and AllReduce share the count: every member calls the same
// sequence of them.
func (f *Front) enter() (gen int32, ok bool) {
	if f.mem != nil {
		if alive, epoch := f.mem.Membership(); epoch != f.epoch {
			f.members(alive)
			f.epoch, f.gen = epoch, 0
		}
	}
	if len(f.live) == 1 {
		if c := f.clk; c.virt != nil {
			*c.virt += c.step
		}
		return 0, false
	}
	gen = f.gen & 1
	f.gen++
	return gen, true
}

// Barrier is Proc's barrier.
func (f *Front) Barrier() {
	gen, ok := f.enter()
	if !ok {
		return
	}
	n := int32(len(f.live))
	for dist, round := int32(1), int32(0); dist < n; dist, round = 2*dist, round+1 {
		tag := f.collTag(kindBarrier, gen, round)
		f.k.Send(f.live[(f.idx+dist)%n], tag, nil)
		f.k.Recv(f.live[(f.idx-dist+n)%n], tag)
	}
}

// members sets the member list from a live bitmap (nil: every rank) and
// this rank's index in it.
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
