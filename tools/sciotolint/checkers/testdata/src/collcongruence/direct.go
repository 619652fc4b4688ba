// Fixtures for the collcongruence analyzer's one-function shapes: a
// collective Proc call and the rank condition around it in the same body.
package collcongruence

import "pgas"

func doRootWork() {}

// A collective directly under `if p.Rank() == 0` deadlocks ranks != 0.
func badBarrier(p pgas.Proc) {
	if p.Rank() == 0 {
		p.Barrier() // want `collective Barrier call is conditional on the process rank`
	}
}

// An all-reduce is a collective like the barrier it subsumes.
func badAllReduce(p pgas.Proc, v []int64) {
	if p.Rank() == 0 {
		p.AllReduce(v, func(acc, in []int64) {}) // want `collective AllReduce call is conditional on the process rank`
	}
}

// Rank-derived variables are tracked through assignment.
func badAllocDerived(p pgas.Proc) {
	me := p.Rank()
	if me != 0 {
		_ = p.AllocWords(4) // want `collective AllocWords call is conditional on the process rank`
	}
}

// The else branch of a rank conditional is just as rank-conditional.
func badElse(p pgas.Proc) {
	if p.Rank() == 0 {
		doRootWork()
	} else {
		_ = p.AllocData(64) // want `collective AllocData call is conditional on the process rank`
	}
}

// Rank switches dispatch different ranks to different arms.
func badSwitch(p pgas.Proc) {
	switch p.Rank() {
	case 0:
		_ = p.AllocLock() // want `collective AllocLock call is conditional on the process rank`
	}
}

// A tagless switch over rank comparisons is the same bug.
func badTaglessSwitch(p pgas.Proc) {
	switch {
	case p.Rank() == 0:
		p.Barrier() // want `collective Barrier call is conditional on the process rank`
	}
}

// A rank-bounded loop executes a different number of collectives per rank.
func badLoop(p pgas.Proc) {
	for i := 0; i < p.Rank(); i++ {
		p.Barrier() // want `collective Barrier call is conditional on the process rank`
	}
}

// World.Run is collective with respect to the launching code.
func badRun(w pgas.World, p pgas.Proc) {
	if p.Rank() == 0 {
		_ = w.Run(func(q pgas.Proc) {}) // want `collective Run call is conditional on the process rank`
	}
}

// Both branches issue the same collective sequence: every rank still
// barriers exactly once, in order. Not a bug.
func goodBalanced(p pgas.Proc) {
	if p.Rank() == 0 {
		doRootWork()
		p.Barrier()
	} else {
		p.Barrier()
	}
}

// Rank-conditional non-collective work followed by an unconditional
// collective is the idiomatic SPMD shape.
func goodUnconditional(p pgas.Proc, seg pgas.Seg) {
	if p.Rank() == 0 {
		p.Put(1, seg, 0, []byte{1})
	}
	p.Barrier()
}

// A branch on a non-rank value is taken identically by all ranks.
func goodNonRankCond(p pgas.Proc, enable bool) {
	if enable {
		p.Barrier()
	}
}

// Defining a function literal under a rank conditional does not execute
// it there; the literal body is analyzed as its own function.
func goodFuncLit(p pgas.Proc) {
	if p.Rank() == 0 {
		_ = func() { p.Barrier() }
	}
}
