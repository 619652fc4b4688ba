// Fixtures for the collcongruence analyzer: collectives reached under
// rank-dependent control flow through the interprocedural call graph
// (direct.go, tcp.go and ipc.go hold the one-function shapes).
package collcongruence

import "pgas"

// rankOf launders the rank through a helper return.
func rankOf(p pgas.Proc) int { return p.Rank() }

// barrierDeep reaches a collective two calls down.
func barrierDeep(p pgas.Proc) { drain(p) }
func drain(p pgas.Proc)       { p.Flush(); p.Barrier() }

// Positive: a call chain reaching a Barrier under a direct rank condition.
func callUnderRankCond(p pgas.Proc) {
	if p.Rank() == 0 {
		barrierDeep(p) // want `transitively executes collective operations`
	}
}

// Positive: the rank arrives through a helper return, which no
// one-function view of the condition could see.
func taintedLocal(p pgas.Proc) {
	me := rankOf(p)
	if me == 0 {
		p.Barrier() // want `collective Barrier call is conditional on the process rank`
	}
}

// Positive: the rank flows into a parameter; inside helper the condition
// looks rank-unrelated.
func passesRank(p pgas.Proc) {
	helper(p, p.Rank())
}

func helper(p pgas.Proc, r int) {
	if r == 0 {
		p.AllocWords(1) // want `collective AllocWords call is conditional on the process rank`
	}
}

// Wrapper shape (instr/faulty style): a concrete type delegating to an
// inner pgas.Proc. The analyzer must see through the wrapper method.
type wrapProc struct{ inner pgas.Proc }

func (w *wrapProc) Barrier() { w.inner.Barrier() }

func callsWrapper(p pgas.Proc, w *wrapProc) {
	if p.Rank() == 0 {
		w.Barrier() // want `transitively executes collective operations`
	}
}

// Negative: every rank takes the same collective sequence — balanced
// across the call graph even though the arms differ syntactically.
func flushAndBarrier(p pgas.Proc) { p.Flush(); p.Barrier() }

func balancedArms(p pgas.Proc) {
	me := rankOf(p)
	if me == 0 {
		flushAndBarrier(p)
	} else {
		p.Barrier()
	}
}

// Negative: rank-conditional code with no collective anywhere below.
func rankNoCollective(p pgas.Proc) {
	if p.Rank() == 0 {
		println("root")
	}
}

// Negative: unconditional call chain to a collective.
func unconditional(p pgas.Proc) {
	barrierDeep(p)
}

// Negative: a literal defined under a rank condition is its own function;
// defining it runs nothing (it may be a task body executed collectively
// elsewhere).
func definesLit(p pgas.Proc) {
	me := rankOf(p)
	if me == 0 {
		body := func() { p.Barrier() }
		_ = body
	}
}
