// Fixtures for a collective passed as a method value: the call it is
// passed to runs it, so it is a direct collective of that call.
package collcongruence

import "pgas"

// runCollective runs f, a collective, the way a task collection wraps its
// barriers for recovery.
func runCollective(f func()) { f() }

// Passing the Barrier under a rank test deadlocks ranks != 0 as surely as
// calling it there.
func badMethodValue(p pgas.Proc) {
	if p.Rank() == 0 {
		runCollective(p.Barrier) // want `collective Barrier call is conditional on the process rank`
	}
}

// barrierVia reaches a collective only through the method value it passes.
func barrierVia(p pgas.Proc) {
	runCollective(p.Barrier)
}

// The method value makes its passer collective for the callers above it.
func badMethodValueCallee(p pgas.Proc) {
	if p.Rank() == 0 {
		barrierVia(p) // want `call to barrierVia, which transitively executes collective operations`
	}
}

// Both arms barrier once, one through a method value: congruent.
func goodMethodValueBalanced(p pgas.Proc) {
	if p.Rank() == 0 {
		runCollective(p.Barrier)
	} else {
		p.Barrier()
	}
}

// A non-collective method value under a rank test is harmless.
func goodMethodValueLocal(p pgas.Proc) {
	if p.Rank() == 0 {
		runCollective(p.Flush)
	}
}
