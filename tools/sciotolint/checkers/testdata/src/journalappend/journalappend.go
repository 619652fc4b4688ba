// Fixtures for the journalappend analyzer: queue insertions must be
// paired with a work-replay journal append, mirroring the discipline of
// internal/core (journalize before pushPrivate/pushLocked/addRemote).
package journalappend

// queue stands in for core.taskQueue; its methods are the raw primitives.
type queue struct{ n int }

func (q *queue) pushPrivate(wire []byte) bool   { q.n++; return true }
func (q *queue) pushLocked(wire []byte) bool    { q.n++; return true }
func (q *queue) addRemote(p int, w []byte) bool { q.n++; return true }
func (q *queue) popPrivate() ([]byte, bool)     { return nil, false }

// tc stands in for core.TC; its journal has the two witnesses.
type tc struct {
	q  *queue
	jn *journal
}

type journal struct{ b []byte }

func (j *journal) slotBytes(s int) []byte     { return j.b }
func (j *journal) journalize(wire []byte) int { return 0 }

// goodAdd journals before pushing: the canonical insert path.
func (t *tc) goodAdd(wire []byte) {
	t.jn.journalize(wire)
	t.q.pushPrivate(wire)
}

// goodRemote journals before a remote add just the same.
func (t *tc) goodRemote(wire []byte) {
	t.jn.journalize(wire)
	t.q.addRemote(1, wire)
}

// goodReplay re-inserts bytes read back out of the journal — already
// recorded, so slotBytes discharges the obligation.
func (t *tc) goodReplay(s int) {
	t.q.pushLocked(t.jn.slotBytes(s))
}

// goodClosure journals in the outer body and pushes from a literal: the
// obligation is checked at declaration granularity.
func (t *tc) goodClosure(wire []byte) func() {
	t.jn.journalize(wire)
	return func() { t.q.pushPrivate(wire) }
}

// badPush inserts with no journal append anywhere on the path.
func (t *tc) badPush(wire []byte) {
	t.q.pushPrivate(wire) // want `queue mutation pushPrivate in badPush with no journal append`
}

// badRemote loses the descriptor to recovery just the same.
func badRemote(t *tc, wire []byte) {
	t.q.addRemote(2, wire) // want `queue mutation addRemote in badRemote with no journal append`
}

// requeue re-inserts an already-journaled descriptor: its own body is
// exempt, and the obligation propagates to every caller.
//
//scioto:journaled callers pass descriptors that already carry a journal record
func (t *tc) requeue(wire []byte) {
	if !t.q.pushPrivate(wire) {
		t.q.pushLocked(wire)
	}
}

// goodCaller discharges the propagated obligation locally.
func (t *tc) goodCaller(wire []byte) {
	t.jn.journalize(wire)
	t.requeue(wire)
}

// badCaller hits the propagated obligation: calling a journaled-by-caller
// function is itself a queue mutation.
func (t *tc) badCaller(wire []byte) {
	t.requeue(wire) // want `queue mutation requeue in badCaller with no journal append`
}

// bench measures the raw primitives outside the journal discipline.
//
//scioto:journal-exempt raw-queue microbenchmark; no TC, no journal
func bench(q *queue, wire []byte) {
	for i := 0; i < 100; i++ {
		q.pushPrivate(wire)
	}
}

// staleExempt waives an obligation it does not have.
//
//scioto:journal-exempt nothing here actually pushes
func staleExempt(q *queue) bool { // want `stale //scioto:journal-exempt directive on staleExempt`
	_, ok := q.popPrivate()
	return ok
}

// staleJournaled propagates an obligation it does not create.
//
//scioto:journaled no descriptor ever enters a queue here
func staleJournaled(t *tc) { // want `stale //scioto:journaled directive on staleJournaled`
	_ = t.q.n
}

// malformed directives are reported where they stand.
//
//scioto:journaled
func malformedMark(t *tc, wire []byte) { // want `malformed //scioto:journaled directive`
	t.jn.journalize(wire)
	t.q.pushPrivate(wire)
}
