// Fixtures for the localescape analyzer: p.Local(seg) slices escaping the
// protocol window that makes direct access safe.
package localescape

import "pgas"

type holder struct {
	buf []byte
}

var global []byte

func consume(b []byte) {}

// Storing the slice in a struct field keeps it alive past the window.
func badField(p pgas.Proc, seg pgas.Seg, h *holder) {
	h.buf = p.Local(seg) // want `Local slice stored in field h\.buf`
}

// Resolving a ring once in a constructor, as core's newTaskQueue does, is
// a field store like any other: its one exemption is a justified
// //lint:ignore at that site, not a shape the analyzer lets through.
type queue struct{ ring []byte }

func newQueue(p pgas.Proc, seg pgas.Seg) *queue {
	q := &queue{}
	q.ring = p.Local(seg) // want `Local slice stored in field q\.ring`
	return q
}

// Package variables outlive everything.
func badGlobal(p pgas.Proc, seg pgas.Seg) {
	global = p.Local(seg) // want `Local slice stored in package variable global`
}

// Composite literals smuggle the slice into a longer-lived value.
func badComposite(p pgas.Proc, seg pgas.Seg) holder {
	return holder{buf: p.Local(seg)} // want `Local slice stored in a composite literal`
}

// Returning the slice hands it to a caller outside the window.
func badReturn(p pgas.Proc, seg pgas.Seg) []byte {
	return p.Local(seg) // want `Local slice returned from the function`
}

// A goroutine runs concurrently with remote operations on the segment.
func badGoroutine(p pgas.Proc, seg pgas.Seg) {
	loc := p.Local(seg)
	go func() {
		loc[0] = 1 // want `Local slice loc captured by a goroutine`
	}()
}

func badGoArg(p pgas.Proc, seg pgas.Seg) {
	go consume(p.Local(seg)) // want `Local slice passed to a goroutine`
}

// A Barrier ends the protocol phase; the slice must be re-acquired.
func badBarrier(p pgas.Proc, seg pgas.Seg) {
	loc := p.Local(seg)
	loc[0] = 1
	p.Barrier()
	loc[0] = 2 // want `Local slice loc is used across a Barrier`
}

// Use within one phase, then re-acquire after the barrier: the intended
// idiom.
func good(p pgas.Proc, seg pgas.Seg) {
	loc := p.Local(seg)
	loc[0] = 1
	consume(loc)
	p.Barrier()
	loc2 := p.Local(seg)
	loc2[0] = 2
}

// Immediate indexing without binding never escapes.
func goodInline(p pgas.Proc, seg pgas.Seg, wire []byte) {
	copy(p.Local(seg)[:len(wire)], wire)
	p.Barrier()
	_ = p.Local(seg)[0]
}

// A wrapper transport (the shape of pgas/faulty) implements Local by
// delegation: returning inner.Local there is the implementation, not an
// escape.
type wrapper struct{ inner pgas.Proc }

func (w *wrapper) Local(seg pgas.Seg) []byte {
	return w.inner.Local(seg)
}

// A differently named method returning the slice is still an escape.
func (w *wrapper) grab(seg pgas.Seg) []byte {
	return w.inner.Local(seg) // want `Local slice returned from the function`
}
