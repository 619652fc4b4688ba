// Fixtures for the relaxedword analyzer: relaxed atomic access to
// metadata words that remote processes write. The constant names mirror
// the queue word layout of internal/core/queue.go.
package relaxedword

import "pgas"

const (
	wBottom = 0 // locked queue's steal end: advanced by thieves, decremented by remote adders
	wShared = 1 // split queue's packed word: claimed from by thieves, added to by remote adders
	wTop    = 2 // owner-written
	wDirty  = 3 // incremented by thieves
)

// Relaxed stores to remotely-written words can lose concurrent remote
// updates; this reproduces the wDirty violation class.
func badStores(p pgas.Proc, meta pgas.Seg) {
	p.RelaxedStore64(meta, wBottom, 1) // want `relaxed store to wBottom, a word remote processes write`
	p.RelaxedStore64(meta, wShared, 1) // want `relaxed store to wShared, a word remote processes write`
	p.RelaxedStore64(meta, wDirty, 1)  // want `relaxed store to wDirty, a word remote processes write`
}

// Relaxed loads of remotely-written words yield stale values.
func badLoads(p pgas.Proc, meta pgas.Seg) int64 {
	a := p.RelaxedLoad64(meta, wBottom) // want `relaxed load of wBottom, a word remote processes write`
	b := p.RelaxedLoad64(meta, wDirty)  // want `relaxed load of wDirty, a word remote processes write`
	c := p.RelaxedLoad64(meta, wShared) // want `relaxed load of wShared, a word remote processes write`
	return a + b + c
}

// Owner-private words are exactly what the relaxed operations are for.
func goodOwnerWords(p pgas.Proc, meta pgas.Seg) int64 {
	p.RelaxedStore64(meta, wTop, 7)
	return p.RelaxedLoad64(meta, wTop)
}

// The owner's word slice outside package pgas reaches wShared unseen.
func badLocalWords(p pgas.Proc, meta pgas.Seg) int64 {
	return p.LocalWords(meta)[wShared] // want `LocalWords outside package pgas`
}

// Ordered operations on remotely-written words are always legal.
func goodOrdered(p pgas.Proc, meta pgas.Seg) int64 {
	p.Store64(p.Rank(), meta, wBottom, 0)
	return p.Load64(p.Rank(), meta, wDirty)
}
