// Fixtures for a rank cached in a struct field, the way a runtime keeps
// its process's rank: a read of that field, or a method returning it, is
// rank-derived like the Rank call it was stored from.
package collcongruence

import "pgas"

type cachedRuntime struct {
	p    pgas.Proc
	rank int
	on   bool
}

func attachCached(p pgas.Proc) *cachedRuntime {
	rt := &cachedRuntime{p: p}
	rt.rank = p.Rank()
	return rt
}

func (rt *cachedRuntime) Rank() int { return rt.rank }

// A task collection's collective wrapper under its runtime's rank: the
// barrier is passed as a method value and the rank read through a method.
func badCachedRankMethodValue(rt *cachedRuntime) {
	if rt.Rank() == 0 {
		runCollective(rt.p.Barrier) // want `collective Barrier call is conditional on the process rank`
	}
}

// The field itself, read directly.
func badCachedRankField(rt *cachedRuntime) {
	if rt.rank != 0 {
		rt.p.Barrier() // want `collective Barrier call is conditional on the process rank`
	}
}

type leaderInfo struct {
	me int
}

// A rank stored through a composite literal key is cached the same way.
func badCachedRankLiteral(p pgas.Proc) {
	li := leaderInfo{me: p.Rank()}
	if li.me == 0 {
		_ = p.AllocWords(1) // want `collective AllocWords call is conditional on the process rank`
	}
}

// Another field of a struct that caches the rank is not rank-derived:
// every rank reads the same flag.
func goodOtherField(rt *cachedRuntime) {
	if rt.on {
		rt.p.Barrier()
	}
}
