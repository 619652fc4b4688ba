// Fixtures for the obsdeterminism analyzer: instrument registration that
// breaks the schema-hashed cross-rank merge.
package obsdeterminism

import (
	"obs"
	"pgas"
	"trace"
)

// registerOne is an unconditional, fixed-name registering helper; calling
// it unconditionally is fine, calling it divergently is not.
func registerOne(r *obs.Registry) {
	r.Counter("steals_total", "steal attempts")
}

func rankOf(p pgas.Proc) int { return p.Rank() }

// Positive: registration inside a range over a map — iteration order is
// unspecified, so the schema hash differs run to run.
func badMapRange(r *obs.Registry, names map[string]string) {
	for name, help := range names {
		r.Counter(name, help) // want `range over a map`
	}
}

// Positive: a registering call under map iteration is just as broken.
func badMapCall(r *obs.Registry, m map[string]int) {
	for range m {
		registerOne(r) // want `range over a map`
	}
}

// Positive: only rank 0 gets the instrument; the merge rejects the
// others' snapshots.
func badRankCond(p pgas.Proc, r *obs.Registry) {
	if p.Rank() == 0 {
		r.Counter("root_only", "root bookkeeping") // want `conditional on the process rank`
	}
}

// Positive: the rank arrives through a helper return and the
// registration through a callee.
func badRankCall(p pgas.Proc, r *obs.Registry) {
	me := rankOf(p)
	if me != 0 {
		registerOne(r) // want `conditional on the process rank`
	}
}

// Positive: the instrument name is a function of the arguments, so the
// schema depends on dynamic call history.
func badParamName(r *obs.Registry, kind string) {
	r.Counter("fault_"+kind, "faults by kind") // want `depends on the enclosing function's parameters`
}

// Negative: the idiomatic nil-registry guard is not divergence — every
// rank passes the same registry.
func okNilGuard(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Counter("a_total", "a")
	r.Gauge("b_depth", "b")
}

// Negative: iteration over an array is deterministic.
var opNames = [2]string{"op_get", "op_put"}

func okArrayLoop(r *obs.Registry) {
	for i := 0; i < len(opNames); i++ {
		r.Counter(opNames[i], "per-op count")
	}
}

func okArrayRange(r *obs.Registry) {
	for _, name := range opNames {
		r.Counter(name, "per-op count")
	}
}

// Positive: recorder creation registers the span-kind catalogue's
// aggregates on the registry, so rank-conditional creation diverges the
// schema like any other registration.
func badRecorderRankCond(p pgas.Proc, r *obs.Registry) {
	if p.Rank() == 0 {
		trace.NewRecorder(p.Rank(), 0, r) // want `conditional on the process rank`
	}
}

// Positive: catalogue registration under map iteration reorders the
// schema run to run (one recorder per map entry is wrong regardless).
func badRecorderMapRange(r *obs.Registry, m map[string]int) {
	for range m {
		trace.NewRecorder(0, 0, r) // want `range over a map`
	}
}

// Positive: a helper that creates a registered recorder propagates the
// obligation to its callers.
func makeRecorder(r *obs.Registry) *trace.Recorder { return trace.NewRecorder(0, 0, r) }

func badRecorderViaHelper(p pgas.Proc, r *obs.Registry) {
	if p.Rank() != 0 {
		makeRecorder(r) // want `conditional on the process rank`
	}
}

// Negative: the intended idiom — one unconditional per-rank recorder; the
// rank-derived *arguments* are fine, only rank-derived control flow
// around the call diverges the schema.
func okRecorderPerRank(p pgas.Proc, r *obs.Registry) {
	trace.NewRecorder(p.Rank(), 0, r)
}

// Positive: adopting a series' storage word extends the schema like
// Counter does.
func badWordRankCond(p pgas.Proc, r *obs.Registry) {
	if p.Rank() == 0 {
		r.CounterWord("root_only_total", "root bookkeeping") // want `conditional on the process rank`
	}
}
