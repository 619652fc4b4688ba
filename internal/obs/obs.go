// Package obs is the Scioto runtime's per-rank metrics layer: counters,
// gauges, and log-bucketed latency histograms, collected into a Registry
// per rank, rendered in Prometheus text format, and mergeable across ranks
// with one all-reduce (Proc.AllReduce, as the task collection's
// GlobalStats reduction).
//
// Design constraints, in order:
//
//  1. Off means free. Instruments follow the trace.Recorder nil-object
//     pattern: every method is safe — and a no-op — on a nil receiver, so
//     instrumented code records unconditionally and a disabled run pays
//     one predictable branch per site, no allocations, no atomics.
//  2. Live reads are safe. A rank's goroutine writes its instruments while
//     the introspection HTTP endpoint reads them; all instrument state is
//     atomic, so scrapes never block or tear the hot path.
//  3. Cross-rank mergeable. A Registry flattens to a fixed vector of int64
//     words in registration order; congruent registries (same instruments,
//     same order — the natural product of SPMD registration) are summed
//     rank-wise by Merger's all-reduce, on any transport, including tcp
//     where each rank's registry lives in a separate OS process.
package obs

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an instrument.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind in Prometheus TYPE vocabulary.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Counter is a monotonically increasing count. The zero value is ready to
// use; a nil *Counter is a valid disabled instrument.
type Counter struct{ v atomic.Int64 }

// Inc adds one. Safe on nil.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Safe on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the count. Safe on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (queue depth, in-flight operations).
// A nil *Gauge is a valid disabled instrument.
type Gauge struct{ v atomic.Int64 }

// Set stores the level. Safe on nil.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the level by delta. Safe on nil.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value reads the level. Safe on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket layout: bucket i counts observations with
// d <= 2^(histMinShift+i) nanoseconds; the last bucket is the +Inf
// overflow. The span 128ns .. ~8.6s covers everything from a local
// queue operation to a stalled tcp deadline.
const (
	histMinShift = 7  // smallest finite upper bound: 2^7 ns = 128ns
	HistBuckets  = 27 // 26 finite bounds (128ns .. 2^32 ns ≈ 4.3s) + overflow
)

// Histogram is a log2-bucketed latency distribution. Durations are
// recorded in nanoseconds; rendering converts bounds to seconds. A nil
// *Histogram is a valid disabled instrument.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(ns int64) int {
	if ns <= 1<<histMinShift {
		return 0
	}
	idx := bits.Len64(uint64(ns-1)) - histMinShift // ceil(log2(ns)) - minShift
	if idx >= HistBuckets {
		return HistBuckets - 1
	}
	return idx
}

// BucketBound returns the inclusive upper bound of bucket i in seconds,
// or +Inf for the overflow bucket.
func BucketBound(i int) float64 {
	if i >= HistBuckets-1 {
		return math.Inf(1)
	}
	return float64(int64(1)<<(histMinShift+i)) / 1e9
}

// Observe records one duration. Safe on nil.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Count reports the number of observations. Safe on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the total observed time. Safe on nil.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// histWords is the flattened width of a histogram: buckets + count + sum.
const histWords = HistBuckets + 2

// metric is one registered instrument. Exactly one of c/g/h is live,
// selected by kind; they are embedded by value so registration is one
// allocation per instrument.
type metric struct {
	name string // full series name, optionally with a fixed label set: `base{k="v"}`
	help string
	kind Kind
	c    Counter
	g    Gauge
	h    Histogram
}

// words reports the metric's flattened width.
func (m *metric) words() int {
	if m.kind == KindHistogram {
		return histWords
	}
	return 1
}

// Registry holds one rank's instruments in registration order. Lookup
// methods are idempotent: requesting an existing name returns the same
// instrument, so congruent SPMD code paths (and repeated task collections)
// share series instead of colliding.
//
// Registration takes a lock; recording does not (instruments are atomic).
// A nil *Registry is a valid disabled registry: every lookup returns a nil
// instrument, which is itself a valid disabled instrument.
type Registry struct {
	rank int

	mu     sync.Mutex
	byName map[string]*metric
	order  []*metric
}

// NewRegistry creates an empty registry for the given rank.
func NewRegistry(rank int) *Registry {
	return &Registry{rank: rank, byName: make(map[string]*metric)}
}

// Rank reports the rank the registry belongs to (-1 on nil).
func (r *Registry) Rank() int {
	if r == nil {
		return -1
	}
	return r.rank
}

// lookup finds or creates the named instrument.
func (r *Registry) lookup(name, help string, kind Kind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: %q re-registered as %v (was %v)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	r.byName[name] = m
	r.order = append(r.order, m)
	return m
}

// Counter finds or creates a counter. Safe on a nil registry (returns a
// nil, disabled counter).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return &r.lookup(name, help, KindCounter).c
}

// CounterWord finds or creates a counter and returns its storage word,
// for a recorder below this package whose aggregates are the series
// themselves (trace.Exporter). A nil registry hands out a private word.
func (r *Registry) CounterWord(name, help string) *atomic.Int64 {
	if r == nil {
		return new(atomic.Int64)
	}
	return &r.lookup(name, help, KindCounter).c.v
}

// Gauge finds or creates a gauge. Safe on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return &r.lookup(name, help, KindGauge).g
}

// Histogram finds or creates a histogram. Safe on a nil registry.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return &r.lookup(name, help, KindHistogram).h
}

// snapshotMetrics returns the instrument list under the lock, for
// iteration without holding it.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, len(r.order))
	copy(out, r.order)
	return out
}

// NumWords reports the registry's flattened width in int64 words.
func (r *Registry) NumWords() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, m := range r.snapshotMetrics() {
		n += m.words()
	}
	return n
}

// SchemaHash fingerprints the registry's shape (names and kinds in
// registration order). Merger reduces it to its minimum and maximum over
// the ranks, next to the summed word vectors, to verify cross-rank
// congruence.
func (r *Registry) SchemaHash() uint64 {
	h := fnv.New64a()
	if r == nil {
		return h.Sum64()
	}
	for _, m := range r.snapshotMetrics() {
		h.Write([]byte(m.name))
		h.Write([]byte{byte(m.kind)})
	}
	return h.Sum64()
}

// snapshotWords appends the registry's current values, flattened in
// registration order, to dst and returns the extended slice. Histograms
// flatten as buckets..., count, sum.
func (r *Registry) snapshotWords(dst []int64) []int64 {
	if r == nil {
		return dst
	}
	for _, m := range r.snapshotMetrics() {
		switch m.kind {
		case KindCounter:
			dst = append(dst, m.c.Value())
		case KindGauge:
			dst = append(dst, m.g.Value())
		case KindHistogram:
			for i := range m.h.buckets {
				dst = append(dst, m.h.buckets[i].Load())
			}
			dst = append(dst, m.h.count.Load(), m.h.sum.Load())
		}
	}
	return dst
}

// Names returns the registered series names in registration order
// (diagnostic; used by tests).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	ms := r.snapshotMetrics()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.name
	}
	return out
}

// sortedRanks returns the keys of a rank-indexed map in ascending order.
func sortedRanks[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}
