package obs

import (
	"fmt"
	"io"
	"time"

	"scioto/internal/pgas"
)

// Merger reduces congruent per-rank registries into a global Snapshot
// with one all-reduce over the pgas (Proc.AllReduce). A rank's vector is
// its registry's schema fingerprint twice, reduced to the minimum and the
// maximum over the ranks, then its flattened registry words, summed.
//
// Requirements: every rank's registry must be congruent — the same
// instruments registered in the same order, which SPMD instrumentation
// produces naturally. Congruence is verified at every Merge: unless every
// rank's fingerprint is the same, the minimum and the maximum differ, and
// every rank panics rather than summing unrelated counters silently.
type Merger struct {
	p     pgas.Proc
	reg   *Registry
	words int // flattened registry width when the merger was created
}

// NewMerger creates a merger for the registry; it allocates nothing on
// the pgas. Register every instrument before calling it: a later Merge
// with a grown registry panics.
func NewMerger(p pgas.Proc, reg *Registry) *Merger {
	return &Merger{p: p, reg: reg, words: reg.NumWords()}
}

// Merge collectively reduces all ranks' registries and returns the
// rank-wise sum, valid on every rank. Counters, histogram buckets, and
// sums add; gauges add too (a merged gauge reads as the global level,
// e.g. total queued tasks). Must be called by all ranks together.
func (m *Merger) Merge() *Snapshot {
	if w := m.reg.NumWords(); w != m.words {
		panic(fmt.Sprintf("obs: registry grew from %d to %d words since NewMerger; register instruments before creating the merger", m.words, w))
	}
	h := int64(m.reg.SchemaHash())
	vec := m.reg.snapshotWords([]int64{h, h})
	m.p.AllReduce(vec, mergeWords)
	if vec[0] != vec[1] {
		panic(fmt.Sprintf("obs: rank %d's registry schema differs from another rank's; merged registries must register the same instruments in the same order", m.p.Rank()))
	}
	return &Snapshot{reg: m.reg, vals: vec[2:], ranks: m.p.NProcs()}
}

// mergeWords is Merge's reduction: the minimum and the maximum of the
// schema fingerprints, then the sum of the registry words.
func mergeWords(acc, in []int64) {
	acc[0], acc[1] = min(acc[0], in[0]), max(acc[1], in[1])
	pgas.Sum(acc[2:], in[2:])
}

// Snapshot is a merged (or single-rank) view of a registry's values,
// decoupled from the live instruments.
type Snapshot struct {
	reg   *Registry
	vals  []int64
	ranks int
}

// Ranks reports how many ranks were merged.
func (s *Snapshot) Ranks() int { return s.ranks }

// find locates a named instrument's offset in the flattened vector.
func (s *Snapshot) find(name string) (*metric, int, bool) {
	off := 0
	for _, m := range s.reg.snapshotMetrics() {
		if m.name == name {
			return m, off, true
		}
		off += m.words()
	}
	return nil, 0, false
}

// Counter reads a merged counter (0 when absent).
func (s *Snapshot) Counter(name string) int64 {
	if m, off, ok := s.find(name); ok && m.kind == KindCounter {
		return s.vals[off]
	}
	return 0
}

// Gauge reads a merged gauge (0 when absent).
func (s *Snapshot) Gauge(name string) int64 {
	if m, off, ok := s.find(name); ok && m.kind == KindGauge {
		return s.vals[off]
	}
	return 0
}

// HistCount reads a merged histogram's observation count.
func (s *Snapshot) HistCount(name string) int64 {
	if m, off, ok := s.find(name); ok && m.kind == KindHistogram {
		return s.vals[off+HistBuckets]
	}
	return 0
}

// HistSum reads a merged histogram's total observed time.
func (s *Snapshot) HistSum(name string) time.Duration {
	if m, off, ok := s.find(name); ok && m.kind == KindHistogram {
		return time.Duration(s.vals[off+HistBuckets+1])
	}
	return 0
}

// WriteProm renders the merged values in Prometheus text format with a
// scope="merged" label distinguishing them from per-rank series.
func (s *Snapshot) WriteProm(w io.Writer) {
	typeSeen := make(map[string]bool)
	off := 0
	for _, m := range s.reg.snapshotMetrics() {
		base, labels := splitName(m.name)
		if !typeSeen[base] {
			typeSeen[base] = true
			if m.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", base, m.help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", base, m.kind)
		}
		const extra = `scope="merged"`
		switch m.kind {
		case KindCounter, KindGauge:
			fmt.Fprintf(w, "%s %d\n", seriesName(base, labels, extra), s.vals[off])
		case KindHistogram:
			var hs histSnapshot
			copy(hs.buckets[:], s.vals[off:off+HistBuckets])
			hs.count = s.vals[off+HistBuckets]
			hs.sumNS = s.vals[off+HistBuckets+1]
			writeHistSeries(w, base, labels, extra, hs)
		}
		off += m.words()
	}
}
