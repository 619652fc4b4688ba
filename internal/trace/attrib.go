package trace

import (
	"fmt"
	"sort"
)

// Attribution: given the per-rank dumps of one run, compute where the
// time went — per-resource occupancy fractions for every rank and the
// serialized critical path (the stall segments during which no rank was
// executing a task, blamed to the resource that was occupying the
// machine, the rank carrying it, and the op's peer).
//
// The engine consumes self-describing dumps only: the resources are the
// span kinds of the dumps' own kind tables, ordered by the priority the
// tables give them, and every interval is one closed span record.
//
// A rank can be inside several spans at once (a steal encloses a
// lock-held window encloses a tcp writev). Fractions would then sum
// past 1.0, so the engine projects each rank's overlapping intervals
// onto a single-state timeline: at any instant the rank is attributed
// to exactly one resource — the most specific active one, per the
// priority order — or to idle. Projected fractions per rank are
// disjoint and sum to ≤ 1.0 by construction, and the projection is
// deterministic, so a dsim run reports bit-identically.

// ResourceShare is one resource's projected share of a rank's window.
type ResourceShare struct {
	Resource  string  `json:"resource"`
	Ns        int64   `json:"ns"`
	Fraction  float64 `json:"fraction"`
	Intervals int64   `json:"intervals"`
}

// RankAttrib is one rank's occupancy breakdown. Shares are disjoint
// (single-state projection) and, with IdleFraction, sum to 1.0 up to
// float rounding; the shares alone therefore sum to ≤ 1.0.
type RankAttrib struct {
	Rank         int             `json:"rank"`
	Busy         []ResourceShare `json:"busy"`
	IdleNs       int64           `json:"idle_ns"`
	IdleFraction float64         `json:"idle_fraction"`
	Dropped      int64           `json:"dropped,omitempty"`
}

// Bottleneck is one resource's share of the serialized critical path:
// stall time (no rank executing anywhere) blamed to this resource, the
// rank that carried most of it, and the peer/target detail of that
// rank's longest such interval.
type Bottleneck struct {
	Resource string  `json:"resource"`
	Ns       int64   `json:"ns"`
	Fraction float64 `json:"fraction"` // of the whole window
	Rank     int     `json:"rank"`
	RankNs   int64   `json:"rank_ns"`
	Detail   int64   `json:"detail"`
}

// AttribReport is the attribution engine's output for one time window.
type AttribReport struct {
	WindowStartNs int64 `json:"window_start_ns"`
	WindowEndNs   int64 `json:"window_end_ns"`

	// ExecNs: window time during which at least one rank executed a
	// task. StallNs is the complement — the serialized critical path —
	// of which IdleNs is the part where every rank was idle (no resource
	// to blame: scheduling gaps, recorder blind spots).
	ExecNs  int64 `json:"exec_ns"`
	StallNs int64 `json:"stall_ns"`
	IdleNs  int64 `json:"idle_ns"`

	Ranks []RankAttrib `json:"ranks"`

	// Bottlenecks, largest first: the stall time carved up by blamed
	// resource. Empty when the ranks never stalled together.
	Bottlenecks []Bottleneck `json:"bottlenecks"`

	// Truncated reports that some dump dropped records, so the
	// attribution under-counts.
	Truncated bool `json:"truncated,omitempty"`
}

// TopBottleneck names the dominant critical-path resource ("" when the
// run never stalled).
func (r *AttribReport) TopBottleneck() string {
	if len(r.Bottlenecks) == 0 {
		return ""
	}
	return r.Bottlenecks[0].Resource
}

// seg is one single-state stretch of a rank's projected timeline.
type seg struct {
	start, end int64
	prio       int // index into the priority table; -1 = idle
}

// interval is one clipped occupancy window awaiting projection.
type interval struct {
	start, end int64
	prio       int
	detail     int64
}

// Attribute computes the attribution report for [t0, t1) nanoseconds.
// A t1 ≤ t0 window means "the whole run": the hull of every record
// across the dumps.
func Attribute(dumps []*Dump, t0, t1 int64) (*AttribReport, error) {
	if len(dumps) == 0 {
		return nil, fmt.Errorf("trace: attribute: no dumps")
	}
	ordered := make([]*Dump, len(dumps))
	copy(ordered, dumps)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Rank < ordered[j].Rank })

	prio := priorityTable(ordered)
	if t1 <= t0 {
		t0, t1 = hull(ordered)
	}
	rep := &AttribReport{WindowStartNs: t0, WindowEndNs: t1}
	window := t1 - t0
	if window <= 0 {
		return rep, nil
	}

	timelines := make([][]seg, len(ordered))
	intervalsByRank := make([][]interval, len(ordered))
	for i, d := range ordered {
		iv := rankIntervals(d, prio, t0, t1)
		intervalsByRank[i] = iv
		busy, tl := project(iv, t0, t1, len(prio.names))
		timelines[i] = tl

		ra := RankAttrib{Rank: d.Rank, Dropped: d.Dropped}
		var busyTotal int64
		counts := make([]int64, len(prio.names))
		for _, v := range iv {
			counts[v.prio]++
		}
		for p, ns := range busy {
			if ns == 0 {
				continue
			}
			busyTotal += ns
			ra.Busy = append(ra.Busy, ResourceShare{
				Resource:  prio.names[p],
				Ns:        ns,
				Fraction:  frac(ns, window),
				Intervals: counts[p],
			})
		}
		ra.IdleNs = window - busyTotal
		ra.IdleFraction = frac(ra.IdleNs, window)
		rep.Ranks = append(rep.Ranks, ra)
		if d.Dropped > 0 {
			rep.Truncated = true
		}
	}

	rep.blameStalls(timelines, intervalsByRank, prio, t0, t1)
	return rep, nil
}

// blameStalls walks the merged single-state timelines and carves the
// stall time (no rank in the useful-work resource) into per-resource
// blame.
func (r *AttribReport) blameStalls(timelines [][]seg, ivs [][]interval, prio *prioTable, t0, t1 int64) {
	window := t1 - t0
	cuts := make([]int64, 0, 64)
	cuts = append(cuts, t0, t1)
	for _, tl := range timelines {
		for _, s := range tl {
			cuts = append(cuts, s.start, s.end)
		}
	}
	cuts = dedupSorted(cuts)

	nRanks := len(timelines)
	pos := make([]int, nRanks) // per-rank cursor into its timeline
	blame := make([]int64, len(prio.names))
	blameRank := make([][]int64, len(prio.names))
	for p := range blameRank {
		blameRank[p] = make([]int64, nRanks)
	}

	for c := 0; c+1 < len(cuts); c++ {
		lo, hi := cuts[c], cuts[c+1]
		if hi <= lo || hi <= t0 || lo >= t1 {
			continue
		}
		anyExec := false
		best := -1     // most specific active priority across ranks
		bestRank := -1 // lowest rank in that state
		for i, tl := range timelines {
			for pos[i] < len(tl) && tl[pos[i]].end <= lo {
				pos[i]++
			}
			if pos[i] >= len(tl) {
				continue
			}
			s := tl[pos[i]]
			if s.start > lo {
				continue // rank idle over this cut
			}
			if s.prio == prio.exec {
				anyExec = true
				break
			}
			if s.prio >= 0 && (best < 0 || s.prio < best) {
				best = s.prio
				bestRank = i
			}
		}
		d := hi - lo
		if anyExec {
			r.ExecNs += d
			continue
		}
		r.StallNs += d
		if best < 0 {
			r.IdleNs += d
			continue
		}
		blame[best] += d
		blameRank[best][bestRank] += d
	}

	for p, ns := range blame {
		if ns == 0 {
			continue
		}
		// Blamed rank: the one carrying the most stall on this resource
		// (ties to the lowest rank, so the report is deterministic).
		rank, rankNs := 0, int64(-1)
		for i, v := range blameRank[p] {
			if v > rankNs {
				rank, rankNs = i, v
			}
		}
		r.Bottlenecks = append(r.Bottlenecks, Bottleneck{
			Resource: prio.names[p],
			Ns:       ns,
			Fraction: frac(ns, window),
			Rank:     r.Ranks[rank].Rank,
			RankNs:   rankNs,
			Detail:   longestDetail(ivs[rank], p),
		})
	}
	sort.SliceStable(r.Bottlenecks, func(i, j int) bool {
		if r.Bottlenecks[i].Ns != r.Bottlenecks[j].Ns {
			return r.Bottlenecks[i].Ns > r.Bottlenecks[j].Ns
		}
		return prio.index[r.Bottlenecks[i].Resource] < prio.index[r.Bottlenecks[j].Resource]
	})
}

// longestDetail returns the detail word of the longest (earliest on
// ties) interval of priority p — the representative op for the blame.
func longestDetail(iv []interval, p int) int64 {
	var best interval
	bestLen := int64(-1)
	for _, v := range iv {
		if v.prio != p {
			continue
		}
		l := v.end - v.start
		if l > bestLen || (l == bestLen && v.start < best.start) {
			best, bestLen = v, l
		}
	}
	return best.detail
}

// prioTable is the run's resource list: the span kinds of every dump's
// kind table, most specific first, keyed by name so dumps need not agree
// on kind numbering.
type prioTable struct {
	names []string
	index map[string]int
	exec  int // position of the useful-work (priority 1) resource, -1 if none
}

// priorityTable orders the dumps' span kinds by (priority, name); the
// first dump to name a resource decides its priority.
func priorityTable(dumps []*Dump) *prioTable {
	t := &prioTable{index: make(map[string]int), exec: -1}
	prio := make(map[string]int)
	for _, d := range dumps {
		for _, k := range d.Kinds {
			if _, seen := prio[k.Name]; k.Prio > 0 && !seen {
				prio[k.Name] = k.Prio
				t.names = append(t.names, k.Name)
			}
		}
	}
	sort.Slice(t.names, func(i, j int) bool {
		if pi, pj := prio[t.names[i]], prio[t.names[j]]; pi != pj {
			return pi < pj
		}
		return t.names[i] < t.names[j]
	})
	for i, n := range t.names {
		t.index[n] = i
	}
	if len(t.names) > 0 && prio[t.names[0]] == 1 {
		t.exec = 0
	}
	return t
}

// rankIntervals collects one dump's span records, clipped to [t0, t1)
// and mapped to projection priorities; a span's detail is its a1.
func rankIntervals(d *Dump, prio *prioTable, t0, t1 int64) []interval {
	var out []interval
	for _, q := range d.Records {
		k := d.Kinds[q[0]]
		start, end := max(q[1], t0), min(q[2], t1)
		if k.Prio > 0 && end > start {
			out = append(out, interval{start: start, end: end, prio: prio.index[k.Name], detail: q[3]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.start != b.start:
			return a.start < b.start
		case a.end != b.end:
			return a.end < b.end
		case a.prio != b.prio:
			return a.prio < b.prio
		}
		return a.detail < b.detail
	})
	return out
}

// project collapses a rank's overlapping intervals onto a single-state
// timeline: per elementary segment the most specific (lowest-priority-
// index) active resource wins. Returns per-priority busy time and the
// merged timeline (idle gaps omitted).
func project(iv []interval, t0, t1 int64, nPrio int) ([]int64, []seg) {
	busy := make([]int64, nPrio)
	if len(iv) == 0 {
		return busy, nil
	}
	cuts := make([]int64, 0, 2*len(iv))
	for _, v := range iv {
		cuts = append(cuts, v.start, v.end)
	}
	cuts = dedupSorted(cuts)

	// Event sweep: iv is sorted by start; ends is the same set sorted by
	// end. Per cut, open the intervals starting there and close the ones
	// ending there, keeping a per-priority active count — O((n+cuts)·P)
	// instead of rescanning the interval list per segment.
	ends := make([]interval, len(iv))
	copy(ends, iv)
	sort.SliceStable(ends, func(i, j int) bool { return ends[i].end < ends[j].end })
	active := make([]int, nPrio)
	si, ei := 0, 0

	var tl []seg
	for c := 0; c+1 < len(cuts); c++ {
		lo, hi := cuts[c], cuts[c+1]
		for si < len(iv) && iv[si].start <= lo {
			active[iv[si].prio]++
			si++
		}
		for ei < len(ends) && ends[ei].end <= lo {
			active[ends[ei].prio]--
			ei++
		}
		best := -1
		for p := 0; p < nPrio; p++ {
			if active[p] > 0 {
				best = p
				break
			}
		}
		if best < 0 {
			continue
		}
		busy[best] += hi - lo
		if n := len(tl); n > 0 && tl[n-1].end == lo && tl[n-1].prio == best {
			tl[n-1].end = hi
		} else {
			tl = append(tl, seg{start: lo, end: hi, prio: best})
		}
	}
	return busy, tl
}

// hull returns the [min, max) time hull over every record.
func hull(dumps []*Dump) (int64, int64) {
	lo, hi := int64(1<<62), int64(-1<<62)
	for _, d := range dumps {
		for _, q := range d.Records {
			lo, hi = min(lo, q[1]), max(hi, q[2])
		}
	}
	if hi < lo {
		return 0, 0
	}
	return lo, hi
}

// dedupSorted sorts and deduplicates a cut list in place.
func dedupSorted(cuts []int64) []int64 {
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	n := 0
	for i, v := range cuts {
		if i == 0 || v != cuts[n-1] {
			cuts[n] = v
			n++
		}
	}
	return cuts[:n]
}

func frac(ns, window int64) float64 {
	if window <= 0 {
		return 0
	}
	return float64(ns) / float64(window)
}

// OccTimeline is a bucketed per-rank, per-resource busy-time series for
// the report server's occupancy view: Busy[resource][bucket] is the
// projected busy ns of that resource inside the bucket.
type OccTimeline struct {
	WindowStartNs int64          `json:"window_start_ns"`
	WindowEndNs   int64          `json:"window_end_ns"`
	BucketNs      int64          `json:"bucket_ns"`
	Resources     []string       `json:"resources"`
	Ranks         []RankTimeline `json:"ranks"`
}

// RankTimeline is one rank's bucketed occupancy series.
type RankTimeline struct {
	Rank int       `json:"rank"`
	Busy [][]int64 `json:"busy"`
}

// OccupancyTimeline buckets every rank's projected single-state
// timeline into `buckets` equal windows over the run hull.
func OccupancyTimeline(dumps []*Dump, buckets int) *OccTimeline {
	if buckets <= 0 {
		buckets = 100
	}
	ordered := make([]*Dump, len(dumps))
	copy(ordered, dumps)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Rank < ordered[j].Rank })
	prio := priorityTable(ordered)
	t0, t1 := hull(ordered)
	out := &OccTimeline{WindowStartNs: t0, WindowEndNs: t1, Resources: prio.names}
	if t1 <= t0 {
		return out
	}
	out.BucketNs = (t1 - t0 + int64(buckets) - 1) / int64(buckets)
	for _, d := range ordered {
		iv := rankIntervals(d, prio, t0, t1)
		_, tl := project(iv, t0, t1, len(prio.names))
		busy := make([][]int64, len(prio.names))
		for p := range busy {
			busy[p] = make([]int64, buckets)
		}
		for _, s := range tl {
			for cur := s.start; cur < s.end; {
				b := (cur - t0) / out.BucketNs
				if b >= int64(buckets) {
					b = int64(buckets) - 1
				}
				bEnd := t0 + (b+1)*out.BucketNs
				hi := s.end
				if bEnd < hi {
					hi = bEnd
				}
				busy[s.prio][b] += hi - cur
				cur = hi
			}
		}
		out.Ranks = append(out.Ranks, RankTimeline{Rank: d.Rank, Busy: busy})
	}
	return out
}
