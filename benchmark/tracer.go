package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"scioto/internal/pgas"
)

// The traced run records from the benchmark's side of each layer
// boundary: spans around the calls the benchmark makes into core, scf, ga
// and serve, and — through tracedProc — every pgas operation core and ga
// issue underneath. Nothing inside the program is instrumented.

// opKind groups pgas.Proc methods into the kinds the ledger reports.
type opKind int

const (
	kGet opKind = iota
	kPut
	kAcc
	kAtomic
	kLock
	kBarrier
	kFlush
	kMsg
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "acc", "atomic", "lock", "barrier", "flush", "msg"}

// sampleEvery is the per-op latency sampling period: every op is counted,
// one in sampleEvery is timed, so the wrapper does not become the
// workload (a clock read costs as much as a local queue operation).
const sampleEvery = 64

// maxSpans bounds the spans one rank keeps; totals stay exact beyond it.
const maxSpans = 1 << 17

// opAgg is one op kind's exact count and sampled latency.
type opAgg struct {
	N         int64 `json:"n"`
	Sampled   int64 `json:"sampled"`
	SampledNs int64 `json:"sampled_ns"`
	Bytes     int64 `json:"bytes,omitempty"`
}

// estNs extrapolates the sampled latency to every op of the kind.
func (a opAgg) estNs() float64 {
	if a.Sampled == 0 {
		return 0
	}
	return float64(a.SampledNs) / float64(a.Sampled) * float64(a.N)
}

// span is one recorded interval on one rank.
type span struct {
	Name    string  `json:"name"`
	Round   int     `json:"round"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Parent  int     `json:"parent"` // index into the rank's spans, -1 at top level
}

// spanTotal accumulates every span of one name, kept or dropped.
type spanTotal struct {
	N       int64              `json:"n"`
	TotalNs int64              `json:"total_ns"`
	ChildNs int64              `json:"child_ns"` // time covered by direct child spans
	Ops     [numKinds]opAgg    `json:"ops"`      // pgas ops issued while this was the innermost span
	Extra   map[string]float64 `json:"extra_ns,omitempty"`
}

type openSpan struct {
	name  string
	start time.Duration
	idx   int // index in Spans, -1 when dropped
}

// recorder is one rank's trace. It belongs to the rank's goroutine, like
// the pgas.Proc whose clock it reads.
type recorder struct {
	Rank    int                   `json:"rank"`
	Client  bool                  `json:"client,omitempty"` // a load-generator goroutine, not a rank: spans only
	RootNs  int64                 `json:"root_ns"`          // time covered by top-level spans: this rank's window
	Spans   []span                `json:"spans"`
	Dropped int                   `json:"dropped_spans"`
	Totals  map[string]*spanTotal `json:"totals"`
	TryLock [2]int64              `json:"trylock"` // attempts, failures

	now   func() time.Duration
	open  []openSpan
	cur   *spanTotal
	tick  uint32
	round int
}

// outside collects the ops a rank issues while no span is open.
const outside = "(outside window)"

func newRecorder(rank int, now func() time.Duration) *recorder {
	r := &recorder{Rank: rank, now: now, Totals: map[string]*spanTotal{}}
	r.cur = r.total(outside)
	return r
}

func (r *recorder) total(name string) *spanTotal {
	t := r.Totals[name]
	if t == nil {
		t = &spanTotal{}
		r.Totals[name] = t
	}
	return t
}

// begin opens a span; every begin is closed by end in LIFO order.
func (r *recorder) begin(name string) {
	o := openSpan{name: name, start: r.now(), idx: -1}
	if len(r.Spans) < maxSpans {
		parent := -1
		if n := len(r.open); n > 0 {
			parent = r.open[n-1].idx
		}
		o.idx = len(r.Spans)
		r.Spans = append(r.Spans, span{Name: name, Round: r.round, StartUs: float64(o.start) / 1e3, Parent: parent})
	} else {
		r.Dropped++
	}
	r.open = append(r.open, o)
	r.cur = r.total(name)
}

func (r *recorder) end() {
	n := len(r.open) - 1
	o := r.open[n]
	r.open = r.open[:n]
	t := r.now()
	d := int64(t - o.start)
	tot := r.total(o.name)
	tot.N++
	tot.TotalNs += d
	if o.idx >= 0 {
		r.Spans[o.idx].EndUs = float64(t) / 1e3
	}
	if n > 0 {
		r.cur = r.total(r.open[n-1].name)
		r.cur.ChildNs += d
	} else {
		r.cur = r.total(outside)
		r.RootNs += d
	}
}

// span runs fn inside a span.
func (r *recorder) span(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	r.begin(name)
	fn()
	r.end()
}

// attribute books ns of estimated time (task callbacks, which only core
// can time exactly) as a child of the named span.
func (r *recorder) attribute(parent, child string, ns float64) {
	t := r.total(parent)
	if t.Extra == nil {
		t.Extra = map[string]float64{}
	}
	t.Extra[child] += ns
}

// opBegin counts one op and decides whether to time it. Barriers are
// always timed: they are rare and their wait is the idle time of a phase.
func (r *recorder) opBegin(k opKind, bytes int) (*opAgg, time.Duration) {
	a := &r.cur.Ops[k]
	a.N++
	a.Bytes += int64(bytes)
	r.tick++
	if r.tick%sampleEvery == 0 || k == kBarrier {
		return a, r.now() + 1 // +1 keeps 0 free to mean "not sampled"
	}
	return a, 0
}

func (r *recorder) opEnd(a *opAgg, t0 time.Duration) {
	if t0 != 0 {
		a.Sampled++
		a.SampledNs += int64(r.now() - (t0 - 1))
	}
}

// tracedProc wraps a rank's pgas.Proc: the embedded interface forwards
// what core's owner-side fast paths use (relaxed words, Local, the clock)
// untouched, and the overrides below count and sample every operation
// that can leave the rank.
type tracedProc struct {
	pgas.Proc
	r *recorder
}

func (t *tracedProc) Barrier() {
	a, t0 := t.r.opBegin(kBarrier, 0)
	t.Proc.Barrier()
	t.r.opEnd(a, t0)
}

func (t *tracedProc) Get(dst []byte, proc int, seg pgas.Seg, off int) {
	a, t0 := t.r.opBegin(kGet, len(dst))
	t.Proc.Get(dst, proc, seg, off)
	t.r.opEnd(a, t0)
}

func (t *tracedProc) Put(proc int, seg pgas.Seg, off int, src []byte) {
	a, t0 := t.r.opBegin(kPut, len(src))
	t.Proc.Put(proc, seg, off, src)
	t.r.opEnd(a, t0)
}

func (t *tracedProc) AccF64(proc int, seg pgas.Seg, off int, vals []float64) {
	a, t0 := t.r.opBegin(kAcc, 8*len(vals))
	t.Proc.AccF64(proc, seg, off, vals)
	t.r.opEnd(a, t0)
}

func (t *tracedProc) Load64(proc int, seg pgas.Seg, idx int) int64 {
	a, t0 := t.r.opBegin(kAtomic, 0)
	v := t.Proc.Load64(proc, seg, idx)
	t.r.opEnd(a, t0)
	return v
}

func (t *tracedProc) Store64(proc int, seg pgas.Seg, idx int, val int64) {
	a, t0 := t.r.opBegin(kAtomic, 0)
	t.Proc.Store64(proc, seg, idx, val)
	t.r.opEnd(a, t0)
}

func (t *tracedProc) FetchAdd64(proc int, seg pgas.Seg, idx int, delta int64) int64 {
	a, t0 := t.r.opBegin(kAtomic, 0)
	v := t.Proc.FetchAdd64(proc, seg, idx, delta)
	t.r.opEnd(a, t0)
	return v
}

func (t *tracedProc) CAS64(proc int, seg pgas.Seg, idx int, old, new int64) bool {
	a, t0 := t.r.opBegin(kAtomic, 0)
	ok := t.Proc.CAS64(proc, seg, idx, old, new)
	t.r.opEnd(a, t0)
	return ok
}

func (t *tracedProc) NbGet(dst []byte, proc int, seg pgas.Seg, off int) pgas.Nb {
	a, t0 := t.r.opBegin(kGet, len(dst))
	h := t.Proc.NbGet(dst, proc, seg, off)
	t.r.opEnd(a, t0)
	return h
}

func (t *tracedProc) NbPut(proc int, seg pgas.Seg, off int, src []byte) pgas.Nb {
	a, t0 := t.r.opBegin(kPut, len(src))
	h := t.Proc.NbPut(proc, seg, off, src)
	t.r.opEnd(a, t0)
	return h
}

func (t *tracedProc) NbLoad64(proc int, seg pgas.Seg, idx int, out *int64) pgas.Nb {
	a, t0 := t.r.opBegin(kAtomic, 0)
	h := t.Proc.NbLoad64(proc, seg, idx, out)
	t.r.opEnd(a, t0)
	return h
}

func (t *tracedProc) NbStore64(proc int, seg pgas.Seg, idx int, val int64) pgas.Nb {
	a, t0 := t.r.opBegin(kAtomic, 0)
	h := t.Proc.NbStore64(proc, seg, idx, val)
	t.r.opEnd(a, t0)
	return h
}

func (t *tracedProc) NbFetchAdd64(proc int, seg pgas.Seg, idx int, delta int64, old *int64) pgas.Nb {
	a, t0 := t.r.opBegin(kAtomic, 0)
	h := t.Proc.NbFetchAdd64(proc, seg, idx, delta, old)
	t.r.opEnd(a, t0)
	return h
}

func (t *tracedProc) Wait(h pgas.Nb) {
	a, t0 := t.r.opBegin(kFlush, 0)
	t.Proc.Wait(h)
	t.r.opEnd(a, t0)
}

func (t *tracedProc) Flush() {
	a, t0 := t.r.opBegin(kFlush, 0)
	t.Proc.Flush()
	t.r.opEnd(a, t0)
}

func (t *tracedProc) Lock(proc int, id pgas.LockID) {
	a, t0 := t.r.opBegin(kLock, 0)
	t.Proc.Lock(proc, id)
	t.r.opEnd(a, t0)
}

func (t *tracedProc) TryLock(proc int, id pgas.LockID) bool {
	a, t0 := t.r.opBegin(kLock, 0)
	ok := t.Proc.TryLock(proc, id)
	t.r.opEnd(a, t0)
	t.r.TryLock[0]++
	if !ok {
		t.r.TryLock[1]++
	}
	return ok
}

func (t *tracedProc) Unlock(proc int, id pgas.LockID) {
	a, t0 := t.r.opBegin(kLock, 0)
	t.Proc.Unlock(proc, id)
	t.r.opEnd(a, t0)
}

func (t *tracedProc) Send(to int, tag int32, data []byte) {
	a, t0 := t.r.opBegin(kMsg, len(data))
	t.Proc.Send(to, tag, data)
	t.r.opEnd(a, t0)
}

func (t *tracedProc) Recv(from int, tag int32) ([]byte, int) {
	a, t0 := t.r.opBegin(kMsg, 0)
	data, src := t.Proc.Recv(from, tag)
	t.r.opEnd(a, t0)
	return data, src
}

func (t *tracedProc) TryRecv(from int, tag int32) ([]byte, int, bool) {
	a, t0 := t.r.opBegin(kMsg, 0)
	data, src, ok := t.Proc.TryRecv(from, tag)
	t.r.opEnd(a, t0)
	return data, src, ok
}

// ledgerRow is one line of the per-layer time ledger: a span's self time
// (its duration minus what its children, its pgas ops and its attributed
// estimates cover), or one pgas op kind's estimated time.
type ledgerRow struct {
	Name string  `json:"name"`
	Ns   float64 `json:"ns"`
	N    int64   `json:"n"`
}

// ledger is the merged self-time account of a traced window.
type ledger struct {
	WindowNs float64         `json:"window_ns"` // rank-time: the sum of every rank's top-level spans
	Rows     []ledgerRow     `json:"rows"`
	Ops      [numKinds]opAgg `json:"ops"`
}

// buildLedger merges the ranks' totals. By construction the rows sum to
// WindowNs: each span's self time is what its children do not cover.
func buildLedger(recs []*recorder) *ledger {
	l := &ledger{}
	rows := map[string]*ledgerRow{}
	row := func(name string) *ledgerRow {
		if rows[name] == nil {
			rows[name] = &ledgerRow{Name: name}
		}
		return rows[name]
	}
	for _, r := range recs {
		if r.Client {
			continue
		}
		l.WindowNs += float64(r.RootNs)
		for name, t := range r.Totals {
			if name == outside {
				continue
			}
			self := float64(t.TotalNs - t.ChildNs)
			for k := range t.Ops {
				est := t.Ops[k].estNs()
				self -= est
				kr := row("pgas." + kindNames[k])
				kr.Ns += est
				kr.N += t.Ops[k].N
				l.Ops[k].N += t.Ops[k].N
				l.Ops[k].Sampled += t.Ops[k].Sampled
				l.Ops[k].SampledNs += t.Ops[k].SampledNs
				l.Ops[k].Bytes += t.Ops[k].Bytes
			}
			for child, ns := range t.Extra {
				self -= ns
				row(child).Ns += ns
			}
			sr := row(name)
			sr.Ns += self
			sr.N += t.N
		}
	}
	for _, r := range rows {
		if r.Ns != 0 || r.N != 0 {
			l.Rows = append(l.Rows, *r)
		}
	}
	sort.Slice(l.Rows, func(i, j int) bool { return l.Rows[i].Ns > l.Rows[j].Ns })
	return l
}

// sumNs is the total of the rows (== WindowNs up to rounding).
func (l *ledger) sumNs() float64 {
	var t float64
	for _, r := range l.Rows {
		t += r.Ns
	}
	return t
}

// rowNs returns one row's time, 0 when absent.
func (l *ledger) rowNs(name string) float64 {
	for _, r := range l.Rows {
		if r.Name == name {
			return r.Ns
		}
	}
	return 0
}

// opsNs is the estimated time of every pgas op kind but the barrier wait.
func (l *ledger) opsNs() float64 {
	var t float64
	for k := opKind(0); k < numKinds; k++ {
		if k != kBarrier {
			t += l.Ops[k].estNs()
		}
	}
	return t
}

func (l *ledger) print(w io.Writer) {
	fmt.Fprintf(w, "ledger: self time per layer over %.3f rank-seconds\n", l.WindowNs/1e9)
	for _, r := range l.Rows {
		fmt.Fprintf(w, "  %-28s %10.3f ms  %5.1f%%  n=%d\n", r.Name, r.Ns/1e6, 100*r.Ns/l.WindowNs, r.N)
	}
	fmt.Fprintf(w, "  %-28s %10.3f ms  %5.1f%%\n", "(sum)", l.sumNs()/1e6, 100*l.sumNs()/l.WindowNs)
}
