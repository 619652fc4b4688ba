// Package trace is the runtime's one event-recording path: a per-rank
// Recorder of fixed-size records {kind, start, end, a1, a2} over one
// catalogue of kinds. A span kind is an occupancy resource — task
// execution, a steal attempt, a queue-lock hold, a NIC service window —
// recorded once, closed, by the site that holds both timestamps; an
// instant kind (a vote, a release, an injected fault) is a span with
// end == start. Everything downstream reads that one stream: the per-rank
// dump (dump.go), the merged Chrome trace (cmd/sciototrace), the
// attribution engine and the occupancy timelines (attrib.go); and the
// per-kind busy-time and count aggregates of the span kinds are the
// scioto_occ_* series on /metrics, not copies of them.
//
// Recording is disabled by default and follows the runtime's nil-object
// discipline: every method is a no-op on a nil *Recorder. It allocates
// nothing: record slots are preallocated and claimed with one atomic add,
// aggregates are atomic adds. When the slots fill, further records are
// dropped and counted while the aggregates stay exact, so a long run keeps
// truthful totals after its timeline truncates. A recorder created with no
// slots keeps aggregates only (a run with metrics on and no dump
// destination).
//
// Concurrency contract: Record may be called from any goroutine — the
// rank's SPMD body is the common writer, the tcp transport's flusher
// records beside it. Snapshots (Records, WriteDump) may run concurrently
// with writers and see only completely written records: a slot's kind
// word is stored last, atomically, and a reader skips slots whose kind is
// not yet published. There is no lock.
//
// The package sits below internal/obs (which imports it to stamp injected
// faults) and imports nothing of the runtime; the Exporter interface is
// how a registry above adopts the aggregates.
package trace

import (
	"sync/atomic"
	"time"
)

// Kind classifies a record. Span kinds come first; the instant kinds
// start at Add.
type Kind uint8

// The kinds; the catalogue table below gives each one's name, argument
// meanings and attribution priority.
const (
	Exec           Kind = iota // task callback execution
	QueueLockHeld              // queue-lock critical section, acquisition to release
	QueueLockWait              // a blocking Lock call's duration, or a failed TryLock probe
	Steal                      // one steal attempt, victim choice through the last completion round
	TDWave                     // termination-detection work: observing a wave, voting, terminating
	DsimNIC                    // dsim: a remote op's service window at the target's NIC
	TCPFlushWindow             // tcp: first frame queued after a flush to the flush that drains it
	TCPWritev                  // tcp: the write syscall pushing the coalesced window
	IPCRingWait                // ipc: Send spinning for ring space
	IPCBarrierPark             // no producer (a barrier waits in Recv); the number stays, the dump format pins it

	Add           // task inserted
	Release       // split pointer raised: private tasks made stealable
	Reacquire     // split pointer lowered: shared tasks reclaimed
	Vote          // termination vote cast
	WaveDown      // termination wave observed
	Terminate     // termination signal observed or issued
	UserEvent     // free-form application event
	Fault         // injected fault (obs.Hub.RecordFault)
	RecoverBegin  // recovery epoch entered
	RecoverReplay // lost descriptors re-inserted
	RecoverEnd    // recovery epoch left

	NumKinds
	numSpans = Add
)

// Steal's a2 is the number of tasks taken (≥ 1) or one of these outcomes.
const (
	StealEmpty int64 = 0
	StealBusy  int64 = -1
)

// KindInfo is one catalogue row. It travels in every dump, so consumers
// need neither this table nor its version.
type KindInfo struct {
	// Name is the kind's spelling in dumps, Chrome traces, attribution
	// reports and, for span kinds, the resource label of the scioto_occ_*
	// series.
	Name string `json:"name"`
	// Prio is a span kind's attribution priority, 1 the most specific: a
	// rank inside several spans at once is charged to the lowest Prio (an
	// instant inside both a writev stall and the enclosing flush window
	// belongs to the writev). Priority 1 is the useful-work resource:
	// time during which no rank is in it is the serialized critical path.
	// 0 marks an instant kind, which is never attributed.
	Prio int `json:"prio"`
	// Cat is the Chrome trace category; "occ" spans are drawn on the
	// occupancy rows.
	Cat string `json:"cat"`
	// Args names a1 and a2 ("" = unused). A span's a1 is the detail word
	// the attribution report quotes for it.
	Args [2]string `json:"args"`
}

var catalogue = [NumKinds]KindInfo{
	Exec:           {"task_exec", 1, "task", [2]string{"handle", "origin"}},
	QueueLockHeld:  {"queue_lock_held", 7, "occ", [2]string{"detail"}},
	QueueLockWait:  {"queue_lock_wait", 6, "occ", [2]string{"detail"}},
	Steal:          {"steal_window", 9, "steal", [2]string{"victim", "tasks"}},
	TDWave:         {"td_wave", 10, "occ", [2]string{"detail"}},
	DsimNIC:        {"dsim_nic", 3, "occ", [2]string{"detail"}},
	TCPFlushWindow: {"tcp_flush_window", 8, "occ", [2]string{"detail"}},
	TCPWritev:      {"tcp_writev", 2, "occ", [2]string{"detail"}},
	IPCRingWait:    {"ipc_ring_wait", 4, "occ", [2]string{"detail"}},
	IPCBarrierPark: {"ipc_barrier_park", 5, "occ", [2]string{"detail"}},
	Add:            {"add", 0, "sched", [2]string{"dest", "affinity"}},
	Release:        {"release", 0, "sched", [2]string{"tasks"}},
	Reacquire:      {"reacquire", 0, "sched", [2]string{"tasks"}},
	Vote:           {"vote", 0, "td", [2]string{"wave", "black"}},
	WaveDown:       {"wave", 0, "td", [2]string{"wave"}},
	Terminate:      {"terminate", 0, "td", [2]string{"wave"}},
	UserEvent:      {"user", 0, "sched", [2]string{"arg1", "arg2"}},
	Fault:          {"fault", 0, "fault", [2]string{"kind", "target"}},
	RecoverBegin:   {"recover-begin", 0, "recover", [2]string{"dead", "epoch"}},
	RecoverReplay:  {"recover-replay", 0, "recover", [2]string{"replayed", "salvaged"}},
	RecoverEnd:     {"recover-end", 0, "recover", [2]string{"dead", "epoch"}},
}

// String names the kind.
func (k Kind) String() string {
	if k < NumKinds {
		return catalogue[k].Name
	}
	return "kind(?)"
}

// DefaultLimit is the slot count the facade gives a recorder that has a
// dump destination and no explicit limit.
const DefaultLimit = 1 << 16

// Record is one retained occurrence.
type Record struct {
	Kind       Kind
	Start, End time.Duration
	A1, A2     int64
}

// slot is a Record in the preallocated array; kind holds Kind+1 and is
// stored last (0 = claimed but not yet written).
type slot struct {
	kind       atomic.Uint32
	start, end int64
	a1, a2     int64
}

// Exporter is where a recorder publishes its aggregates: it finds or
// creates the named counter series and returns the series' own storage
// word, which the recorder then updates in place (obs.Registry).
type Exporter interface {
	CounterWord(name, help string) *atomic.Int64
}

// Attacher is implemented by transports that record transport-level spans
// (the dsim NIC model, the tcp flush window, the ipc ring and barrier)
// into the rank's recorder; core.NewObserver finds it with pgas.Find.
type Attacher interface {
	AttachRecorder(r *Recorder)
}

// Recorder collects one rank's records. A nil *Recorder is a valid,
// disabled recorder.
type Recorder struct {
	rank int

	cur   atomic.Int64 // next slot to claim
	slots []slot       // nil: aggregates only

	// Per-span-kind aggregates and the drop count. With an Exporter these
	// are the registry's words, otherwise the recorder's own.
	busyNs, count [numSpans]*atomic.Int64
	dropped       *atomic.Int64
}

// NewRecorder creates rank's recorder retaining up to limit records (0:
// none — aggregates only, for a run with nowhere to dump). With a non-nil
// exp the span aggregates become the scioto_occ_busy_ns_total and
// scioto_occ_intervals_total series, labelled by resource and registered
// in catalogue order, and the drop count of a retaining recorder becomes
// scioto_trace_dropped_total; every rank must therefore construct its
// recorder the same way (the obsdeterminism lint checks the call sites).
func NewRecorder(rank, limit int, exp Exporter) *Recorder {
	r := &Recorder{rank: rank, dropped: new(atomic.Int64)}
	if limit > 0 {
		r.slots = make([]slot, limit)
	}
	word := func(name, help string) *atomic.Int64 { return new(atomic.Int64) }
	if exp != nil {
		word = exp.CounterWord
	}
	for k := range r.busyNs {
		res := `{resource="` + catalogue[k].Name + `"}`
		r.busyNs[k] = word("scioto_occ_busy_ns_total"+res, "nanoseconds this resource was busy/occupied on this rank")
		r.count[k] = word("scioto_occ_intervals_total"+res, "occupancy intervals recorded for this resource")
	}
	if limit > 0 {
		r.dropped = word("scioto_trace_dropped_total", "Trace records discarded after the per-rank slots filled.")
	}
	return r
}

// Record logs one occurrence of kind k over [start, end] — an instant
// passes the same time twice — with the kind's two argument words.
func (r *Recorder) Record(k Kind, start, end time.Duration, a1, a2 int64) {
	if r == nil || k >= NumKinds {
		return
	}
	if end < start {
		end = start
	}
	if k < numSpans {
		r.busyNs[k].Add(int64(end - start))
		r.count[k].Add(1)
	}
	if r.slots == nil {
		return
	}
	i := r.cur.Add(1) - 1
	if i >= int64(len(r.slots)) {
		r.dropped.Add(1)
		return
	}
	s := &r.slots[i]
	s.start, s.end, s.a1, s.a2 = int64(start), int64(end), a1, a2
	s.kind.Store(uint32(k) + 1)
}

// Retains reports whether the recorder keeps records for a dump; when it
// does not, an instant has nowhere to go and its caller need not look at
// the clock.
func (r *Recorder) Retains() bool { return r != nil && r.slots != nil }

// Rank reports the recorder's rank (-1 when disabled).
func (r *Recorder) Rank() int {
	if r == nil {
		return -1
	}
	return r.rank
}

// BusyNs returns the total length of every span of kind k recorded so
// far, retained or dropped.
func (r *Recorder) BusyNs(k Kind) int64 {
	if r == nil || k >= numSpans {
		return 0
	}
	return r.busyNs[k].Load()
}

// Dropped reports how many records were discarded after the slots filled.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Records snapshots the retained records in claim order (for one writer,
// the order of the Record calls: a span sits at its end, not its start).
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	n := min(r.cur.Load(), int64(len(r.slots)))
	out := make([]Record, 0, n)
	for i := range r.slots[:n] {
		s := &r.slots[i]
		if k := s.kind.Load(); k != 0 {
			out = append(out, Record{Kind(k - 1), time.Duration(s.start), time.Duration(s.end), s.a1, s.a2})
		}
	}
	return out
}
