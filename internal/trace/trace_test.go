package trace

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(Exec, 0, time.Second, 1, 2) // must not panic
	if r.Records() != nil || r.Rank() != -1 || r.Dropped() != 0 || r.BusyNs(Exec) != 0 || r.Retains() {
		t.Error("nil recorder reports state")
	}
}

func TestRecordAggregatesAndRecords(t *testing.T) {
	r := NewRecorder(3, 16, nil)
	if r.Rank() != 3 {
		t.Fatalf("rank = %d, want 3", r.Rank())
	}
	us := time.Microsecond
	r.Record(Exec, 10*us, 30*us, 7, 1)
	r.Record(QueueLockHeld, 12*us, 13*us, 1, 0)
	r.Record(Vote, 35*us, 35*us, 2, 1)
	r.Record(Exec, 40*us, 45*us, 8, 3)

	if got := r.BusyNs(Exec); got != 25_000 {
		t.Errorf("Exec busy = %d ns, want 25000", got)
	}
	if got := r.count[Exec].Load(); got != 2 {
		t.Errorf("Exec count = %d, want 2", got)
	}
	if got := r.BusyNs(QueueLockHeld); got != 1_000 {
		t.Errorf("QueueLockHeld busy = %d ns, want 1000", got)
	}
	recs := r.Records()
	if len(recs) != 4 || r.Dropped() != 0 {
		t.Fatalf("records=%d dropped=%d, want 4/0", len(recs), r.Dropped())
	}
	// Claim order, one record per occurrence, an instant with end == start.
	if recs[0] != (Record{Exec, 10 * us, 30 * us, 7, 1}) {
		t.Errorf("first record = %+v", recs[0])
	}
	if recs[2] != (Record{Vote, 35 * us, 35 * us, 2, 1}) {
		t.Errorf("instant record = %+v", recs[2])
	}
	// A snapshot does not see later records.
	r.Record(Terminate, 50*us, 50*us, 0, 0)
	if len(recs) != 4 || len(r.Records()) != 5 {
		t.Error("snapshot aliases the live slots")
	}
}

func TestRecordDegenerate(t *testing.T) {
	r := NewRecorder(0, 4, nil)
	r.Record(NumKinds, 0, time.Hour, 0, 0) // outside the catalogue: ignored
	r.Record(Exec, 9, 3, 0, 0)             // inverted: clamped to an empty span
	recs := r.Records()
	if len(recs) != 1 || recs[0].Start != 9 || recs[0].End != 9 || r.BusyNs(Exec) != 0 {
		t.Errorf("degenerate records: %+v busy=%d", recs, r.BusyNs(Exec))
	}
}

func TestDropsKeepAggregatesExact(t *testing.T) {
	r := NewRecorder(0, 2, nil)
	for i := int64(0); i < 5; i++ {
		at := time.Duration(i) * time.Microsecond
		r.Record(Steal, at, at+time.Microsecond, i, StealEmpty)
	}
	if got := len(r.Records()); got != 2 {
		t.Errorf("retained %d records, want the limit 2", got)
	}
	if r.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", r.Dropped())
	}
	if r.BusyNs(Steal) != 5_000 || r.count[Steal].Load() != 5 {
		t.Errorf("busy/count = %d/%d, want 5000/5 (drops must not lose aggregates)", r.BusyNs(Steal), r.count[Steal].Load())
	}
}

func TestNoSlotsKeepsAggregatesOnly(t *testing.T) {
	r := NewRecorder(0, 0, nil)
	r.Record(TDWave, 0, 3*time.Microsecond, 2, 0)
	r.Record(Add, 5, 5, 0, 0)
	if len(r.Records()) != 0 || r.Dropped() != 0 || r.Retains() || !NewRecorder(0, 1, nil).Retains() {
		t.Errorf("a recorder with no dump destination retained or dropped: %d/%d", len(r.Records()), r.Dropped())
	}
	if r.BusyNs(TDWave) != 3_000 || r.count[TDWave].Load() != 1 {
		t.Errorf("aggregates = %d/%d, want 3000/1", r.BusyNs(TDWave), r.count[TDWave].Load())
	}
}

// wordExporter stands in for obs.Registry (trace sits below obs).
type wordExporter struct {
	names []string
	words map[string]*atomic.Int64
}

func (e *wordExporter) CounterWord(name, help string) *atomic.Int64 {
	if e.words == nil {
		e.words = make(map[string]*atomic.Int64)
	}
	e.names = append(e.names, name)
	e.words[name] = new(atomic.Int64)
	return e.words[name]
}

func TestExportedWordsAreTheAggregates(t *testing.T) {
	exp := &wordExporter{}
	r := NewRecorder(0, 1, exp)
	r.Record(TDWave, 0, 3*time.Microsecond, 2, 0)
	r.Record(TDWave, 10*time.Microsecond, 11*time.Microsecond, 3, 0)
	busy := exp.words[`scioto_occ_busy_ns_total{resource="td_wave"}`]
	n := exp.words[`scioto_occ_intervals_total{resource="td_wave"}`]
	if busy.Load() != 4_000 || n.Load() != 2 || exp.words["scioto_trace_dropped_total"].Load() != 1 {
		t.Errorf("exported words busy=%d n=%d, want 4000/2 and one drop", busy.Load(), n.Load())
	}
	// The recorder reads the same words back: there is no private copy.
	busy.Add(1)
	if r.BusyNs(TDWave) != 4_001 {
		t.Error("recorder keeps its own copy of an exported aggregate")
	}
	// One busy and one count series per span kind in catalogue order, then
	// the drop counter — and no drop series without slots to overflow.
	if len(exp.names) != 2*int(numSpans)+1 || exp.names[0] != `scioto_occ_busy_ns_total{resource="task_exec"}` ||
		exp.names[len(exp.names)-1] != "scioto_trace_dropped_total" {
		t.Errorf("exported series: %v", exp.names)
	}
	bare := &wordExporter{}
	NewRecorder(0, 0, bare)
	if len(bare.names) != 2*int(numSpans) {
		t.Errorf("a recorder without slots exported %d series, want %d", len(bare.names), 2*int(numSpans))
	}
}

// TestConcurrentRecord: writers on several goroutines with a reader
// snapshotting beside them (run under -race): every record lands once and
// the reader never sees a half-written slot.
func TestConcurrentRecord(t *testing.T) {
	const workers, per = 8, 500
	r := NewRecorder(0, workers*per, nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				at := time.Duration(w*per+i) * time.Microsecond
				r.Record(Exec, at, at+time.Microsecond, int64(w), int64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			for _, e := range r.Records() {
				if e.Kind != Exec || e.End-e.Start != time.Microsecond {
					t.Errorf("torn record %+v", e)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := len(r.Records()); got != workers*per || r.Dropped() != 0 {
		t.Fatalf("records=%d dropped=%d, want %d/0", got, r.Dropped(), workers*per)
	}
	if got := r.BusyNs(Exec); got != workers*per*1000 {
		t.Errorf("busy = %d, want %d", got, workers*per*1000)
	}
}

func TestCatalogue(t *testing.T) {
	seen := map[string]bool{}
	prios := map[int]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		info := catalogue[k]
		if info.Name == "" || seen[info.Name] || info.Cat == "" || k.String() != info.Name {
			t.Errorf("kind %d: bad or duplicate row %+v", k, info)
		}
		seen[info.Name] = true
		if span := k < numSpans; span != (info.Prio > 0) {
			t.Errorf("kind %s: span=%t but priority %d", info.Name, span, info.Prio)
		}
		if info.Prio > 0 && prios[info.Prio] {
			t.Errorf("kind %s: priority %d used twice", info.Name, info.Prio)
		}
		prios[info.Prio] = true
	}
	if catalogue[Exec].Prio != 1 {
		t.Error("task execution must be the priority-1 (useful work) resource")
	}
	if !strings.HasPrefix(Kind(200).String(), "kind(") {
		t.Error("out-of-catalogue kind has a catalogue name")
	}
}
