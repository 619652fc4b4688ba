package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "")
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if r.Rank() != -1 || r.NumWords() != 0 || r.Names() != nil {
		t.Fatal("nil registry accessors must be safe")
	}
	var buf bytes.Buffer
	r.WriteProm(&buf, "")
	if buf.Len() != 0 {
		t.Fatal("nil registry renders nothing")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry(2)
	c := r.Counter("scioto_tasks_total", "tasks")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	if again := r.Counter("scioto_tasks_total", "tasks"); again != c {
		t.Fatal("lookup must be idempotent")
	}
	g := r.Gauge("scioto_depth", "depth")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry(0)
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x", "")
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {128, 0}, // <= 2^7 → bucket 0
		{129, 1}, {256, 1}, // <= 2^8
		{257, 2},
		{1 << 32, HistBuckets - 2}, // largest finite bound
		{1<<32 + 1, HistBuckets - 1},
		{1 << 50, HistBuckets - 1}, // overflow clamps
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every observation must land in a bucket whose bound covers it.
	for shift := 0; shift < 40; shift++ {
		ns := int64(1) << shift
		idx := bucketIndex(ns)
		bound := BucketBound(idx)
		if !math.IsInf(bound, 1) && float64(ns)/1e9 > bound {
			t.Errorf("ns=%d landed in bucket %d with bound %v < value", ns, idx, bound)
		}
	}
	if !math.IsInf(BucketBound(HistBuckets-1), 1) {
		t.Fatal("last bucket must be +Inf")
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry(0)
	h := r.Histogram("lat", "")
	h.Observe(100 * time.Nanosecond)
	h.Observe(200 * time.Nanosecond)
	h.Observe(time.Hour) // overflow
	h.Observe(-time.Second)
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	want := 100*time.Nanosecond + 200*time.Nanosecond + time.Hour
	if h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	if h.buckets[HistBuckets-1].Load() != 1 {
		t.Fatal("hour observation must land in the overflow bucket")
	}
	if h.buckets[0].Load() != 2 { // 100ns, and the negative clamped to 0
		t.Fatalf("bucket0 = %d, want 2", h.buckets[0].Load())
	}
}

func TestSchemaHashAndWords(t *testing.T) {
	a, b := NewRegistry(0), NewRegistry(1)
	for _, r := range []*Registry{a, b} {
		r.Counter("c1", "")
		r.Histogram("h1", "")
		r.Gauge("g1", "")
	}
	if a.SchemaHash() != b.SchemaHash() {
		t.Fatal("congruent registries must share a schema hash")
	}
	if a.NumWords() != 2+histWords {
		t.Fatalf("NumWords = %d, want %d", a.NumWords(), 2+histWords)
	}
	b.Counter("extra", "")
	if a.SchemaHash() == b.SchemaHash() {
		t.Fatal("diverged registries must differ")
	}
	words := a.snapshotWords(nil)
	if len(words) != a.NumWords() {
		t.Fatalf("snapshotWords len = %d, want %d", len(words), a.NumWords())
	}
}

func TestPromRendering(t *testing.T) {
	r := NewRegistry(3)
	r.Counter(`scioto_ops_total{op="get"}`, "one-sided ops").Add(4)
	r.Counter(`scioto_ops_total{op="put"}`, "one-sided ops").Add(2)
	h := r.Histogram(`scioto_op_latency_seconds{op="get"}`, "latency")
	h.Observe(200 * time.Nanosecond)
	h.Observe(time.Millisecond)

	var buf bytes.Buffer
	r.WriteProm(&buf, `rank="3"`)
	out := buf.String()

	for _, want := range []string{
		"# TYPE scioto_ops_total counter\n",
		"# HELP scioto_ops_total one-sided ops\n",
		`scioto_ops_total{rank="3",op="get"} 4`,
		`scioto_ops_total{rank="3",op="put"} 2`,
		"# TYPE scioto_op_latency_seconds histogram\n",
		`scioto_op_latency_seconds_count{rank="3",op="get"} 2`,
		`scioto_op_latency_seconds_bucket{rank="3",op="get",le="+Inf"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// HELP/TYPE emitted once per base name, not per series.
	if n := strings.Count(out, "# TYPE scioto_ops_total"); n != 1 {
		t.Errorf("TYPE emitted %d times, want 1", n)
	}
	// Cumulative buckets: the +Inf bucket equals _count.
	if !strings.Contains(out, `scioto_op_latency_seconds_sum{rank="3",op="get"} 0.0010002`) {
		t.Errorf("sum line missing or wrong:\n%s", out)
	}
}

func TestSplitAndSeriesName(t *testing.T) {
	base, labels := splitName(`a{b="c"}`)
	if base != "a" || labels != `b="c"` {
		t.Fatalf("splitName = %q %q", base, labels)
	}
	if s := seriesName("a", "", ""); s != "a" {
		t.Fatalf("bare = %q", s)
	}
	if s := seriesName("a", `b="c"`, `r="1"`); s != `a{r="1",b="c"}` {
		t.Fatalf("merged = %q", s)
	}
}

func TestConcurrentInstrumentUse(t *testing.T) {
	r := NewRegistry(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c", "")
			h := r.Histogram("h", "")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(time.Duration(j))
			}
		}()
	}
	// Scrape concurrently with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			r.WriteProm(&buf, "")
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("c", "").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", "").Count(); got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
}

func TestHubWriteProm(t *testing.T) {
	h := NewHub()
	h.Registry(0).Counter("scioto_x_total", "x").Add(1)
	h.Registry(1).Counter("scioto_x_total", "x").Add(2)
	var buf bytes.Buffer
	h.WriteProm(&buf)
	out := buf.String()
	if !strings.Contains(out, `scioto_x_total{rank="0"} 1`) ||
		!strings.Contains(out, `scioto_x_total{rank="1"} 2`) {
		t.Fatalf("hub output missing rank series:\n%s", out)
	}
	if n := strings.Count(out, "# TYPE scioto_x_total"); n != 1 {
		t.Fatalf("TYPE emitted %d times across ranks, want 1", n)
	}
	if got := h.Ranks(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Ranks = %v", got)
	}
}

func TestFaultKindCodes(t *testing.T) {
	for _, kind := range []string{"drop", "crash", "delay"} {
		code := faultKindCode(kind)
		if code < 0 {
			t.Fatalf("unknown kind %q", kind)
		}
		if FaultKindName(code) != kind {
			t.Fatalf("round trip %q → %d → %q", kind, code, FaultKindName(code))
		}
	}
	if faultKindCode("bogus") != -1 {
		t.Fatal("bogus kind must map to -1")
	}
	if !strings.Contains(FaultKindName(99), "fault(") {
		t.Fatal("unknown code must render diagnostically")
	}
}

func TestHubRecordFault(t *testing.T) {
	h := NewHub()
	h.RecordFault(time.Second, 1, "drop", "put", 3)
	h.RecordFault(2*time.Second, 1, "drop", "get", 3)
	got := h.Registry(1).Counter(`scioto_faults_injected_total{kind="drop",target="3"}`, "").Value()
	if got != 2 {
		t.Fatalf("fault counter = %d, want 2", got)
	}
}
