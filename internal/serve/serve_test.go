package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/faulty"
	"scioto/internal/pgas/shm"
)

// startDaemon brings up a serve daemon over a fresh shm world and
// returns its base URL plus a done channel carrying the world's exit
// error. Tests must call Drain (directly or via the returned drain
// helper) so the world can exit.
func startDaemon(t *testing.T, nprocs int, cfg Config) (d *Daemon, base string, done chan error) {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	d = New(cfg)
	done = make(chan error, 1)
	go func() {
		w := shm.NewWorld(shm.Config{NProcs: nprocs, Seed: 7})
		done <- w.Run(func(p pgas.Proc) { d.Body(core.Attach(p)) })
	}()
	addr, err := d.WaitReady(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return d, "http://" + addr, done
}

// drainAndWait completes the shutdown handshake and fails the test if
// the world errors or hangs.
func drainAndWait(t *testing.T, d *Daemon, done chan error) {
	t.Helper()
	d.Drain()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("world exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain within 30s")
	}
}

// submit posts a submission and decodes the response.
func submit(t *testing.T, base string, req submitReq) (status int, resp map[string]any) {
	t.Helper()
	body, _ := json.Marshal(req)
	r, err := http.Post(base+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer r.Body.Close()
	resp = map[string]any{}
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		t.Fatalf("submit: decode response: %v", err)
	}
	return r.StatusCode, resp
}

// readStream consumes a submission's NDJSON stream to its done line.
func readStream(t *testing.T, base, id string) (results []resultRec, final summary) {
	t.Helper()
	r, err := http.Get(base + "/v1/submissions/" + id + "/stream")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", r.StatusCode)
	}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream: bad line %q: %v", sc.Text(), err)
		}
		if ev.Result != nil {
			results = append(results, *ev.Result)
		}
		if ev.Done != nil {
			return results, *ev.Done
		}
	}
	t.Fatalf("stream ended without a done line (scan err %v)", sc.Err())
	return nil, summary{}
}

// TestServeEightConcurrentClients is the acceptance scenario: 8 clients
// submit mixed batches concurrently and every client streams back every
// result with the right content.
func TestServeEightConcurrentClients(t *testing.T) {
	d, base, done := startDaemon(t, 4, Config{})
	const clients = 8
	const perClient = 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := submitReq{Tenant: fmt.Sprintf("client-%d", c)}
			for i := 0; i < perClient; i++ {
				switch i % 3 {
				case 0:
					req.Tasks = append(req.Tasks, taskSpec{Kind: KindFib, Arg: uint64(10 + i)})
				case 1:
					req.Tasks = append(req.Tasks, taskSpec{
						Kind:    KindEcho,
						Payload: []byte(fmt.Sprintf("c%d-t%d", c, i)),
					})
				default:
					req.Tasks = append(req.Tasks, taskSpec{Kind: KindSpin, Arg: uint64(20 * time.Microsecond)})
				}
			}
			status, resp := submit(t, base, req)
			if status != http.StatusAccepted {
				errs <- fmt.Errorf("client %d: submit status %d (%v)", c, status, resp)
				return
			}
			id := resp["id"].(string)
			results, final := readStream(t, base, id)
			if len(results) != perClient {
				errs <- fmt.Errorf("client %d: %d results, want %d", c, len(results), perClient)
				return
			}
			if final.State != "done" || final.Completed != perClient {
				errs <- fmt.Errorf("client %d: final %+v", c, final)
				return
			}
			for _, res := range results {
				switch res.Kind {
				case KindFib:
					want := fmt.Sprint(fibIter(uint64(10 + res.Task)))
					if string(res.Result) != want {
						errs <- fmt.Errorf("client %d task %d: fib %q, want %q", c, res.Task, res.Result, want)
						return
					}
				case KindEcho:
					want := fmt.Sprintf("c%d-t%d", c, res.Task)
					if string(res.Result) != want {
						errs <- fmt.Errorf("client %d task %d: echo %q, want %q", c, res.Task, res.Result, want)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	drainAndWait(t, d, done)
}

// TestDependencyChainResolvesAcrossPhases: a chain t0 <- t1 <- t2 <- t3
// plus a fan-in t4 <- {t0..t3} completes with every dependent's result
// arriving after all its prerequisites'.
func TestDependencyChainResolvesAcrossPhases(t *testing.T) {
	d, base, done := startDaemon(t, 3, Config{})
	req := submitReq{Tasks: []taskSpec{
		{Kind: KindFib, Arg: 5},
		{Kind: KindFib, Arg: 6, Deps: []int{0}},
		{Kind: KindFib, Arg: 7, Deps: []int{1}},
		{Kind: KindFib, Arg: 8, Deps: []int{2}},
		{Kind: KindEcho, Payload: []byte("fan-in"), Deps: []int{0, 1, 2, 3}},
	}}
	status, resp := submit(t, base, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d (%v)", status, resp)
	}
	results, final := readStream(t, base, resp["id"].(string))
	if final.Completed != 5 || final.State != "done" {
		t.Fatalf("final %+v", final)
	}
	pos := map[int]int{}
	for i, res := range results {
		pos[res.Task] = i
	}
	for i := 1; i <= 3; i++ {
		if pos[i] < pos[i-1] {
			t.Errorf("task %d's result arrived before its prerequisite %d", i, i-1)
		}
	}
	for i := 0; i <= 3; i++ {
		if pos[4] < pos[i] {
			t.Errorf("fan-in result arrived before prerequisite %d", i)
		}
	}
	if string(results[pos[4]].Result) != "fan-in" {
		t.Errorf("fan-in result %q", results[pos[4]].Result)
	}
	drainAndWait(t, d, done)
}

// TestAdmissionPendingPool: a batch that cannot fit the pending pool is
// refused with 429 and a retry hint, and the daemon keeps serving.
func TestAdmissionPendingPool(t *testing.T) {
	d, base, done := startDaemon(t, 2, Config{MaxPending: 16, MaxTasksPerSubmit: 64})
	var req submitReq
	for i := 0; i < 17; i++ {
		req.Tasks = append(req.Tasks, taskSpec{Kind: KindEcho})
	}
	status, resp := submit(t, base, req)
	if status != http.StatusTooManyRequests {
		t.Fatalf("oversized batch: status %d (%v), want 429", status, resp)
	}
	if _, ok := resp["retry_after_ms"]; !ok {
		t.Errorf("429 body carries no retry_after_ms: %v", resp)
	}
	// A batch within the bound is still admitted and completes.
	status, resp = submit(t, base, submitReq{Tasks: []taskSpec{{Kind: KindFib, Arg: 10}}})
	if status != http.StatusAccepted {
		t.Fatalf("follow-up submit: status %d (%v)", status, resp)
	}
	if _, final := readStream(t, base, resp["id"].(string)); final.Completed != 1 {
		t.Fatalf("follow-up final %+v", final)
	}
	drainAndWait(t, d, done)
}

// TestAdmissionTenantBucket: a tenant over its token bucket gets 429
// with a positive retry_after_ms while other tenants stay admitted.
func TestAdmissionTenantBucket(t *testing.T) {
	d, base, done := startDaemon(t, 2, Config{TenantRate: 0.001, TenantBurst: 4})
	one := func(tenant string) (int, map[string]any) {
		return submit(t, base, submitReq{
			Tenant: tenant,
			Tasks:  []taskSpec{{Kind: KindEcho}, {Kind: KindEcho}},
		})
	}
	for i := 0; i < 2; i++ { // burn the burst: 2×2 tasks
		if status, resp := one("greedy"); status != http.StatusAccepted {
			t.Fatalf("within burst: status %d (%v)", status, resp)
		}
	}
	status, resp := one("greedy")
	if status != http.StatusTooManyRequests {
		t.Fatalf("over burst: status %d (%v), want 429", status, resp)
	}
	if ms, _ := resp["retry_after_ms"].(float64); ms <= 0 {
		t.Errorf("over burst: retry_after_ms %v, want > 0", resp["retry_after_ms"])
	}
	if status, resp := one("patient"); status != http.StatusAccepted {
		t.Fatalf("other tenant: status %d (%v)", status, resp)
	}
	drainAndWait(t, d, done)
}

// TestCancelReleasesEverything: cancelling a submission with queued,
// in-flight, and dependency-parked tasks terminates its stream with
// state "cancelled" and leaves the daemon able to drain (i.e. no leaked
// deferred-pool slots or pending-pool tokens).
func TestCancelReleasesEverything(t *testing.T) {
	d, base, done := startDaemon(t, 2, Config{})
	req := submitReq{Tasks: []taskSpec{
		{Kind: KindSpin, Arg: uint64(200 * time.Millisecond)},
		{Kind: KindEcho, Payload: []byte("gated"), Deps: []int{0}},
		{Kind: KindEcho, Deps: []int{1}},
	}}
	status, resp := submit(t, base, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d (%v)", status, resp)
	}
	id := resp["id"].(string)
	creq, _ := http.NewRequest(http.MethodDelete, base+"/v1/submissions/"+id, nil)
	cr, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	cr.Body.Close()
	if cr.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", cr.StatusCode)
	}
	_, final := readStream(t, base, id)
	if final.State != "cancelled" {
		t.Fatalf("final state %q, want cancelled", final.State)
	}
	if final.Completed+final.Dropped > len(req.Tasks) {
		t.Fatalf("final %+v: completed+dropped exceeds task count", final)
	}
	drainAndWait(t, d, done)
	if d.pending != 0 || d.deferred != 0 || d.inFlight != 0 {
		t.Fatalf("leaked accounting after drain: pending=%d deferred=%d inFlight=%d",
			d.pending, d.deferred, d.inFlight)
	}
}

// TestDrainRefusesNewWork: once draining, submits get 503; in-flight
// work still completes and its stream flushes before shutdown.
func TestDrainRefusesNewWork(t *testing.T) {
	d, base, done := startDaemon(t, 2, Config{})
	var req submitReq
	for i := 0; i < 8; i++ {
		req.Tasks = append(req.Tasks, taskSpec{Kind: KindSpin, Arg: uint64(50 * time.Millisecond)})
	}
	status, resp := submit(t, base, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d (%v)", status, resp)
	}
	id := resp["id"].(string)
	type streamOut struct {
		final summary
	}
	out := make(chan streamOut, 1)
	go func() {
		_, final := readStream(t, base, id)
		out <- streamOut{final}
	}()
	d.Drain()
	if status, resp := submit(t, base, submitReq{Tasks: []taskSpec{{Kind: KindEcho}}}); status != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d (%v), want 503", status, resp)
	}
	got := <-out
	if got.final.State != "done" || got.final.Completed != 8 {
		t.Errorf("drained submission final %+v, want 8 completed", got.final)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("world exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain within 30s")
	}
}

// TestValidateRejects: malformed submissions are refused with 400-class
// errors before touching admission state.
func TestValidateRejects(t *testing.T) {
	d := New(Config{})
	cases := []struct {
		name string
		req  submitReq
		want string
	}{
		{"empty", submitReq{}, "no tasks"},
		{"unknown kind", submitReq{Tasks: []taskSpec{{Kind: "warp"}}}, "unknown kind"},
		{"forward dep", submitReq{Tasks: []taskSpec{{Kind: KindEcho, Deps: []int{0}}}}, "out of range"},
		{"dup dep", submitReq{Tasks: []taskSpec{
			{Kind: KindEcho}, {Kind: KindEcho, Deps: []int{0, 0}},
		}}, "duplicate dep"},
		{"big payload", submitReq{Tasks: []taskSpec{
			{Kind: KindEcho, Payload: make([]byte, 4096)},
		}}, "exceeds limit"},
	}
	for _, tc := range cases {
		err := d.validate(&tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestBucketRefill: the token bucket refuses when empty, reports a
// sensible wait, and admits again after refill.
func TestBucketRefill(t *testing.T) {
	b := &bucket{tokens: 4, burst: 4, rate: 2}
	now := time.Unix(1000, 0)
	b.last = now
	if _, ok := b.take(4, now); !ok {
		t.Fatal("full bucket refused its burst")
	}
	wait, ok := b.take(2, now)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if wait != time.Second {
		t.Fatalf("wait %v, want 1s (2 tokens at 2/s)", wait)
	}
	if _, ok := b.take(2, now.Add(time.Second)); !ok {
		t.Fatal("refilled bucket refused")
	}
	// A request larger than the burst can never succeed; the wait hint
	// covers a full refill rather than promising the impossible.
	wait, ok = b.take(100, now.Add(time.Hour))
	if ok || wait > 2*time.Second {
		t.Fatalf("over-burst request: ok=%v wait=%v", ok, wait)
	}
}

// TestLifecycleIDPacking: IDs round-trip and index bits never bleed into
// the serial.
func TestLifecycleIDPacking(t *testing.T) {
	for _, c := range []struct {
		serial uint64
		idx    int
	}{{1, 0}, {1, maxTasksHard - 1}, {1 << 40, 12345}} {
		s, i := splitID(packID(c.serial, c.idx))
		if s != c.serial || i != c.idx {
			t.Errorf("packID(%d,%d) round-tripped to (%d,%d)", c.serial, c.idx, s, i)
		}
	}
}

// TestRunKindResults: kind execution writes the documented results in
// place.
func TestRunKindResults(t *testing.T) {
	compute := func(time.Duration) {}
	body := make([]byte, bodyDataOff+minResultBytes)
	encodeTaskBody(body, kindFib, 20, nil)
	runKind(compute, body)
	if got := string(bodyData(body)); got != "6765" {
		t.Errorf("fib(20) = %q, want 6765", got)
	}
	payload := []byte("ping")
	body = make([]byte, bodyDataOff+minResultBytes)
	encodeTaskBody(body, kindEcho, 0, payload)
	runKind(compute, body)
	if got := string(bodyData(body)); got != "ping" {
		t.Errorf("echo = %q, want ping", got)
	}
	encodeTaskBody(body, kindSpin, 100, nil)
	runKind(compute, body)
	if got := bodyData(body); len(got) != 0 {
		t.Errorf("spin result %q, want empty", got)
	}
}

// TestServeWorkerCrashRecovers: a worker rank dies mid-phase while a
// submission is draining. With the world survivable and work-replay armed,
// the collection heals around the dead rank, results that died with it are
// re-queued by the gateway, the client's stream still carries every result,
// and the drain handshake completes with a clean world exit.
func TestServeWorkerCrashRecovers(t *testing.T) {
	d := New(Config{Addr: "127.0.0.1:0", Logf: t.Logf})
	done := make(chan error, 1)
	var crashed atomic.Bool
	go func() {
		w := faulty.Wrap(
			shm.NewWorld(shm.Config{NProcs: 4, Seed: 7, Survivable: true}),
			// CrashAfterOps is pinned at the start of rank 2's processing
			// window: setup (dep-pool init + journal) costs 1024 checked
			// ops (measured via faulty.Ops), the phase's barriers and
			// detector reset run to op 1032, the reacquire of what the
			// gateway added is 1033-34, and every task after that is a
			// completion mark and a result Send. The window is as short as
			// 17 ops when the other ranks steal most of the rank's share.
			// A crash pinned earlier would land in a setup collective,
			// which is fatal by design.
			faulty.Config{Seed: 21, CrashRank: 2, CrashAfterOps: 1036,
				Observe: func(_ time.Duration, _ int, kind, _ string, _ int) {
					if kind == "crash" {
						crashed.Store(true)
					}
				}},
		)
		done <- w.Run(func(p pgas.Proc) {
			core.RegisterProcRecovery(p)
			defer core.UnregisterProcRecovery(p)
			d.Body(core.Attach(p))
		})
	}()
	addr, err := d.WaitReady(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	const n = 200
	req := submitReq{Tenant: "chaos"}
	for i := 0; i < n; i++ {
		req.Tasks = append(req.Tasks, taskSpec{Kind: KindSpin, Arg: uint64(50 * time.Microsecond)})
	}
	status, resp := submit(t, base, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", status, resp)
	}
	results, final := readStream(t, base, resp["id"].(string))
	if len(results) != n || final.Completed != n {
		t.Fatalf("streamed %d results, summary completed=%d, want %d", len(results), final.Completed, n)
	}
	drainAndWait(t, d, done)
	if !crashed.Load() {
		t.Fatal("pinned crash never fired: the test exercised no recovery (re-pin CrashAfterOps)")
	}
}
