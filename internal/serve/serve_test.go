package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scioto/internal/apptest"
	"scioto/internal/core"
	"scioto/internal/obs"
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

// The request bodies the tests submit (FuzzDecodeSubmit seeds from each).

// mixedBatch is client c's batch: fib, echo and spin in turn.
func mixedBatch(c, n int) submitReq {
	req := submitReq{Tenant: fmt.Sprintf("client-%d", c)}
	for i := 0; i < n; i++ {
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
	return req
}

// echoBatch is n empty echoes.
func echoBatch(tenant string, n int) submitReq {
	req := submitReq{Tenant: tenant}
	for i := 0; i < n; i++ {
		req.Tasks = append(req.Tasks, taskSpec{Kind: KindEcho})
	}
	return req
}

// spinBatch is a submission of n spin tasks of d each.
func spinBatch(n int, d time.Duration) submitReq {
	req := submitReq{Tenant: "chaos"}
	for i := 0; i < n; i++ {
		req.Tasks = append(req.Tasks, taskSpec{Kind: KindSpin, Arg: uint64(d)})
	}
	return req
}

var (
	oneFib = submitReq{Tasks: []taskSpec{{Kind: KindFib, Arg: 10}}}
	// depChain is a chain t0 <- t1 <- t2 <- t3 plus a fan-in t4 <- {t0..t3}.
	depChain = submitReq{Tasks: []taskSpec{
		{Kind: KindFib, Arg: 5},
		{Kind: KindFib, Arg: 6, Deps: []int{0}},
		{Kind: KindFib, Arg: 7, Deps: []int{1}},
		{Kind: KindFib, Arg: 8, Deps: []int{2}},
		{Kind: KindEcho, Payload: []byte("fan-in"), Deps: []int{0, 1, 2, 3}},
	}}
	// cancelChain holds one task in flight and two behind it.
	cancelChain = submitReq{Tasks: []taskSpec{
		{Kind: KindSpin, Arg: uint64(200 * time.Millisecond)},
		{Kind: KindEcho, Payload: []byte("gated"), Deps: []int{0}},
		{Kind: KindEcho, Deps: []int{1}},
	}}
	// invalid are requests validate refuses, with what it must say.
	invalid = []struct {
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
)

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
			status, resp := submit(t, base, mixedBatch(c, perClient))
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

// TestStopDoesNotWaitOutFreshConnections: the endpoint's stop function
// returns promptly while a client holds a connection on which it never
// sent a request (what an http.Transport's spare dial is, and what made
// one run in eight of the test above take five seconds: Server.Shutdown
// gives a StateNew connection that long to prove itself idle).
func TestStopDoesNotWaitOutFreshConnections(t *testing.T) {
	for run := 0; run < 20; run++ {
		d := New(Config{Addr: "127.0.0.1:0", Logf: t.Logf})
		stop, err := d.startHTTP(1)
		if err != nil {
			t.Fatal(err)
		}
		spare, err := net.Dial("tcp", d.addr)
		if err != nil {
			t.Fatal(err)
		}
		// The listener hands connections over in order: once a request on
		// a later one is answered, the server holds the spare one.
		tr := &http.Transport{DisableKeepAlives: true}
		r, err := (&http.Client{Transport: tr}).Get("http://" + d.addr + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		t0 := time.Now()
		stop()
		if took := time.Since(t0); took > time.Second {
			t.Fatalf("run %d: stop took %v with a fresh connection open", run, took)
		}
		spare.Close()
	}
}

// TestDependencyChainResolves: a chain t0 <- t1 <- t2 <- t3 plus a fan-in
// t4 <- {t0..t3} completes with every dependent's result arriving after
// all its prerequisites'.
func TestDependencyChainResolves(t *testing.T) {
	d, base, done := startDaemon(t, 3, Config{})
	status, resp := submit(t, base, depChain)
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
	status, resp := submit(t, base, echoBatch("", 17))
	if status != http.StatusTooManyRequests {
		t.Fatalf("oversized batch: status %d (%v), want 429", status, resp)
	}
	if _, ok := resp["retry_after_ms"]; !ok {
		t.Errorf("429 body carries no retry_after_ms: %v", resp)
	}
	// A batch within the bound is still admitted and completes.
	status, resp = submit(t, base, oneFib)
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
		return submit(t, base, echoBatch(tenant, 2))
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
	req := cancelChain
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
	status, resp := submit(t, base, spinBatch(8, 50*time.Millisecond))
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
	if status, resp := submit(t, base, echoBatch("", 1)); status != http.StatusServiceUnavailable {
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
	for _, tc := range invalid {
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

// watched is a daemon whose ranks are observed from outside while they run:
// every rank's communication calls through an apptest.OpLog (atomic
// counters) and its scheduler and serve metrics through a registry of its
// own.
type watched struct {
	d    *Daemon
	base string
	done chan error
	logs []*apptest.OpLog
	regs []*obs.Registry
}

// startWatched brings a daemon up on w; recovery arms work replay.
func startWatched(t *testing.T, w pgas.World, recovery bool) *watched {
	t.Helper()
	n := w.NProcs()
	ww := &watched{
		d:    New(Config{Addr: "127.0.0.1:0", Logf: t.Logf}),
		done: make(chan error, 1),
		logs: make([]*apptest.OpLog, n),
		regs: make([]*obs.Registry, n),
	}
	var up sync.WaitGroup
	up.Add(n)
	go func() {
		ww.done <- w.Run(func(bare pgas.Proc) {
			p := apptest.NewOpLog(bare)
			rank := p.Rank()
			ww.logs[rank], ww.regs[rank] = p, obs.NewRegistry(rank)
			up.Done()
			if recovery {
				core.RegisterProcRecovery(p)
				defer core.UnregisterProcRecovery(p)
			}
			rt := core.Attach(p)
			rt.SetObserver(core.NewObserver(p, ww.regs[rank], nil))
			ww.d.Body(rt)
		})
	}()
	addr, err := ww.d.WaitReady(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	up.Wait()
	ww.base = "http://" + addr
	return ww
}

// calls sums every rank's communication calls so far.
func (ww *watched) calls() (n int64) {
	for _, l := range ww.logs {
		n += l.Calls.Load()
	}
	return n
}

// waitIdle returns once every worker is parked in Recv and no rank has
// made a communication call for 5 ms (the gateway is on its doorbell). It
// needs no timing assumption: a rank that is not blocked polls.
func (ww *watched) waitIdle(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		before := ww.calls()
		time.Sleep(5 * time.Millisecond)
		parked := true
		for _, l := range ww.logs[1:] {
			parked = parked && l.InRecv.Load()
		}
		if parked && ww.calls() == before {
			return
		}
	}
	t.Fatal("the daemon never fell idle")
}

// counter reads one of rank's metrics.
func (ww *watched) counter(rank int, name string) int64 {
	//lint:ignore obsdeterminism the test looks up a counter the daemon registered at start-up, by name, after the run; the schema gains nothing
	return ww.regs[rank].Counter(name, "").Value()
}

// TestServeWorkerCrashRecovers: a worker rank dies while a submission is
// running. With the world survivable and work-replay armed, the collection
// heals around the dead rank, the gateway lets the phase terminate and
// re-queues the results that died with it, the client's stream still
// carries every result, every survivor is back in a second phase, and the
// drain handshake completes with a clean world exit.
//
// Op-count pinning (faulty.Ops): worker set-up is NewTC's barrier, two
// Sends on rank 2 (with recovery armed no deferred pool is initialised).
// With nothing submitted yet the one phase opens — detector reset (one Store64: rank 2
// is a leaf of the wave tree), barrier; a barrier is two Sends at four
// ranks — and the rank sits through parkAfter idle rounds and the one
// that raises its flag (a look at its own queue word and a steal probe of
// two victims each), looks once more
// and parks in Recv having issued 18 ops, the same on every run because
// the test submits only once the daemon is idle. The wake is then op 19
// (the flag comes down), the reacquire of what the gateway dealt 20-21,
// and every task after that one completion mark in the gateway's journal
// — records ride in the burst, so a task costs no Send. There is no
// per-batch barrier or detector reset to step over any more, and no
// control collective left after set-up for a crash to be fatal in. Only
// the wake itself is the same operation on every run: with more ranks
// than processors a woken rank may not run before thieves have emptied
// its queue, so the second pin lands in a completion mark, a probe or a
// steal as the schedule has it — a recoverable place every time — and,
// like the first, checks that it fired at all.
func TestServeWorkerCrashRecovers(t *testing.T) {
	for _, pin := range []struct {
		name string
		ops  int64
		op   string // the operation the crash must interrupt, if that is certain
	}{
		{"first op after a wake", 19, "Store64"}, // its own flag: died parked, as far as anyone else can tell
		{"mid-burst", 25, ""},                    // left alone, its fourth task's completion mark
	} {
		t.Run(pin.name, func(t *testing.T) {
			var crashed atomic.Bool
			ww := startWatched(t, faulty.Wrap(
				shm.NewWorld(shm.Config{NProcs: 4, Seed: 7, Survivable: true}),
				faulty.Config{Seed: 21, CrashRank: 2, CrashAfterOps: pin.ops,
					Observe: func(_ time.Duration, _ int, kind, op string, _ int) {
						if kind == "crash" {
							crashed.Store(true)
							if pin.op != "" && op != pin.op {
								t.Errorf("the pin interrupted a %s, want a %s (re-pin CrashAfterOps)", op, pin.op)
							}
						}
					}},
			), true)
			ww.waitIdle(t)
			if crashed.Load() {
				t.Fatalf("rank 2 crashed before it parked: the pin sits in set-up (re-pin CrashAfterOps)")
			}
			const n = 200
			status, resp := submit(t, ww.base, spinBatch(n, 50*time.Microsecond))
			if status != http.StatusAccepted {
				t.Fatalf("submit: status %d (%v)", status, resp)
			}
			results, final := readStream(t, ww.base, resp["id"].(string))
			if len(results) != n || final.Completed != n {
				t.Fatalf("streamed %d results, summary completed=%d, want %d", len(results), final.Completed, n)
			}
			drainAndWait(t, ww.d, ww.done)
			if !crashed.Load() {
				t.Fatal("pinned crash never fired: the test exercised no recovery (re-pin CrashAfterOps)")
			}
			for _, rank := range []int{0, 1, 3} {
				if got := ww.counter(rank, "scioto_serve_phases_total"); got != 2 {
					t.Errorf("rank %d entered Process %d times, want 2: once, and once more after the recovery settled", rank, got)
				}
			}
		})
	}
}

// TestSteadyStateIsOnePhase gates the serve protocol on counts, not on
// timings: once the daemon is up, a submission costs no barrier and no
// termination wave on any rank and at most one message per four tasks; an
// idle daemon makes no communication call at all; and the whole run is one
// Process per rank, ended by exactly one termination.
func TestSteadyStateIsOnePhase(t *testing.T) {
	const ranks, rounds, batch = 3, 200, 32
	ww := startWatched(t, shm.NewWorld(shm.Config{NProcs: ranks, Seed: 7}), false)
	round := func() {
		status, resp := submit(t, ww.base, spinBatch(batch, 5*time.Microsecond))
		if status != http.StatusAccepted {
			t.Fatalf("submit: status %d (%v)", status, resp)
		}
		if results, _ := readStream(t, ww.base, resp["id"].(string)); len(results) != batch {
			t.Fatalf("streamed %d results, want %d", len(results), batch)
		}
	}
	round()
	type counts struct{ barriers, waves, sends int64 }
	snapshot := func() []counts {
		out := make([]counts, ranks)
		for r := range out {
			out[r] = counts{ww.logs[r].Barriers.Load(), ww.counter(r, "scioto_td_waves_total"), ww.logs[r].Sends.Load()}
		}
		return out
	}
	before := snapshot()
	for i := 0; i < rounds; i++ {
		round()
	}
	var sends int64
	for r, after := range snapshot() {
		if after.barriers != before[r].barriers || after.waves != before[r].waves {
			t.Errorf("rank %d: %d barriers and %d termination waves over %d submissions, want none",
				r, after.barriers-before[r].barriers, after.waves-before[r].waves, rounds)
		}
		sends += after.sends - before[r].sends
	}
	if max := int64(rounds * batch / 4); sends > max {
		t.Errorf("%d messages for %d tasks, want at most one per four (%d): wakes and completion bursts only", sends, rounds*batch, max)
	}

	ww.waitIdle(t)
	idle := ww.calls()
	time.Sleep(50 * time.Millisecond)
	if n := ww.calls() - idle; n != 0 {
		t.Errorf("an idle daemon made %d communication calls in 50 ms, want 0: every rank blocks", n)
	}

	drainAndWait(t, ww.d, ww.done)
	for r := 0; r < ranks; r++ {
		if phases, ends := ww.counter(r, "scioto_serve_phases_total"), ww.counter(r, "scioto_td_terminations_total"); phases != 1 || ends != 1 {
			t.Errorf("rank %d: %d Process entries and %d terminations, want one of each", r, phases, ends)
		}
	}
}
