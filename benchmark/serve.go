package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"scioto"
	"scioto/internal/core"
	"scioto/internal/obs"
	"scioto/internal/pgas"
	"scioto/internal/serve"
)

var serveSHM = &workload{name: "serve-shm", tail: 0.90, world: serveWorld, selfSpan: "serve.rank"}

const (
	serveClientCount = 2  // closed loop: each sends its next batch when the last one is done
	serveBatchTasks  = 32 // 24 spin + 4 fib + 4 echo, in seed order
	serveSpin        = 5 * time.Microsecond
	serveBatches     = 64 // distinct batches a run cycles through
	serveWarmup      = 2 * time.Second
	// The window is cut into slices of closed-loop traffic. Between two
	// slices both clients stop, the daemon falls idle (its ranks park),
	// and each client times serveStopRounds submissions to the plain
	// service: the baseline, measured within 20 ms of every round.
	serveSlice      = 20 * time.Millisecond
	serveStopRounds = 4
	// serveStallMs separates the two populations of round times: 95 % are
	// under 1.6 ms, 4 % are 5-25 ms (README.md, serve-shm).
	serveStallMs = 3.0
)

// serveRefBaseMs is the reference host's speed on this workload's
// baseline: one 32-task submission to the plain service from each of two
// clients at once, on an otherwise idle 2-vCPU 2.1 GHz Xeon guest
// (go1.24), the median stop of twenty 20 s runs in a quiet hour.
const serveRefBaseMs = 0.44

func init() {
	serveSHM.setup = func(e *env) {
		d := newServeDaemon()
		go func() {
			addr, err := d.WaitReady(10 * time.Second)
			if err != nil {
				fatalf("serve-shm setup: %v", err)
			}
			c := &serveClient{base: "http://" + addr, hc: &http.Client{Transport: &http.Transport{}}}
			if r := c.do(&smokeBatch); !r.ok {
				fatalf("serve-shm setup: smoke submission failed")
			}
			c.hc.CloseIdleConnections()
			d.Drain()
		}()
		e.launch(serveWorld(e), plain, func(p pgas.Proc, _ *recorder, _ func(*window)) { d.Body(core.Attach(p)) })
	}
	serveSHM.run = serveWindow
}

func serveWorld(e *env) scioto.Config {
	return scioto.Config{Procs: 2, Transport: scioto.TransportSHM, Seed: e.seed}
}

func newServeDaemon() *serve.Daemon {
	return serve.New(serve.Config{Addr: "127.0.0.1:0", Logf: func(string, ...any) {}})
}

// serveTask is one task of a batch and the result line it must produce.
type serveTask struct {
	Kind    string `json:"kind"`
	Arg     uint64 `json:"arg,omitempty"`
	Payload []byte `json:"payload,omitempty"`
	want    []byte
}

type serveBatch struct {
	tasks []serveTask
	body  []byte
}

// smokeBatch is the one-task submission that ends a set-up cycle.
var smokeBatch = func() serveBatch {
	tasks := []serveTask{{Kind: serve.KindFib, Arg: 10, want: []byte("55")}}
	body, err := json.Marshal(map[string]any{"tenant": "setup", "tasks": tasks})
	must(err)
	return serveBatch{tasks: tasks, body: body}
}()

// makeServeBatches generates the run's request bodies from the seed.
func makeServeBatches(seed int64, tenant string) []serveBatch {
	rng := rand.New(rand.NewSource(seed))
	out := make([]serveBatch, serveBatches)
	for b := range out {
		tasks := make([]serveTask, 0, serveBatchTasks)
		for i := 0; i < serveBatchTasks; i++ {
			switch {
			case i < 4:
				n := uint64(30 + rng.Intn(60))
				tasks = append(tasks, serveTask{Kind: serve.KindFib, Arg: n, want: strconv.AppendUint(nil, fib(n), 10)})
			case i < 8:
				payload := make([]byte, 16)
				rng.Read(payload)
				tasks = append(tasks, serveTask{Kind: serve.KindEcho, Payload: payload, want: payload})
			default:
				tasks = append(tasks, serveTask{Kind: serve.KindSpin, Arg: uint64(serveSpin)})
			}
		}
		rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
		body, err := json.Marshal(map[string]any{"tenant": tenant, "tasks": tasks})
		must(err)
		out[b] = serveBatch{tasks: tasks, body: body}
	}
	return out
}

func fib(n uint64) uint64 {
	a, b := uint64(0), uint64(1)
	for ; n > 0; n-- {
		a, b = b, a+b
	}
	return a
}

// plainService is the serve-shm baseline: the daemon's submit and stream
// endpoints served by net/http alone. A submission's tasks run back to
// back in the goroutine that streams its results — no runtime, no
// transport, no admission, no phases — so the same client code, the same
// request bodies and the same result lines cost what HTTP and JSON cost.
type plainService struct {
	srv  *http.Server
	addr string
	mu   sync.Mutex
	next int
	subs map[string][]serveTask
}

func startPlainService() *plainService {
	ps := &plainService{subs: map[string][]serveTask{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", ps.submit)
	mux.HandleFunc("GET /v1/submissions/{id}/stream", ps.stream)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	ps.addr = ln.Addr().String()
	ps.srv = &http.Server{Handler: mux}
	go ps.srv.Serve(ln)
	return ps
}

func (ps *plainService) stop() { ps.srv.Close() }

func (ps *plainService) submit(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Tenant string      `json:"tenant"`
		Tasks  []serveTask `json:"tasks"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ps.mu.Lock()
	ps.next++
	id := "p" + strconv.Itoa(ps.next)
	ps.subs[id] = req.Tasks
	ps.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]any{"id": id, "tenant": req.Tenant, "tasks": len(req.Tasks)})
}

func (ps *plainService) stream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ps.mu.Lock()
	tasks, ok := ps.subs[id]
	delete(ps.subs, id)
	ps.mu.Unlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	type result struct {
		Task      int    `json:"task"`
		Kind      string `json:"kind"`
		ElapsedUS int64  `json:"elapsed_us"`
		Result    []byte `json:"result"`
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for i, t := range tasks {
		t0 := time.Now()
		var res []byte
		switch t.Kind {
		case serve.KindSpin:
			for time.Since(t0) < time.Duration(t.Arg) {
			}
		case serve.KindFib:
			res = strconv.AppendUint(nil, fib(t.Arg), 10)
		case serve.KindEcho:
			res = t.Payload
		}
		enc.Encode(map[string]any{"result": result{i, t.Kind, time.Since(t0).Microseconds(), res}})
	}
	enc.Encode(map[string]any{"done": map[string]any{"state": "done", "completed": len(tasks)}})
}

// rendezvous is the reusable barrier the clients meet at around a stop.
// The last to arrive decides what wait returns to all of them.
type rendezvous struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     int
	verdict bool
}

func newRendezvous(n int) *rendezvous {
	r := &rendezvous{n: n}
	r.cond = sync.NewCond(&r.mu)
	return r
}

func (r *rendezvous) wait(decide func() bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.arrived++
	if r.arrived == r.n {
		r.verdict = decide()
		r.arrived = 0
		r.gen++
		r.cond.Broadcast()
		return r.verdict
	}
	for gen := r.gen; gen == r.gen; {
		r.cond.Wait()
	}
	return r.verdict
}

// serveRound is one client-observed submission.
type serveRound struct {
	ok                   bool
	total, submit, first time.Duration // from POST start: done line, POST reply, first result line
	callbackUs           int64
	slice                int           // the slice of the window the round ran in
	start                time.Duration // since the window epoch
	stream               time.Duration
}

type serveClient struct {
	base    string // the daemon
	plain   string // the plain service
	hc      *http.Client
	batches []serveBatch
	rounds  []serveRound
	stops   [][]float64 // stop s: this client's baseline submissions, ms
}

// do submits one batch to the daemon and reads its stream to the end.
func (c *serveClient) do(b *serveBatch) serveRound { return c.doAt(c.base, b) }

// doAt submits one batch to the service at base.
func (c *serveClient) doAt(base string, b *serveBatch) serveRound {
	var r serveRound
	t0 := time.Now()
	resp, err := c.hc.Post(base+"/v1/submit", "application/json", bytes.NewReader(b.body))
	if err != nil {
		return r
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.submit = time.Since(t0)
	var acc struct {
		ID string `json:"id"`
	}
	if err != nil || resp.StatusCode != http.StatusAccepted || json.Unmarshal(reply, &acc) != nil {
		return r
	}
	resp, err = c.hc.Get(base + "/v1/submissions/" + acc.ID + "/stream")
	if err != nil {
		return r
	}
	defer resp.Body.Close()
	seen := make([]bool, len(b.tasks))
	good, done := 0, false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() { // to EOF, so the keep-alive connection is reusable
		var ev struct {
			Result *struct {
				Task      int    `json:"task"`
				Kind      string `json:"kind"`
				ElapsedUS int64  `json:"elapsed_us"`
				Result    []byte `json:"result"`
			} `json:"result"`
			Done *struct {
				State     string `json:"state"`
				Completed int    `json:"completed"`
			} `json:"done"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			return r
		}
		if res := ev.Result; res != nil {
			if r.first == 0 {
				r.first = time.Since(t0)
			}
			if res.Task < 0 || res.Task >= len(seen) || seen[res.Task] {
				return r
			}
			seen[res.Task] = true
			if want := &b.tasks[res.Task]; res.Kind == want.Kind && bytes.Equal(res.Result, want.want) {
				good++
			}
			r.callbackUs += res.ElapsedUS
		}
		if ev.Done != nil {
			r.total = time.Since(t0)
			done = ev.Done.State == "done" && ev.Done.Completed == len(b.tasks)
		}
	}
	r.stream = r.total - r.submit
	r.ok = done && good == len(b.tasks)
	return r
}

// serveWindow runs the daemon in-process on a 2-rank shm world and
// drives it with the closed-loop clients: a warm-up, then d of recorded
// slices, every slice between two stops at the plain service.
func serveWindow(e *env, m mode, d time.Duration) *window {
	dmn := newServeDaemon()
	warm, slice := serveWarmup, serveSlice
	if e.quick {
		warm, slice = 200*time.Millisecond, 10*time.Millisecond
	}
	clients := make([]*serveClient, serveClientCount)
	var slices []time.Duration // slice s: when both clients started it, since the epoch
	var wallS float64
	driven := make(chan struct{})
	go func() {
		defer close(driven)
		addr, err := dmn.WaitReady(10 * time.Second)
		if err != nil {
			fatalf("serve-shm: %v", err)
		}
		ps := startPlainService()
		defer ps.stop()
		var wg sync.WaitGroup
		meet := newRendezvous(serveClientCount)
		epoch := time.Now()
		for c := range clients {
			cl := &serveClient{
				base:  "http://" + addr,
				plain: "http://" + ps.addr,
				// One keep-alive connection to each service.
				hc:      &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
				batches: makeServeBatches(e.seed*serveClientCount+int64(c), fmt.Sprintf("tenant-%d", c)),
			}
			clients[c] = cl
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer cl.hc.CloseIdleConnections()
				i := 0
				for s := 0; ; s++ {
					over := meet.wait(func() bool { return time.Since(epoch) >= warm+d })
					stop := make([]float64, 0, serveStopRounds)
					for j := 0; j < serveStopRounds; j++ {
						r := cl.doAt(cl.plain, &cl.batches[(i+j)%len(cl.batches)])
						if !r.ok {
							fatalf("serve-shm: the plain service failed a submission")
						}
						stop = append(stop, ms(r.total))
					}
					cl.stops = append(cl.stops, stop)
					if over {
						return
					}
					meet.wait(func() bool {
						slices = append(slices, time.Since(epoch))
						return false
					})
					for begin := time.Now(); time.Since(begin) < slice; i++ {
						r := cl.do(&cl.batches[i%len(cl.batches)])
						r.slice, r.start = s, time.Since(epoch)-r.total
						cl.rounds = append(cl.rounds, r)
					}
				}
			}()
		}
		wg.Wait()
		wallS = (time.Since(epoch) - warm).Seconds()
		dmn.Drain()
	}()

	regs := make([]*obs.Registry, serveWorld(e).Procs)
	recs := make([]*recorder, len(regs))
	e.launch(serveWorld(e), m, func(p pgas.Proc, rec *recorder, _ func(*window)) {
		rt := core.Attach(p)
		regs[p.Rank()] = rt.Registry()
		recs[p.Rank()] = rec
		if rec != nil {
			rec.begin("serve.rank")
		}
		dmn.Body(rt)
		if rec != nil {
			rec.end()
		}
	})
	<-driven

	// A slice's baseline is the median of the stops on both its sides.
	base := make([]float64, len(slices))
	for s := range slices {
		var near []float64
		for _, cl := range clients {
			near = append(near, cl.stops[s]...)
			near = append(near, cl.stops[s+1]...)
		}
		base[s] = median(near)
	}
	win := &window{Layer: map[string]float64{}, WallS: wallS}
	var submit, first, stream []float64
	var callbackUs int64
	perSlice := make([][]float64, len(slices)) // verified daemon rounds, ms
	for c, cl := range clients {
		var crec *recorder
		if m == traced {
			crec = &recorder{Rank: 100 + c, Client: true, Totals: map[string]*spanTotal{}}
			e.traces = append(e.traces, crec)
		}
		for i, r := range cl.rounds {
			if slices[r.slice] < warm {
				continue
			}
			win.Attempted++
			if !r.ok {
				win.Failed++
				continue
			}
			win.RoundMs = append(win.RoundMs, ms(r.total))
			win.SerialMs = append(win.SerialMs, base[r.slice])
			win.RefMs = append(win.RefMs, serveRefBaseMs)
			win.RoundTasks = append(win.RoundTasks, serveBatchTasks)
			win.Tasks += serveBatchTasks
			perSlice[r.slice] = append(perSlice[r.slice], ms(r.total))
			submit = append(submit, ms(r.submit))
			first = append(first, ms(r.first))
			stream = append(stream, ms(r.stream))
			callbackUs += r.callbackUs
			if crec != nil && len(crec.Spans) < maxSpans {
				us := func(d time.Duration) float64 { return float64(d) / 1e3 }
				crec.Spans = append(crec.Spans,
					span{Name: "serve.submit", Round: i, StartUs: us(r.start), EndUs: us(r.start + r.submit), Parent: -1},
					span{Name: "serve.stream", Round: i, StartUs: us(r.start + r.submit), EndUs: us(r.start + r.total), Parent: -1})
			}
		}
	}
	for s, rounds := range perSlice {
		if len(rounds) > 0 {
			win.Speedups = append(win.Speedups, base[s]/median(rounds))
		}
	}
	// One round in 25 finds every processor held by a spinning rank and
	// waits for the Go scheduler to preempt it: 10 ms of timer, which a
	// slow processor does not stretch, in a 0.5 ms round.
	win.StallMs = serveStallMs
	// A client's rounds follow one another without a pause, so its share
	// of the window at reference speed is the sum of its round times, and
	// throughput is the clients' verified tasks over the mean share.
	win.RefWallS = sum(win.refRoundMs()) / 1e3 / serveClientCount
	win.Layer["serve.submit_ms"] = median(submit)
	win.Layer["serve.first_result_ms"] = median(first)
	win.Layer["serve.stream_ms"] = median(stream)
	win.Layer["proc.peak_rss_mb"] = peakRSSMB()
	if recs[0] != nil {
		recs[0].attribute("serve.rank", "serve kinds (task callback)", float64(callbackUs)*1e3)
	}
	if regs[0] != nil { // observed mode: the repo's own counters
		serveObsLayer(win.Layer, regs, wallS)
	}
	return win
}

// serveObsLayer reads the scheduler and serve-plane counters the daemon's
// private task collection registers with the observability layer.
func serveObsLayer(layer map[string]float64, regs []*obs.Registry, wallS float64) {
	total := func(name string) (t int64) {
		for _, r := range regs {
			t += r.Counter(name, "").Value()
		}
		return t
	}
	var g core.Stats
	for _, r := range regs {
		for _, outcome := range []string{"ok", "empty", "busy"} {
			n := r.Histogram(`scioto_steal_latency_seconds{outcome="`+outcome+`"}`, "").Count()
			g.StealAttempts += n
			if outcome == "ok" {
				g.StealsOK += n
			}
		}
		g.WorkTime += r.Histogram("scioto_task_exec_seconds", "").Sum()
	}
	g.InlineExecs = total("scioto_tasks_inline_total")
	g.TasksStolen = total("scioto_tasks_stolen_total")
	g.Releases = total("scioto_queue_releases_total")
	g.Reacquires = total("scioto_queue_reacquires_total")
	g.WavesSeen = total("scioto_td_waves_total")
	g.Votes = total("scioto_td_votes_total")
	coreLayer(layer, g, float64(len(regs))*wallS)
	if phases := total("scioto_serve_phases_total"); phases > 0 {
		layer["serve.tasks_per_phase"] = float64(total("scioto_serve_results_total")) / float64(phases)
	}
	layer["serve.rejected"] = float64(total("scioto_serve_rejections_total"))
}
