// Package instr wraps any pgas transport with transparent instrumentation:
// per-operation-kind latency histograms (split by local/remote scope),
// transferred-byte counters, non-blocking issue→completion window
// tracking, and an opt-in live introspection HTTP endpoint. It composes
// the same way the fault-injection wrapper does — Wrap returns a World
// whose Run hands the SPMD body instrumented Procs, kernels that embed
// the one below and override only what is timed — so all four transports
// are observed identically, and the wrapping
// order transport → faulty → instr means injected delays and stalls are
// measured like any other latency.
//
// Costs when enabled: every operation pays one clock read pair (the
// transport's own Now — virtual time on dsim, so dsim histograms report
// modeled latency, not simulator overhead) and a handful of atomic adds.
// When observability is disabled the runtime never wraps, so the
// disabled cost is exactly zero — this is what keeps the steal path's
// zero-allocation and <5% overhead guarantees trivially intact.
//
// Instrument registration is deterministic: every instrumented Proc
// creates the full instrument set in the same order at attach time,
// regardless of which operations the rank happens to issue, so per-rank
// registries stay congruent and obs.Merger's all-reduce sums like with like.
package instr

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"

	"scioto/internal/obs"
	"scioto/internal/pgas"
)

// Options configures the wrapper.
type Options struct {
	// Addr is the introspection endpoint's listen address ("" serves
	// nothing). Port 0 picks an ephemeral port; the actual URL is logged
	// to stderr either way.
	Addr string
	// PerRankPort shifts the endpoint port by the rank, for transports
	// (tcp) where each rank lives in its own OS process and the processes
	// would otherwise race for one port. With an ephemeral port the shift
	// is skipped — every process just picks its own.
	PerRankPort bool
}

// Wrap composes instrumentation over an existing world, recording into
// per-rank registries of hub.
func Wrap(w pgas.World, hub *obs.Hub, opts Options) pgas.World {
	return &world{inner: w, hub: hub, opts: opts, served: make(map[string]bool)}
}

// HubOf returns the hub a Wrap-ed world records into, or nil when w is
// not an instrumented world. The facade uses it to reach the registries
// and attach trace recorders without threading the hub separately.
func HubOf(w pgas.World) *obs.Hub {
	if iw, ok := w.(*world); ok {
		return iw.hub
	}
	return nil
}

type world struct {
	inner pgas.World
	hub   *obs.Hub
	opts  Options

	mu      sync.Mutex
	served  map[string]bool
	servers []*obs.Server
}

func (w *world) NProcs() int { return w.inner.NProcs() }

func (w *world) Run(body func(p pgas.Proc)) error {
	defer w.closeServers()
	return w.inner.Run(func(p pgas.Proc) {
		w.startServer(p.Rank())
		body(newProc(p, w.hub.Registry(p.Rank())))
	})
}

// serveAddr computes the endpoint address for a rank: the configured
// address, port-shifted by rank when PerRankPort is set (unless the
// port is ephemeral).
func (w *world) serveAddr(rank int) (string, error) {
	host, portStr, err := net.SplitHostPort(w.opts.Addr)
	if err != nil {
		return "", fmt.Errorf("instr: bad obs address %q: %w", w.opts.Addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("instr: bad obs port %q: %w", portStr, err)
	}
	if w.opts.PerRankPort && port != 0 {
		port += rank
	}
	return net.JoinHostPort(host, strconv.Itoa(port)), nil
}

// startServer brings the introspection endpoint up for a rank, once per
// distinct address per process. On the in-process transports every rank
// shares one address, so one server serves the whole hub; on tcp each
// rank process starts its own. Failures are reported and swallowed:
// observability must never kill a run.
func (w *world) startServer(rank int) {
	if w.opts.Addr == "" {
		return
	}
	addr, err := w.serveAddr(rank)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scioto: obs endpoint disabled: %v\n", err)
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.served[addr] {
		return
	}
	w.served[addr] = true
	s, err := obs.Serve(addr, w.hub)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scioto: obs endpoint disabled: %v\n", err)
		return
	}
	w.servers = append(w.servers, s)
	fmt.Fprintf(os.Stderr, "scioto: obs endpoint rank %d serving http://%s/metrics\n", rank, s.Addr())
}

func (w *world) closeServers() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range w.servers {
		s.Close()
	}
	w.servers = nil
}
