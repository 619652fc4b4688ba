// Command sciotod runs a Scioto world as a persistent task-ingest
// service: it brings the world up, keeps every rank inside one long
// task-parallel phase, and serves the HTTP/JSON ingest API
// (internal/serve) until a SIGTERM/SIGINT drains it.
//
//	sciotod -procs 4 -addr 127.0.0.1:8080
//	curl -s localhost:8080/v1/submit -d '{"tasks":[{"kind":"fib","arg":30}]}'
//	curl -sN localhost:8080/v1/submissions/s-000001/stream
//
// The first signal starts a graceful drain: new submissions are refused
// with 503, admitted work runs to completion, result streams flush, and
// the process exits 0. A second signal force-quits.
//
// With -recover (shm or ipc) every task is journaled for work replay: a
// worker rank's death is healed by the survivors, lost tasks
// are re-queued from the journal, and results that died with the rank
// are re-run, so clients still stream every result. See DESIGN.md
// "Recovery". Rank 0 hosts the gateway, so its death stays fatal.
//
// Transports: shm (default — one process, ranks as goroutines), ipc (one
// OS process per rank over a zero-copy shared mapping; the launcher
// relays SIGTERM/SIGINT to the rank-0 process, which hosts the gateway),
// and tcp (one OS process per rank; the gateway endpoint lives in the
// rank-0 process, so deliver the drain signal there, or Ctrl-C the
// foreground process group). dsim is rejected: its clock is virtual, so
// a live ingest endpoint has no meaningful time base.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"scioto"
	"scioto/cmd/internal/transportflag"
	"scioto/internal/core"
	"scioto/internal/serve"
)

func main() {
	tr := transportflag.Flag(scioto.TransportSHM)
	obs := transportflag.ObsFlags()
	var (
		procs      = flag.Int("procs", 4, "number of ranks in the world")
		addr       = flag.String("addr", "127.0.0.1:8080", "ingest API listen address (port 0 = ephemeral)")
		seed       = flag.Int64("seed", 1, "world seed")
		maxPending = flag.Int("max-pending", 0, "admitted-but-incomplete task bound (0 = default 8192)")
		maxBatch   = flag.Int("max-tasks-per-submit", 0, "per-submission task bound (0 = default 4096)")
		maxPayload = flag.Int("max-payload", 0, "per-task payload byte bound (0 = default 256)")
		rate       = flag.Float64("tenant-rate", 0, "per-tenant admission rate, tasks/s (0 = unlimited)")
		burst      = flag.Int("tenant-burst", 0, "per-tenant admission burst (0 = default)")
		rec        = flag.Bool("recover", false, "arm work-replay recovery: journal every task and heal around a worker rank's death (shm or ipc)")
	)
	flag.Parse()
	if tr.Transport() == scioto.TransportDSim {
		fmt.Fprintln(os.Stderr, "sciotod: the dsim transport runs in virtual time and cannot serve a live ingest endpoint; use shm or tcp")
		os.Exit(2)
	}
	if *rec && tr.Transport() != scioto.TransportSHM && tr.Transport() != scioto.TransportIPC {
		fmt.Fprintln(os.Stderr, "sciotod: -recover needs a survivable transport; only shm and ipc qualify for a live endpoint")
		os.Exit(2)
	}

	d := serve.New(serve.Config{
		Addr:              *addr,
		MaxPending:        *maxPending,
		MaxTasksPerSubmit: *maxBatch,
		MaxPayload:        *maxPayload,
		TenantRate:        *rate,
		TenantBurst:       *burst,
	})

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "sciotod: %v received, draining\n", s)
		d.Drain()
		<-sig
		fmt.Fprintln(os.Stderr, "sciotod: second signal, force quit")
		os.Exit(1)
	}()

	cfg := scioto.Config{
		Procs:     *procs,
		Transport: tr.Transport(),
		Seed:      *seed,
		Recover:   *rec,
		Obs:       obs.Config(),
	}
	transportflag.Check(scioto.Run(cfg, func(rt *core.Runtime) { d.Body(rt) }))
}
