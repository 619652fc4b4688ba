// Package scioto is a Go reproduction of Scioto — Shared Collections of
// Task Objects (Dinan, Krishnamoorthy, Larkins, Nieplocha, Sadayappan;
// ICPP 2008) — a framework for global-view task parallelism on
// distributed-memory machines over one-sided communication.
//
// A Scioto program is SPMD: every process attaches a Runtime, collectively
// creates one or more task collections (TC), seeds them with task objects,
// and collectively calls TC.Process to enter a MIMD task-parallel phase.
// The runtime dynamically balances load with locality-aware work stealing
// over split queues and detects global termination with token waves.
//
// Because Go has no MPI or ARMCI, the distributed machine itself is
// provided by this module: Run launches N processes over one of four
// interchangeable transports — real shared-memory concurrency ("shm"), a
// deterministic discrete-event simulation in virtual time ("dsim") that
// models network latency, bandwidth, and heterogeneous processor speeds,
// real OS processes on one host sharing a zero-copy mapped file ("ipc"),
// or real OS processes communicating over TCP ("tcp"; both launched by
// re-executing the current binary). The Scioto runtime, the Global Arrays
// subset, and the bundled applications are written purely against the
// one-sided pgas interface, so they cannot tell the difference.
//
// Minimal program:
//
//	cfg := scioto.Config{Procs: 4}
//	err := scioto.Run(cfg, func(rt *scioto.Runtime) {
//		tc := scioto.NewTC(rt, scioto.TCConfig{MaxBodySize: 8})
//		h := tc.Register(func(tc *scioto.TC, t *scioto.Task) {
//			// ... do work, spawn subtasks with tc.Add ...
//		})
//		task := scioto.NewTask(h, 8)
//		tc.Add(rt.Rank(), scioto.AffinityHigh, task)
//		tc.Process()
//	})
package scioto

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"time"

	"scioto/internal/core"
	"scioto/internal/obs"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/faulty"
	"scioto/internal/pgas/instr"
	"scioto/internal/pgas/ipc"
	"scioto/internal/pgas/shm"
	"scioto/internal/pgas/tcp"
	"scioto/internal/trace"
)

// Core types, re-exported from the runtime implementation.
type (
	// Runtime is the per-process attachment point (CLOs, task collections).
	Runtime = core.Runtime
	// TC is a task collection.
	TC = core.TC
	// TCConfig parameterizes a task collection (tc_create's arguments).
	TCConfig = core.Config
	// Task is a task descriptor: standard header plus opaque body.
	Task = core.Task
	// TaskFunc is a task execution callback. The descriptor it receives is
	// the runtime's reusable one: scribble on it and re-add it freely (Add
	// copies in), but it is valid only until the callback returns.
	TaskFunc = core.TaskFunc
	// Handle is a portable task-callback reference.
	Handle = core.Handle
	// CLOHandle is a portable common-local-object reference.
	CLOHandle = core.CLOHandle
	// Stats holds per-process runtime counters.
	Stats = core.Stats
	// QueueMode selects split (default) or fully locked queues.
	QueueMode = core.QueueMode
	// Dep is a portable reference to a deferred (dependency-gated) task.
	Dep = core.Dep
	// Proc is the underlying one-sided communication handle.
	Proc = pgas.Proc
	// Transport names a machine implementation ("shm", "dsim", "ipc", or
	// "tcp").
	Transport = pgas.Transport
	// FaultError is the structured error Run returns when a rank fails:
	// it names the failing rank, the phase of the failure, and (when
	// observed locally) the operation that surfaced it. Retrieve it from
	// a Run error with AsFault or errors.As.
	FaultError = pgas.FaultError
	// FaultConfig parameterizes the deterministic fault-injection layer
	// (see Config.Faults).
	FaultConfig = faulty.Config
)

// NoCrash is the FaultConfig.CrashRank value meaning "crash nobody".
const NoCrash = faulty.NoCrash

// AsFault extracts the *FaultError from an error returned by Run (or
// World.Run), if one is present anywhere in its chain.
func AsFault(err error) (*FaultError, bool) { return pgas.AsFault(err) }

// FaultsFromEnv reads the SCIOTO_FAULT_* environment variables into a
// FaultConfig; ok reports whether any were set. Run consults it
// automatically, so setting the variables is enough to chaos-test an
// unmodified program.
func FaultsFromEnv() (cfg FaultConfig, ok bool) { return faulty.FromEnv() }

// Re-exported constants.
const (
	// AffinityHigh places a task at the owner-processing end of its queue.
	AffinityHigh = core.AffinityHigh
	// AffinityLow places a task at the steal end of its queue.
	AffinityLow = core.AffinityLow
	// ModeSplit is the split-queue discipline (lock-free local ops).
	ModeSplit = core.ModeSplit
	// ModeLocked is the fully locked ablation mode.
	ModeLocked = core.ModeLocked
	// TransportSHM selects real shared-memory concurrency.
	TransportSHM = pgas.TransportSHM
	// TransportDSim selects the deterministic virtual-time machine.
	TransportDSim = pgas.TransportDSim
	// TransportIPC selects real OS processes on one host sharing a
	// zero-copy mapped file.
	TransportIPC = pgas.TransportIPC
	// TransportTCP selects real OS processes communicating over TCP.
	TransportTCP = pgas.TransportTCP
	// TermWave selects the paper's wave-based termination detection.
	TermWave = core.TermWave
	// TermCounter selects the eager global-counter termination ablation.
	TermCounter = core.TermCounter
)

// DepBytes is the encoded size of a Dep (see EncodeDep/DecodeDep).
const DepBytes = core.DepBytes

// NewTask creates a task descriptor with the given callback handle and
// body size.
func NewTask(h Handle, bodySize int) *Task { return core.NewTask(h, bodySize) }

// EncodeDep writes a deferred-task reference into a task body.
func EncodeDep(b []byte, d Dep) { core.EncodeDep(b, d) }

// DecodeDep reads a deferred-task reference from a task body.
func DecodeDep(b []byte) Dep { return core.DecodeDep(b) }

// NewTC collectively creates a task collection on the runtime.
func NewTC(rt *Runtime, cfg TCConfig) *TC { return core.NewTC(rt, cfg) }

// Attach initializes the Scioto runtime on a raw pgas process handle (for
// programs that construct their own worlds).
func Attach(p Proc) *Runtime { return core.Attach(p) }

// Config describes the machine a SPMD body runs on.
type Config struct {
	// Procs is the number of processes. Required.
	Procs int
	// Transport selects the machine implementation. Default TransportSHM.
	Transport Transport
	// Seed makes runs reproducible (bit-exact on TransportDSim).
	Seed int64

	// Latency is the one-sided remote operation latency (dsim; also
	// injected on shm when nonzero).
	Latency time.Duration
	// MsgLatency is the two-sided message latency (dsim only).
	MsgLatency time.Duration
	// PerByte is the bandwidth term per transferred byte.
	PerByte time.Duration
	// Occupancy models serialization at the target of remote operations on
	// the dsim transport (hot-spot contention); see dsim.Config.Occupancy.
	Occupancy time.Duration
	// SpeedFactor models heterogeneous processors: the returned multiplier
	// scales each rank's computation cost (1.0 = nominal).
	SpeedFactor func(rank int) float64

	// Recover arms work-replay recovery: every task insertion is journaled
	// in symmetric memory, and when a worker rank dies mid-phase the
	// survivors reconstruct its lost tasks from the journals, re-root the
	// termination tree around it, and finish the phase with an exact
	// completion count (see DESIGN.md "Recovery"). Only the shm, dsim,
	// and ipc transports are survivable; recovery requires wave
	// termination (the
	// TC default). The death of rank 0 stays fatal — Run then returns an
	// error matching ErrUnrecoverable. When false, the SCIOTO_RECOVER
	// environment variable (any non-empty value but "0") arms it instead.
	Recover bool

	// Faults, when non-nil, wraps the machine in the deterministic
	// fault-injection layer: seed-driven dropped operations, delays, lock
	// and barrier stalls, and a one-shot rank crash (see FaultConfig).
	// When nil, the SCIOTO_FAULT_* environment variables are consulted
	// instead (FaultsFromEnv), so fault injection can be switched on
	// without touching the program.
	Faults *FaultConfig

	// Obs, when non-nil, enables the observability layer: every transport
	// operation and scheduler event records into per-rank metrics, the
	// live introspection endpoint serves them, and injected faults are
	// counted and traced. When nil, the SCIOTO_OBS_* environment
	// variables are consulted instead (ObsFromEnv), so an unmodified
	// program can be observed by setting SCIOTO_OBS_ADDR — including tcp
	// rank processes, which inherit the environment.
	Obs *ObsConfig
}

// ObsConfig parameterizes the observability layer (see Config.Obs).
// The zero value enables metrics collection with no endpoint and no
// trace dumps.
type ObsConfig struct {
	// Addr, when non-empty, serves the live introspection endpoint at
	// host:port: Prometheus text at /metrics, JSON liveness at /healthz,
	// and the Go profiler under /debug/pprof. Port 0 picks an ephemeral
	// port (logged to stderr). On the tcp transport each rank process
	// serves on port+rank.
	Addr string
	// TraceDir, when non-empty, makes every rank's recorder retain its
	// records and dump them to TraceDir/trace-rankNNNN.json when the
	// rank's body returns (or panics — the dump is deferred). Merge the
	// per-rank files into a Chrome trace or an attribution report with
	// cmd/sciototrace. Without it the recorder keeps aggregates only.
	TraceDir string
	// TraceLimit caps the records each rank retains for the dump (0 =
	// trace.DefaultLimit); later ones are dropped and counted.
	TraceLimit int
}

// Environment knobs, read by ObsFromEnv. Each maps to the ObsConfig
// field of the same name.
const (
	EnvObsAddr       = "SCIOTO_OBS_ADDR"
	EnvObsTraceDir   = "SCIOTO_OBS_TRACE_DIR"
	EnvObsTraceLimit = "SCIOTO_OBS_TRACE_LIMIT"
)

// EnvRecover is the environment fallback for Config.Recover.
const EnvRecover = "SCIOTO_RECOVER"

// recoverOn resolves the effective recovery setting: the explicit flag, or
// the environment fallback.
func (c Config) recoverOn() bool {
	if c.Recover {
		return true
	}
	v := os.Getenv(EnvRecover)
	return v != "" && v != "0"
}

// ErrUnrecoverable matches (with errors.Is) the error Run returns when
// recovery was armed but the fault cannot be healed around: the death of
// rank 0, the termination-tree root and, in serve mode, the gateway. The
// underlying *FaultError is still retrievable with AsFault.
var ErrUnrecoverable = errors.New("scioto: unrecoverable fault")

// unrecoverableError brands a fault as beyond recovery while keeping the
// FaultError reachable for AsFault / errors.As.
type unrecoverableError struct{ err error }

func (e *unrecoverableError) Error() string {
	return "scioto: unrecoverable fault: " + e.err.Error()
}

func (e *unrecoverableError) Unwrap() []error { return []error{ErrUnrecoverable, e.err} }

// ObsFromEnv assembles an ObsConfig from the SCIOTO_OBS_* environment
// variables. ok reports whether any knob was set; when none is,
// observability stays off. A malformed trace limit is reported and
// ignored, mirroring FaultsFromEnv.
func ObsFromEnv() (cfg ObsConfig, ok bool) {
	set := false
	if v := os.Getenv(EnvObsAddr); v != "" {
		cfg.Addr = v
		set = true
	}
	if v := os.Getenv(EnvObsTraceDir); v != "" {
		cfg.TraceDir = v
		set = true
	}
	if v := os.Getenv(EnvObsTraceLimit); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			fmt.Fprintf(os.Stderr, "scioto: ignoring malformed %s=%q\n", EnvObsTraceLimit, v)
		} else {
			cfg.TraceLimit = n
			set = true
		}
	}
	return cfg, set
}

// obsConfig resolves the effective observability configuration: the
// explicit Config.Obs, or the environment fallback.
func (c Config) obsConfig() (ObsConfig, bool) {
	if c.Obs != nil {
		return *c.Obs, true
	}
	return ObsFromEnv()
}

// NewWorld constructs the configured machine without running anything,
// for callers that want direct pgas access.
func (c Config) NewWorld() (pgas.World, error) {
	if c.Procs <= 0 {
		return nil, fmt.Errorf("scioto: Config.Procs must be positive, got %d", c.Procs)
	}
	var w pgas.World
	switch c.Transport {
	case TransportDSim:
		w = dsim.NewWorld(dsim.Config{
			NProcs:      c.Procs,
			Seed:        c.Seed,
			Latency:     c.Latency,
			MsgLatency:  c.MsgLatency,
			PerByte:     c.PerByte,
			Occupancy:   c.Occupancy,
			SpeedFactor: c.SpeedFactor,
			Survivable:  c.recoverOn(),
		})
	case TransportSHM, "":
		w = shm.NewWorld(shm.Config{
			NProcs:        c.Procs,
			Seed:          c.Seed,
			RemoteLatency: c.Latency,
			RemotePerByte: c.PerByte,
			SpeedFactor:   c.SpeedFactor,
			Survivable:    c.recoverOn(),
		})
	case TransportIPC:
		w = ipc.NewWorld(ipc.Config{
			NProcs:      c.Procs,
			Seed:        c.Seed,
			SpeedFactor: c.SpeedFactor,
			Survivable:  c.recoverOn(),
		})
	case TransportTCP:
		w = tcp.NewWorld(tcp.Config{
			NProcs:      c.Procs,
			Seed:        c.Seed,
			SpeedFactor: c.SpeedFactor,
		})
	default:
		return nil, fmt.Errorf("scioto: unknown transport %q", c.Transport)
	}
	// Wrapping order: transport → faulty → instr. Fault injection wraps
	// the transport so injected faults travel the same panic/recover path
	// as real ones; instrumentation wraps outermost so injected delays
	// and stalls are measured like any other latency. The env fallbacks
	// also run in re-executed tcp rank processes (the variables are
	// inherited), so parent and children agree on the world construction
	// sequence.
	obsCfg, obsOn := c.obsConfig()
	var hub *obs.Hub
	if obsOn {
		hub = obs.NewHub()
	}
	fc, faultsOn := c.Faults, true
	if fc == nil {
		var envCfg FaultConfig
		envCfg, faultsOn = faulty.FromEnv()
		fc = &envCfg
	}
	if faultsOn {
		cfg := *fc
		if hub != nil {
			cfg.Observe = hub.RecordFault
		}
		w = faulty.Wrap(w, cfg)
	}
	if obsOn {
		w = instr.Wrap(w, hub, instr.Options{
			Addr:        obsCfg.Addr,
			PerRankPort: c.Transport == TransportTCP || c.Transport == TransportIPC,
		})
	}
	return w, nil
}

// Run launches the SPMD body on every process of the configured machine
// with a Scioto runtime attached, and returns when all processes finish.
// If a rank fails — a panic in the body, a peer process death on the tcp
// transport, or an injected fault — Run tears the world down and returns
// an error carrying a *FaultError that names the failing rank and phase
// (retrieve it with AsFault).
func Run(cfg Config, body func(rt *Runtime)) error {
	w, err := cfg.NewWorld()
	if err != nil {
		return err
	}
	hub := instr.HubOf(w)
	obsCfg, _ := cfg.obsConfig()
	recoverOn := cfg.recoverOn()
	err = w.Run(func(p pgas.Proc) {
		if hub != nil {
			rank := p.Rank()
			reg := hub.Registry(rank)
			// One recorder per rank, shared by the runtime layers (queue,
			// TD, executor), the transport underneath and the fault hook.
			// Its aggregates are registry series; it retains records only
			// when there is somewhere to dump them.
			limit := 0
			if obsCfg.TraceDir != "" {
				limit = obsCfg.TraceLimit
				if limit == 0 {
					limit = trace.DefaultLimit
				}
			}
			rec := trace.NewRecorder(rank, limit, reg)
			hub.SetTracer(rank, rec)
			if limit > 0 {
				// Deferred without a recover: a crashing rank still dumps
				// the records leading up to the fault, then the panic
				// continues into World.Run's containment.
				defer func() {
					if _, err := rec.WriteFile(obsCfg.TraceDir); err != nil {
						fmt.Fprintf(os.Stderr, "scioto: rank %d trace dump failed: %v\n", rank, err)
					}
				}()
			}
			// Registered against the proc rather than set on one Runtime:
			// application drivers attach their own Runtime from the raw
			// proc handle, and must inherit the observer too.
			core.RegisterProcObserver(p, core.NewObserver(p, reg, rec))
			defer core.UnregisterProcObserver(p)
		}
		if recoverOn {
			core.RegisterProcRecovery(p)
			defer core.UnregisterProcRecovery(p)
		}
		body(core.Attach(p))
	})
	if recoverOn && err != nil {
		if fe, ok := AsFault(err); ok && fe.Rank == 0 {
			return &unrecoverableError{err: err}
		}
	}
	return err
}
