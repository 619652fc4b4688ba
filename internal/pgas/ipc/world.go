package ipc

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"scioto/internal/pgas"
	"scioto/internal/pgas/launch"
)

// Config parameterizes a multi-process ipc world.
type Config struct {
	// NProcs is the number of rank processes to launch.
	NProcs int
	// Seed seeds the per-rank deterministic random sources.
	Seed int64
	// SpeedFactor, when non-nil, returns the relative cost multiplier for
	// computation on the given rank. It is not shipped to children: every
	// child re-constructs the same Config by re-executing the program, so
	// it must be deterministic.
	SpeedFactor func(rank int) float64

	// Survivable keeps the world operating across rank deaths: each death
	// is delivered to each survivor once (acknowledged through
	// pgas.Resilient.SurviveFault), barriers complete over the live
	// membership, and a clean finish of the remaining ranks makes Run
	// return nil. Without it the first death poisons the world and the
	// launcher kills stragglers after Grace.
	Survivable bool

	// ArenaBytes is each rank's symmetric-heap capacity. Zero selects
	// SCIOTO_IPC_ARENA or the 64 MiB default.
	ArenaBytes int64
	// RingBytes is each (sender, receiver) mailbox ring's capacity. Zero
	// selects SCIOTO_IPC_RING or the 256 KiB default.
	RingBytes int64
	// Grace is how long the launcher lets surviving ranks self-report
	// rank-attributed faults after the first rank failure before killing
	// whatever is left (non-survivable worlds only). Zero selects
	// SCIOTO_IPC_GRACE or the 3s default.
	Grace time.Duration
}

// Environment of the ipc world: the descriptor number the ranks inherit
// the shared region as (the transport's own variable in the launch
// handshake, see package launch) and the knobs read where the matching
// Config field is zero.
const (
	envFile  = "SCIOTO_IPC_FILE"
	envArena = "SCIOTO_IPC_ARENA"
	envRing  = "SCIOTO_IPC_RING"
)

// childFD is the region's descriptor in a rank process: the first of
// exec.Cmd.ExtraFiles.
const childFD = 3

// NewWorld creates an ipc world on the shared self-exec launcher (package
// launch): in the launching process Run creates the shared region and spawns
// one OS process per rank; in a spawned rank process the matching NewWorld
// call returns that rank's handle and the others return inert worlds whose
// Run is a no-op.
func NewWorld(cfg Config) pgas.World {
	cfg.ArenaBytes = launch.Bytes("ipc", cfg.ArenaBytes, envArena, 64<<20)
	cfg.RingBytes = launch.Bytes("ipc", cfg.RingBytes, envRing, 256<<10)
	g := &region{cfg: cfg}
	g.s = &launch.Spec{
		Transport: "ipc",
		NProcs:    cfg.NProcs,
		Grace:     cfg.Grace,
		ExtraEnv:  envFile,
		Open:      g.open,
		Close:     g.close,
		Fetch:     func(rank int) (byte, []byte) { return g.m.readReport(rank) },
		Killed:    g.killed,
		Blamed:    g.registered,
		Join:      g.join,
	}
	if cfg.Survivable {
		g.s.Recovered = g.recovered
	}
	return launch.NewWorld(g.s)
}

// region carries ipc's steps of the launch. The launching process creates
// the shared region and maps it too — the control region is where failed
// ranks leave their exit reports and where the launcher registers the
// deaths of ranks that could not; a rank process only joins.
type region struct {
	cfg Config
	s   *launch.Spec
	f   *os.File
	m   *mapping
}

// open creates the region fully-formed before any child starts: there is
// no rendezvous, a child maps the descriptor it inherits and goes. The
// region is a file no path names (createRegionFile), so nothing outlives
// the processes that hold it.
func (g *region) open() (fd string, err error) {
	g.f, err = createRegionFile()
	if err != nil {
		return "", fmt.Errorf("ipc: creating shared region: %v", err)
	}
	l := computeLayout(g.cfg.NProcs, g.cfg.ArenaBytes, g.cfg.RingBytes)
	if err = g.f.Truncate(l.total); err != nil {
		err = fmt.Errorf("ipc: sizing shared region to %d bytes: %v", l.total, err)
	} else {
		g.m, err = mapFile(g.f, l)
	}
	if err != nil {
		g.close()
		return "", err
	}
	g.m.writeHeader()
	g.m.store(l.liveCount, int64(g.cfg.NProcs))
	g.s.ExtraFiles = []*os.File{g.f}
	return strconv.Itoa(childFD), nil
}

func (g *region) close() {
	if g.m != nil {
		g.m.unmap()
	}
	g.f.Close()
}

// killed registers the death of a rank a signal killed — it could not
// register itself — breaking the control lock if the victim died holding
// it, so the survivors observe the death on their next operation.
func (g *region) killed(fe *pgas.FaultError) {
	parentTag := ctlLockParent(g.cfg.NProcs)
	g.m.breakCtlOf(fe.Rank, parentTag)
	g.m.unlockCtl(parentTag)
	g.m.registerDeath(parentTag, fe)
}

// registered is ipc's tier of root-cause selection: the control region's
// fault record. Survivors that exited silently (cascade clones write no
// report) still left the origin fault registered.
func (g *region) registered([]launch.Report) (reporter int, fe *pgas.FaultError) {
	if g.m.load(g.m.l.faultSeq) == 0 {
		return 0, nil
	}
	fe = g.m.readFaultRec()
	return fe.Rank, fe
}

// recovered is the survivable world's verdict: a death happened, but every
// rank not registered dead finished cleanly — the job completed despite
// the fault.
func (g *region) recovered(reports []launch.Report) bool {
	for _, r := range reports {
		if g.m.load(g.m.l.deadFlag(r.Rank)) == 0 {
			return false
		}
	}
	return g.m.load(g.m.l.faultSeq) > 0
}

// join is the rank-side boot step: map the inherited region, check it is
// the world this process was configured for, and build the rank's Proc.
func (g *region) join(rank int, fd string) (*launch.Rank, error) {
	cfg := g.cfg
	n, err := strconv.Atoi(fd)
	if err != nil {
		return nil, fmt.Errorf("bad %s=%q", envFile, fd)
	}
	f := os.NewFile(uintptr(n), "scioto-ipc")
	m, err := mapFile(f, computeLayout(cfg.NProcs, cfg.ArenaBytes, cfg.RingBytes))
	f.Close() // the mapping outlives the descriptor
	if err != nil {
		return nil, err
	}
	if err := m.checkHeader(); err != nil {
		return nil, err
	}
	p := &proc{cfg: cfg, m: m, rank: rank}
	p.clk = pgas.NewClock(time.Now(), nil, cfg.Seed, rank, cfg.SpeedFactor)
	p.Bind(p)
	return &launch.Rank{
		Proc: p,
		// A failing rank registers its death in the control region
		// (poisoning the survivors) and writes its exit-report slot —
		// unless the fault is a cascade clone of a death already
		// registered, in which case it exits silently and the launcher
		// attributes the world error to the origin.
		Fail: func(fe *pgas.FaultError, kind byte, payload []byte) {
			if m.registerDeath(p.tag(), fe) || kind == launch.ReportText {
				m.writeReport(rank, kind, payload)
			}
		},
		// Completion barrier: no rank may exit while a sibling still has
		// operations or messages in flight against its arena — the region
		// stays mapped in the survivors, but the program contract is that
		// Run returns only after every rank finished.
		Finish: p.Barrier,
	}, nil
}
