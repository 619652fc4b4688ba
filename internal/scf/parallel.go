package scf

import (
	"fmt"
	"time"

	"scioto/internal/core"
	"scioto/internal/ga"
	"scioto/internal/linalg"
	"scioto/internal/pgas"
)

// Method selects the dynamic load-balancing scheme for the Fock build.
type Method int

const (
	// MethodCounter is the paper's "SCF-Original" scheme: a replicated
	// task list walked with a shared global counter (NGA_Read_inc). It is
	// locality-oblivious and the counter host becomes a bottleneck.
	MethodCounter Method = iota
	// MethodScioto seeds one task per locally-owned Fock block into a
	// Scioto task collection with high affinity and lets work stealing
	// absorb the screening-induced imbalance.
	MethodScioto
)

func (m Method) String() string {
	switch m {
	case MethodCounter:
		return "counter"
	case MethodScioto:
		return "scioto"
	default:
		return "unknown"
	}
}

// RunConfig parameterizes a parallel SCF run.
type RunConfig struct {
	Sys     SystemConfig
	Method  Method
	MaxIter int
	ConvTol float64
	// PerIntegral is the modeled cost charged per evaluated integral (the
	// real Gaussian integral cost the synthetic formula stands in for).
	// Zero means 100ns.
	PerIntegral time.Duration
	// TC configures the Scioto task collection (MethodScioto only).
	TC core.Config
}

// Result reports a parallel SCF run.
type Result struct {
	SCF SCFResult
	// FockTime is the virtual/wall time this process spent inside Fock
	// build phases (the dynamically load-balanced part).
	FockTime time.Duration
	// Elapsed is the total loop time on this process.
	Elapsed time.Duration
	// TaskStats holds Scioto counters (MethodScioto only).
	TaskStats core.Stats
}

// fockTaskBody is the wire layout of a Fock block task: two int32 block
// indices.
const fockTaskBody = 8

// Run executes the SCF loop with the Fock build distributed by the chosen
// method. Collective. The returned energy is identical on every process.
func Run(p pgas.Proc, cfg RunConfig) (Result, error) {
	if cfg.PerIntegral == 0 {
		cfg.PerIntegral = 100 * time.Nanosecond
	}
	opts := defaultOpts()
	if cfg.MaxIter > 0 {
		opts.maxIter = cfg.MaxIter
	}
	if cfg.ConvTol > 0 {
		opts.convTol = cfg.ConvTol
	}

	sys := NewSystem(cfg.Sys) // deterministic: identical on every process
	bs := sys.Cfg.BlockSize

	dGA := ga.New(p, sys.N, sys.N, bs, bs)
	gGA := ga.New(p, sys.N, sys.N, bs, bs)
	fock := &fockBuilder{
		p: p, sys: sys, d: ga.NewView(dGA), g: gGA,
		out: make([]float64, bs*bs), perIntegral: cfg.PerIntegral,
	}

	var res Result
	start := p.Now()

	// Scioto setup (shared across iterations; the collection is reset and
	// reseeded each Fock build — the paper's phase-based usage).
	var rt *core.Runtime
	var tc *core.TC
	var handle core.Handle
	if cfg.Method == MethodScioto {
		rt = core.Attach(p)
		tcCfg := cfg.TC
		tcCfg.MaxBodySize = fockTaskBody
		if tcCfg.MaxTasks == 0 {
			tcCfg.MaxTasks = sys.NB*sys.NB + 16
		}
		tc = core.NewTC(rt, tcCfg)
		handle = tc.Register(func(tc *core.TC, t *core.Task) {
			bi := int(pgas.GetI32(t.Body()))
			bj := int(pgas.GetI32(t.Body()[4:]))
			fock.block(bi, bj)
		})
	}
	var counter *ga.Counter
	if cfg.Method == MethodCounter {
		counter = ga.NewCounter(p, 0)
	}

	// Replicated density loop state: every rank drives an identical,
	// deterministic loop object so densities stay replicated without
	// broadcasts of the post-processing results.
	loop := sys.newLoop(opts)
	for it := 0; it < opts.maxIter; it++ {
		// Publish the density and clear the Fock accumulator. The barrier
		// below opens the build, during which nobody writes D: the ranks
		// read it through a cache that lives exactly that long.
		fock.d.Invalidate()
		if p.Rank() == 0 {
			dGA.ScatterFrom(loop.density().Data)
			if counter != nil {
				counter.Reset()
			}
		}
		gGA.ZeroLocal()
		p.Barrier()

		// Distributed Fock build.
		t0 := p.Now()
		switch cfg.Method {
		case MethodCounter:
			total := sys.NB * sys.NB
			for {
				idx := int(counter.Next())
				if idx >= total {
					break
				}
				fock.block(idx/sys.NB, idx%sys.NB)
			}
		case MethodScioto:
			task := core.NewTask(handle, fockTaskBody)
			for bi := 0; bi < sys.NB; bi++ {
				for bj := 0; bj < sys.NB; bj++ {
					if gGA.Owner(bi, bj) != p.Rank() {
						continue
					}
					pgas.PutI32(task.Body(), int32(bi))
					pgas.PutI32(task.Body()[4:], int32(bj))
					if err := tc.Add(p.Rank(), core.AffinityHigh, task); err != nil {
						return res, fmt.Errorf("scf: seed fock task: %w", err)
					}
				}
			}
			tc.Process()
			tc.Reset()
		default:
			return res, fmt.Errorf("scf: unknown method %d", cfg.Method)
		}
		// One all-reduce per build closes it: whichever rank executed a
		// task tallied its integrals, so the sum is exact under stealing,
		// and no rank leaves before every rank's accumulates are done.
		integrals := []int64{fock.integrals}
		p.AllReduce(integrals, pgas.Sum)
		fock.integrals = 0
		res.FockTime += p.Now() - t0
		res.SCF.Integrals += integrals[0]

		// Replicated post-processing: every rank gathers G and performs an
		// identical, deterministic DIIS step.
		g := linalg.FromSlice(sys.N, sys.N, gGA.Gather())
		e, done := loop.step(g)
		res.SCF.History = append(res.SCF.History, e)
		res.SCF.Iterations = it + 1
		res.SCF.Energy = e
		if done {
			res.SCF.Converged = true
			break
		}
		p.Barrier()
	}
	p.Barrier()
	res.Elapsed = p.Now() - start
	if tc != nil {
		res.TaskStats = tc.Stats()
	}
	return res, nil
}

// fockBuilder is one rank's state across the Fock builds of a run, shared
// by both load-balancing methods: the cached view of the density, the
// output scratch, and the tally of integrals this rank has evaluated in
// the current build.
type fockBuilder struct {
	p           pgas.Proc
	sys         *System
	d           *ga.View  // density; valid for one build
	g           *ga.Array // Fock accumulator
	out         []float64
	perIntegral time.Duration
	integrals   int64
}

// block computes Fock block (bi, bj) and accumulates it into the G array,
// charging the modeled integral cost. The density blocks that survive
// screening, less those an earlier task of this build already brought in,
// arrive in one window; FockBlock then reads them in place.
func (b *fockBuilder) block(bi, bj int) {
	sys := b.sys
	for bk := 0; bk < sys.NB; bk++ {
		for bl := 0; bl < sys.NB; bl++ {
			if j, k := sys.needs(bi, bj, bk, bl); j || k {
				b.d.Want(bk, bl)
			}
		}
	}
	ga.Fetch(b.d)
	n := sys.FockBlock(bi, bj, b.out, b.d.Block)
	b.p.Compute(time.Duration(n) * b.perIntegral)
	b.g.AccBlock(bi, bj, b.out)
	b.integrals += n
}
