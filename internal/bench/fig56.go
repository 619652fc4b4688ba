package bench

import (
	"fmt"
	"time"

	"scioto/internal/core"
	"scioto/internal/ga"
	"scioto/internal/pgas"
	"scioto/internal/scf"
	"scioto/internal/tce"
)

// AppSweepOptions scales the Figure 5/6 application sweeps.
type AppSweepOptions struct {
	Ps []int

	// SCF workload.
	SCFAtoms     int
	SCFBlock     int
	SCFMaxIter   int
	SCFPerIntegr time.Duration

	// TCE workload.
	TCEParams tce.Params
	TCEPerMAC time.Duration

	ChunkSize int
}

func (o AppSweepOptions) withDefaults() AppSweepOptions {
	if len(o.Ps) == 0 {
		o.Ps = []int{1, 2, 4, 8, 16, 32, 64}
	}
	if o.SCFAtoms == 0 {
		o.SCFAtoms = 64
	}
	if o.SCFBlock == 0 {
		o.SCFBlock = 4
	}
	if o.SCFMaxIter == 0 {
		o.SCFMaxIter = 4
	}
	if o.SCFPerIntegr == 0 {
		o.SCFPerIntegr = 600 * time.Nanosecond
	}
	if o.TCEParams.NB == 0 {
		o.TCEParams = tce.Params{NB: 24, BS: 8, Density: 0.3, Band: 2, Seed: 11}
	}
	if o.TCEPerMAC == 0 {
		// One 8x8x8 block multiply-accumulate on ~2008 cores.
		o.TCEPerMAC = 8 * time.Microsecond
	}
	if o.ChunkSize == 0 {
		o.ChunkSize = 4
	}
	return o
}

// QuickAppSweep is the reduced sweep `sciotobench -exp fig5 -quick` runs,
// and the one whose virtual times the golden test pins.
func QuickAppSweep() AppSweepOptions {
	return AppSweepOptions{
		Ps:         []int{1, 2, 4, 8},
		SCFAtoms:   32,
		SCFMaxIter: 2,
		TCEParams:  tce.Params{NB: 12, BS: 4, Density: 0.35, Band: 1, Seed: 11},
	}
}

// AppPoint is one (P, method) measurement.
type AppPoint struct {
	P       int
	Elapsed time.Duration
}

// runSCFPoint measures one SCF run on the cluster calibration.
func runSCFPoint(o AppSweepOptions, n int, method scf.Method) AppPoint {
	pt := AppPoint{P: n}
	mustRun(ClusterWorld(n, 3), func(p pgas.Proc) {
		res, err := scf.Run(p, scf.RunConfig{
			Sys:         scf.SystemConfig{NAtoms: o.SCFAtoms, BlockSize: o.SCFBlock, Seed: 7},
			Method:      method,
			MaxIter:     o.SCFMaxIter,
			ConvTol:     1e-13, // fixed work: run all MaxIter iterations
			PerIntegral: o.SCFPerIntegr,
			TC:          core.Config{ChunkSize: o.ChunkSize},
		})
		if err != nil {
			panic(err)
		}
		if p.Rank() == 0 {
			pt.Elapsed = res.Elapsed
		}
	})
	return pt
}

// runTCEPoint measures one TCE contraction on the cluster calibration.
func runTCEPoint(o AppSweepOptions, n int, method scf.Method) AppPoint {
	pt := AppPoint{P: n}
	mustRun(ClusterWorld(n, 3), func(p pgas.Proc) {
		c := tce.New(p, o.TCEParams)
		var elapsed time.Duration
		switch method {
		case scf.MethodCounter:
			counter := ga.NewCounter(p, 0)
			c.ResetC()
			res := c.RunCounter(counter, o.TCEPerMAC)
			elapsed = res.Elapsed
		case scf.MethodScioto:
			rt := core.Attach(p)
			var blocks, macs int64
			tc, h := c.NewSciotoTC(rt, core.Config{ChunkSize: o.ChunkSize}, o.TCEPerMAC, &blocks, &macs)
			c.ResetC()
			res := c.RunScioto(tc, h, o.TCEPerMAC)
			elapsed = res.Elapsed
		}
		if p.Rank() == 0 {
			pt.Elapsed = elapsed
		}
	})
	return pt
}

// AppSweep holds the full Figure 5/6 data: elapsed time per (series, P).
type AppSweep struct {
	Ps      []int
	SCF     []time.Duration // Scioto
	SCFOrig []time.Duration // global counter
	TCE     []time.Duration
	TCEOrig []time.Duration
}

// RunAppSweep executes all four series over the requested process counts.
func RunAppSweep(o AppSweepOptions) *AppSweep {
	o = o.withDefaults()
	s := &AppSweep{Ps: o.Ps}
	for _, n := range o.Ps {
		s.SCF = append(s.SCF, runSCFPoint(o, n, scf.MethodScioto).Elapsed)
		s.SCFOrig = append(s.SCFOrig, runSCFPoint(o, n, scf.MethodCounter).Elapsed)
		s.TCE = append(s.TCE, runTCEPoint(o, n, scf.MethodScioto).Elapsed)
		s.TCEOrig = append(s.TCEOrig, runTCEPoint(o, n, scf.MethodCounter).Elapsed)
	}
	return s
}

// Fig5 renders the sweep as the paper's Figure 5 (parallel speedup,
// relative to each series' own single-process time).
func (s *AppSweep) Fig5() *Table {
	t := &Table{
		ID:      "fig5",
		Title:   "SCF and TCE parallel speedup on the cluster model (Scioto vs. original)",
		Columns: []string{"P", "SCF", "TCE", "SCF-Original", "TCE-Original"},
		Notes: []string{
			"paper: counter-based originals flatten or degrade by P=64; Scioto versions keep scaling",
			"deviation: our synthetic SCF has too few tasks at P=64 to saturate the counter, which stays ahead (see EXPERIMENTS.md); the TCE contrast is reproduced",
		},
	}
	for i, n := range s.Ps {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			speedup(s.SCF[0], s.SCF[i]),
			speedup(s.TCE[0], s.TCE[i]),
			speedup(s.SCFOrig[0], s.SCFOrig[i]),
			speedup(s.TCEOrig[0], s.TCEOrig[i]),
		})
	}
	return t
}

// Fig6 renders the sweep as the paper's Figure 6 (raw run time, seconds).
func (s *AppSweep) Fig6() *Table {
	t := &Table{
		ID:      "fig6",
		Title:   "SCF and TCE raw run time on the cluster model (seconds, virtual)",
		Columns: []string{"P", "SCF", "TCE", "SCF-Original", "TCE-Original"},
	}
	for i, n := range s.Ps {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			secs(s.SCF[i]),
			secs(s.TCE[i]),
			secs(s.SCFOrig[i]),
			secs(s.TCEOrig[i]),
		})
	}
	return t
}
