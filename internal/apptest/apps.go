package apptest

import (
	"fmt"
	"math"
	"testing"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/scf"
	"scioto/internal/tce"
)

// RunApplications runs, in one world of three ranks, two-iteration SCF runs
// (the second Fock build reads a density the first one's cache must have
// forgotten) with both load-balancing methods on a system whose blocks tile
// evenly and on one with ragged edge blocks, each held to the serial energy
// and integral count, and a Scioto-balanced TCE contraction held to the
// dense product. shm completes a non-blocking operation at issue; the
// transports whose test packages call this are where one really pends.
//
// The serial references are computed before the world starts, so on a
// multi-process transport every rank process recomputes them identically.
func RunApplications(t *testing.T, w pgas.World) {
	systems := []scf.SystemConfig{
		{NAtoms: 24, BlockSize: 4, Seed: 7},
		{NAtoms: 22, BlockSize: 4, Seed: 3}, // 5 whole blocks and one of 2
	}
	want := make([]scf.SCFResult, len(systems))
	for i, sys := range systems {
		want[i] = scf.NewSystem(sys).SCFSerial(2, 1e-13)
	}
	err := w.Run(func(p pgas.Proc) {
		for i, sys := range systems {
			for _, method := range []scf.Method{scf.MethodCounter, scf.MethodScioto} {
				res, err := scf.Run(p, scf.RunConfig{
					Sys: sys, Method: method, MaxIter: 2, ConvTol: 1e-13,
					PerIntegral: time.Nanosecond, TC: core.Config{ChunkSize: 2},
				})
				if err != nil {
					panic(err)
				}
				if math.Abs(res.SCF.Energy-want[i].Energy) > 1e-9 || res.SCF.Integrals != want[i].Integrals {
					panic(fmt.Sprintf("%d atoms, %v: E=%.12f over %d integrals, serial %.12f over %d",
						sys.NAtoms, method, res.SCF.Energy, res.SCF.Integrals, want[i].Energy, want[i].Integrals))
				}
			}
		}

		c := tce.New(p, tce.Params{NB: 6, BS: 4, Density: 0.4, Band: 1, Seed: 11})
		var blocks, macs int64
		tc, h := c.NewSciotoTC(core.Attach(p), core.Config{ChunkSize: 2}, 0, &blocks, &macs)
		c.ResetC()
		c.RunScioto(tc, h, 0)
		p.Barrier()
		if err := c.VerifyDense(); err != nil {
			panic(err)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
