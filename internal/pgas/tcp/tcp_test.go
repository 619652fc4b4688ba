package tcp_test

import (
	"os"
	"testing"
	"time"

	"scioto/internal/apptest"
	"scioto/internal/core"
	"scioto/internal/obs"
	"scioto/internal/pgas"
	"scioto/internal/pgas/faulty"
	"scioto/internal/pgas/instr"
	"scioto/internal/pgas/pgastest"
	"scioto/internal/pgas/tcp"
	"scioto/internal/uts"
)

// Every test in this package spawns real OS processes: a world with n ranks
// re-executes this test binary n times (see doc.go). Tests must therefore
// run sequentially and create worlds in deterministic order — no t.Parallel
// anywhere in this file, and test functions stay in declaration order.

func factory(n int) pgas.World {
	return tcp.NewWorld(tcp.Config{NProcs: n, Seed: 1})
}

// TestRanksAreSeparateProcesses pins down the property that distinguishes
// this transport from shm and dsim: the ranks really are distinct OS
// processes. Each rank stores its pid into rank 0's word segment; rank 0
// requires them pairwise distinct (goroutine-based transports would report
// one pid for all ranks).
func TestRanksAreSeparateProcesses(t *testing.T) {
	const n = 4
	w := factory(n)
	if err := w.Run(func(p pgas.Proc) {
		ws := p.AllocWords(n)
		p.Store64(0, ws, p.Rank(), int64(os.Getpid()))
		p.Barrier()
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if a, b := p.Load64(0, ws, i), p.Load64(0, ws, j); a == b {
						panic("two ranks share an OS process")
					}
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestConformance(t *testing.T) {
	pgastest.RunConformanceOptions(t, factory, pgastest.Options{
		MultiProcess: true,
		RankProcess:  os.Getenv("SCIOTO_TCP_RANK") != "",
	})
}

func TestEdgeCases(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process edge cases spawn many processes; skipped in -short")
	}
	pgastest.RunEdgeCasesOptions(t, factory, pgastest.Options{MultiProcess: true})
}

// TestUTSGeometricMatchesSequential runs the full Scioto work-stealing UTS
// benchmark across 4 rank processes on loopback and requires the exact
// sequential node enumeration. The `want` stats are recomputed identically
// in every rank process (children re-execute the test from the start), so
// capturing them in the body is sound.
func TestUTSGeometricMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full UTS run over loopback; skipped in -short")
	}
	want, err := uts.Sequential(uts.TreeSmall, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	cfg := uts.DriverConfig{
		Tree: uts.TreeSmall,
		TC:   core.Config{ChunkSize: 5, MaxTasks: 1 << 15},
	}
	w := tcp.NewWorld(tcp.Config{NProcs: 4, Seed: 9})
	if err := w.Run(func(p pgas.Proc) {
		got, _, err := uts.RunScioto(p, cfg)
		if err != nil {
			panic(err)
		}
		if got != want {
			panic("parallel traversal over tcp does not match sequential enumeration")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSCFAndTCEMatchReferences runs the Global Arrays applications across 3
// rank processes: over tcp a window's non-blocking transfers really pend until its Flush,
// which no in-process transport exercises. See apptest.RunApplications for
// what is run and what it is held to.
func TestSCFAndTCEMatchReferences(t *testing.T) {
	if testing.Short() {
		t.Skip("SCF and TCE runs over tcp; skipped in -short")
	}
	apptest.RunApplications(t, tcp.NewWorld(tcp.Config{NProcs: 3, Seed: 4}))
}

// TestCapabilitiesThroughWrappers: what pgas.Find reaches through
// instr∘faulty is what the bare transport offers.
func TestCapabilitiesThroughWrappers(t *testing.T) {
	pgastest.RunCapabilities(t, func(n int) pgas.World {
		w := factory(n)
		w = faulty.Wrap(w, faulty.Config{Seed: 3, DelayProb: 0.2, MaxDelay: 20 * time.Microsecond, CrashRank: faulty.NoCrash})
		return instr.Wrap(w, obs.NewHub(), instr.Options{})
	})
}

// BenchmarkLaunch is one world's set-up and teardown: the rendezvous
// listener, two rank processes spawned and meshed, one barrier, both
// reaped.
func BenchmarkLaunch(b *testing.B) {
	for range b.N {
		if err := factory(2).Run(func(p pgas.Proc) { p.Barrier() }); err != nil {
			b.Fatal(err)
		}
	}
}
