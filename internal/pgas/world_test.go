package pgas_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/shm"
)

// TestRunStartsAFreshMachine: every Run of a World starts a fresh machine,
// on both in-process kernels. A first run counts a word to 200, writes a
// small and a large data segment and ends with a rank's death; a second run
// of the same world must then see what a fresh world's first run sees:
// the same first random draw on each rank, zeroed memory, the same final
// data and error, and on a virtual clock the same times. dsim runs with NIC
// occupancy on, so a NIC horizon left over would move the clock; the
// survivable worlds leave a dead rank behind.
func TestRunStartsAFreshMachine(t *testing.T) {
	const n, big = 2, 1 << 17
	dcfg, scfg := dsim.Config{NProcs: n, Seed: 1, Occupancy: time.Microsecond}, shm.Config{NProcs: n, Seed: 1}
	dsur, ssur := dcfg, scfg
	dsur.Survivable, ssur.Survivable = true, true
	worlds := map[string]func() pgas.World{
		"dsim":            func() pgas.World { return dsim.NewWorld(dcfg) },
		"dsim/survivable": func() pgas.World { return dsim.NewWorld(dsur) },
		"shm":             func() pgas.World { return shm.NewWorld(scfg) },
		"shm/survivable":  func() pgas.World { return shm.NewWorld(ssur) },
	}
	run := func(w pgas.World, die bool) string {
		var seen [n][]int64
		err := w.Run(func(p pgas.Proc) {
			me := p.Rank()
			seen[me] = append(seen[me], p.Rand().Int63())
			ws, small, large := p.AllocWords(1), p.AllocData(64), p.AllocData(big)
			read := func() {
				var b, c [1]byte
				p.Get(b[:], me, small, 63)
				p.Get(c[:], me, large, big-1)
				seen[me] = append(seen[me], p.Load64(me, ws, 0), int64(b[0]), int64(c[0]))
			}
			read()
			p.Barrier()
			for i := 0; i < 100; i++ {
				p.FetchAdd64(0, ws, 0, 1)
			}
			p.Put(1-me, small, 63, []byte{byte(10 + me)})
			p.Put(1-me, large, big-1, []byte{byte(20 + me)})
			p.Barrier()
			read()
			if p.Clock().Virtual() {
				seen[me] = append(seen[me], int64(p.Now()))
			}
			if die && me == 1 {
				panic(&pgas.FaultError{Rank: me, Phase: "test", Err: errors.New("the first run ends with a death")})
			}
		})
		return fmt.Sprint(seen, err)
	}
	for name, newWorld := range worlds {
		t.Run(name, func(t *testing.T) {
			w := newWorld()
			run(w, true)
			if again, fresh := run(w, false), run(newWorld(), false); again != fresh {
				t.Fatalf("a second run differs from a fresh world's first run:\n second %s\n fresh  %s", again, fresh)
			}
		})
	}
}

// TestOnlyOwnFaultsHeal: a survivable in-process world's Run returns nil
// only when every rank that failed died of its own *pgas.FaultError and a
// rank finished cleanly. A plain panic — a failed assertion, a broken
// invariant — is a failure, not a death, on a non-zero rank and on the
// only rank alike, and a world whose every rank died healed nothing.
func TestOnlyOwnFaultsHeal(t *testing.T) {
	worlds := map[string]func(n int) pgas.World{
		"dsim": func(n int) pgas.World { return dsim.NewWorld(dsim.Config{NProcs: n, Seed: 1, Survivable: true}) },
		"shm":  func(n int) pgas.World { return shm.NewWorld(shm.Config{NProcs: n, Seed: 1, Survivable: true}) },
	}
	for _, c := range []struct {
		name   string
		n      int
		typed  bool
		healed bool
	}{
		{"plain panic on rank 1 of 2", 2, false, false},
		{"plain panic on the only rank", 1, false, false},
		{"own fault on rank 1 of 2", 2, true, true},
		{"own fault on the only rank", 1, true, false},
	} {
		for name, newWorld := range worlds {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				err := newWorld(c.n).Run(func(p pgas.Proc) {
					if p.Rank() != c.n-1 {
						return
					}
					if c.typed {
						panic(&pgas.FaultError{Rank: p.Rank(), Phase: "test", Err: errors.New("dies")})
					}
					panic("assertion failed")
				})
				if healed := err == nil; healed != c.healed {
					t.Fatalf("Run returned %v, want healed = %v", err, c.healed)
				}
			})
		}
	}
}

// TestCascadeDeathIsRegistered: a survivor that dies on the clone of an
// earlier death is a death too, on both in-process kernels. Rank 2 crashes;
// rank 3 returns on the clone without surviving it; ranks 0 and 1 survive
// rank 2 and wait on rank 3, whose death must wake them. Run then returns
// rank 2's fault.
func TestCascadeDeathIsRegistered(t *testing.T) {
	const n, tag = 4, 7
	worlds := map[string]pgas.World{
		"dsim": dsim.NewWorld(dsim.Config{NProcs: n, Seed: 1, Survivable: true}),
		"shm":  shm.NewWorld(shm.Config{NProcs: n, Seed: 1, Survivable: true}),
	}
	for name, w := range worlds {
		t.Run(name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				done <- w.Run(func(p pgas.Proc) {
					if p.Rank() != 2 {
						p.Send(2, tag, nil) // rank 2 dies after every rank is here
					}
					switch p.Rank() {
					case 2:
						for _, r := range []int{0, 1, 3} {
							p.Recv(r, tag)
						}
						panic(&pgas.FaultError{Rank: 2, Phase: "test", Err: errors.New("rank 2 crashes")})
					case 3:
						p.Compute(50 * time.Millisecond) // the survivors acknowledge rank 2 first
						p.Recv(2, tag)
					default:
						var alive []bool
						func() {
							defer func() {
								r := recover()
								fe, ok := r.(*pgas.FaultError)
								if !ok {
									panic(r)
								}
								alive, _ = p.(pgas.Resilient).SurviveFault(fe)
							}()
							p.Recv(2, tag)
						}()
						if alive[3] {
							p.Recv(3, tag) // rank 3 never sends: its death must wake us
						}
					}
				})
			}()
			select {
			case err := <-done:
				if fe, ok := pgas.AsFault(err); !ok || fe.Rank != 2 {
					t.Fatalf("Run returned %v, want rank 2's fault", err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("the survivors still wait on rank 3, which died on rank 2's fault")
			}
		})
	}
}
