package pgas_test

import (
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
				panic("the first run ends with a death")
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
