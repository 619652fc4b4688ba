package pgas_test

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/shm"
)

// launches are the set-up cycles of the benchmark's in-process workloads.
// uts-dsim64: 64 ranks create one task collection (24-byte bodies, 8,192
// tasks per rank). serve-shm: 2 ranks create the serve daemon's collection
// (301-byte slots, 16,384 tasks per rank, 1,024 deferred). Both then meet
// at a barrier.
var launches = []struct {
	name   string
	world  func() pgas.World
	config core.Config
}{
	{"dsim", func() pgas.World { return dsim.NewWorld(dsim.Config{NProcs: 64, Seed: 1}) },
		core.Config{MaxBodySize: 24, ChunkSize: 10, MaxTasks: 1 << 13}},
	{"shm", func() pgas.World { return shm.NewWorld(shm.Config{NProcs: 2, Seed: 1}) },
		core.Config{MaxBodySize: 301 - core.HeaderBytes, MaxTasks: 1 << 14, MaxDeferred: 1024}},
}

func launch(t testing.TB, w pgas.World, cfg core.Config) {
	err := w.Run(func(p pgas.Proc) {
		core.NewTC(core.Attach(p), cfg)
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLaunchesReleaseTheirMappings: Run unmaps what its segments mapped,
// so launch after launch leaves the address space where it was. The kernel
// merges adjacent anonymous mappings, so a leak shows in the bytes
// /proc/self/maps covers, not in its lines: 300 launches that kept their
// rings would add 8.7 GB on dsim and 3.1 GB on shm, where the Go runtime
// (and the race detector's allocator, under -race) add a few MB.
func TestLaunchesReleaseTheirMappings(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	mapped := func() (n int64) {
		b, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			var lo, hi int64
			if _, err := fmt.Sscanf(line, "%x-%x", &lo, &hi); err == nil {
				n += hi - lo
			}
		}
		return n
	}
	for _, l := range launches {
		t.Run(l.name, func(t *testing.T) {
			launch(t, l.world(), l.config)
			before := mapped()
			for i := 0; i < 300; i++ {
				launch(t, l.world(), l.config)
			}
			if grew := mapped() - before; grew > 256<<20 {
				t.Errorf("300 launches left %d MB more mapped", grew>>20)
			}
		})
	}
}

// TestLaunchAllocatesLittleHeap: the rings of a launch live in mapped
// pages, so the Go heap sees only the world's bookkeeping. A race build
// keeps shm's segments on the heap (race_on_test.go).
func TestLaunchAllocatesLittleHeap(t *testing.T) {
	for _, l := range launches {
		t.Run(l.name, func(t *testing.T) {
			if l.name == "shm" && raceEnabled {
				t.Skip("a race build keeps shm's segments on the Go heap")
			}
			launch(t, l.world(), l.config)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			launch(t, l.world(), l.config)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
				t.Errorf("one launch allocated %d bytes of Go heap, want < 4 MiB", got)
			}
		})
	}
}
