package dsim_test

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
)

// TestSegmentContract: a data segment's instances are zero, writable to
// their full length and disjoint per rank, on both sides of the mapping
// threshold, and a mapped instance starts on a page boundary.
func TestSegmentContract(t *testing.T) {
	const n = 3
	for _, size := range []int{dsim.MapThreshold - 8, dsim.MapThreshold, 100_003, 1 << 20} {
		err := dsim.NewWorld(dsim.Config{NProcs: n, Seed: 1}).Run(func(p pgas.Proc) {
			seg := p.AllocData(size)
			loc := p.Local(seg)
			if len(loc) != size || cap(loc) != size {
				panic(fmt.Sprintf("instance of len %d, cap %d; want %d", len(loc), cap(loc), size))
			}
			if size >= dsim.MapThreshold && uintptr(unsafe.Pointer(&loc[0]))%uintptr(os.Getpagesize()) != 0 {
				panic(fmt.Sprintf("rank %d's instance starts off a page boundary", p.Rank()))
			}
			if bytes.Count(loc, []byte{0}) != size {
				panic(fmt.Sprintf("rank %d's instance is not zero", p.Rank()))
			}
			for i := range loc {
				loc[i] = byte(p.Rank() + 1)
			}
			p.Barrier()
			// Every rank filled its whole instance: an overlap would show
			// as a peer's byte in another rank's instance.
			got := make([]byte, size)
			for r := 0; r < n; r++ {
				p.Get(got, r, seg, 0)
				if !bytes.Equal(got, bytes.Repeat([]byte{byte(r + 1)}, size)) {
					panic(fmt.Sprintf("rank %d's instance does not hold what rank %d wrote", r, r))
				}
			}
		})
		if err != nil {
			t.Fatalf("%d-byte segment: %v", size, err)
		}
	}
}

// launchSetup is the set-up cycle of the benchmark's uts-dsim64 workload:
// 64 ranks create one task collection (24-byte bodies, 8,192 tasks per
// rank) and meet at a barrier.
func launchSetup(t testing.TB) {
	err := dsim.NewWorld(dsim.Config{NProcs: 64, Seed: 1}).Run(func(p pgas.Proc) {
		core.NewTC(core.Attach(p), core.Config{MaxBodySize: 24, ChunkSize: 10, MaxTasks: 1 << 13})
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
// rings would add 8.7 GB, where the Go runtime (and the race detector's
// allocator, under -race) add a few MB.
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
	launchSetup(t)
	before := mapped()
	for i := 0; i < 300; i++ {
		launchSetup(t)
	}
	if grew := mapped() - before; grew > 256<<20 {
		t.Errorf("300 launches left %d MB more mapped", grew>>20)
	}
}

// TestLaunchAllocatesLittleHeap: the rings of a launch live in mapped
// pages, so the Go heap sees only the world's bookkeeping.
func TestLaunchAllocatesLittleHeap(t *testing.T) {
	launchSetup(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	launchSetup(t)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Errorf("one launch allocated %d bytes of Go heap, want < 4 MiB", got)
	}
}
