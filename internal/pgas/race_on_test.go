//go:build race

package pgas_test

import (
	"runtime"
	"testing"

	"scioto/internal/pgas"
	"scioto/internal/pgas/shm"
)

// raceEnabled: see race_off_test.go.
const raceEnabled = true

// TestShmSegmentsOnHeapUnderRace: in a race build shm makes even its
// large data segments on the Go heap, because the race detector does not
// see mapped pages and shm is where the race job checks the ring
// protocol. Two ranks' instances of a 128 KiB segment must show in the
// heap's allocation total.
func TestShmSegmentsOnHeapUnderRace(t *testing.T) {
	const n, size = 2, 2 * pgas.MapThreshold
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := shm.NewWorld(shm.Config{NProcs: n, Seed: 1}).Run(func(p pgas.Proc) {
		p.Local(p.AllocData(size))[size-1] = 1
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got < n*size {
		t.Errorf("a world with two %d-byte instances allocated %d bytes of Go heap; want them on it", size, got)
	}
}
