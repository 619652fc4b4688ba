package pgas

import (
	"fmt"
	"os"
	"syscall"
)

// MapThreshold is the per-rank size from which Segments maps a data
// segment instead of making it on the Go heap. The kernel zeroes a mapped
// page on first touch, so a world pays only for the pages it uses: the
// task rings of a short run are mostly never touched, and make would zero
// all of them at every launch.
const MapThreshold = 64 << 10

// Segments allocates the data segments of an in-process world (dsim, shm).
// A segment of at least MapThreshold bytes per rank is one anonymous
// private mapping, each rank's instance starting on a page boundary; a
// smaller one, and every segment when Heap is set, is made on the Go heap.
// Every instance has cap = len. The zero value is ready to use; it is not
// safe for concurrent use.
type Segments struct {
	// Heap keeps every segment on the Go heap, where the race detector
	// sees it: it does not see mapped pages.
	Heap bool

	maps [][]byte
}

// Alloc returns the nprocs zeroed instances of a segment of nbytes bytes.
func (s *Segments) Alloc(nprocs, nbytes int) [][]byte {
	inst := make([][]byte, nprocs)
	if s.Heap || nbytes < MapThreshold {
		for i := range inst {
			inst[i] = make([]byte, nbytes)
		}
		return inst
	}
	page := os.Getpagesize()
	stride := (nbytes + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, stride*nprocs, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("pgas: mapping a data segment of %d bytes per rank: %v", nbytes, err))
	}
	s.maps = append(s.maps, mem)
	for i := range inst {
		inst[i] = mem[i*stride : i*stride+nbytes : i*stride+nbytes]
	}
	return inst
}

// Release unmaps every segment Alloc mapped, which ends the life of its
// instances: a later touch of one is a SIGSEGV. A world releases when its
// Run returns.
func (s *Segments) Release() {
	for _, m := range s.maps {
		_ = syscall.Munmap(m) // a whole mapping of ours: nothing to undo on error
	}
	s.maps = nil
}
