//go:build !race

package shm

// raceBuild reports whether the race detector instruments this build (see
// race_on.go). It does not see mapped pages, and shm is where it checks the
// ring protocol, so a race build keeps every data segment on the Go heap.
const raceBuild = false
