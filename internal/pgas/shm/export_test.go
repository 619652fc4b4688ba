package shm

// RaceBuild reports whether this is a race build, where every data segment
// stays on the Go heap.
const RaceBuild = raceBuild
