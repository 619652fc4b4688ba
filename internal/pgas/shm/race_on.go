//go:build race

package shm

// raceBuild: see race_off.go.
const raceBuild = true
