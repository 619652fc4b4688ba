package bench

import "runtime"

// Machine identifies the host a wall-clock measurement was produced on:
// the repository benchmark (benchmark/) prints it with every report,
// because perf numbers from different machines are not comparable.
type Machine struct {
	GOMAXPROCS int
	NumCPU     int
	GOOS       string
	GOARCH     string
	GoVersion  string
}

// MachineInfo captures the current host.
func MachineInfo() Machine {
	return Machine{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
	}
}
