// Package trace is the fixture stub of scioto/internal/trace. The
// obsdeterminism analyzer matches the catalogue-registering constructor
// by package name and function name, so the stub only needs signatures.
package trace

type Recorder struct{}

type Exporter interface{}

func NewRecorder(rank, limit int, exp Exporter) *Recorder { return nil }
