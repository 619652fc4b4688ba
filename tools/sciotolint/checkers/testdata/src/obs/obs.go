// Package obs is the fixture stub of scioto/internal/obs. The
// obsdeterminism analyzer matches registration methods by package name
// and method name, so the stub only needs the signatures.
package obs

type Registry struct{}
type Counter struct{}
type Gauge struct{}
type Histogram struct{}

func (r *Registry) Counter(name, help string) *Counter     { return nil }
func (r *Registry) CounterWord(name, help string) *int64   { return nil }
func (r *Registry) Gauge(name, help string) *Gauge         { return nil }
func (r *Registry) Histogram(name, help string) *Histogram { return nil }
