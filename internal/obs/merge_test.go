package obs_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scioto/internal/obs"
	"scioto/internal/pgas"
	"scioto/internal/pgas/shm"
)

func TestMergerSumsAcrossRanks(t *testing.T) {
	const n = 4
	w := shm.NewWorld(shm.Config{NProcs: n, Seed: 7})
	w.Run(func(p pgas.Proc) {
		me := p.Rank()
		reg := obs.NewRegistry(me)
		c := reg.Counter("scioto_steals_total", "steals")
		g := reg.Gauge("scioto_depth", "depth")
		h := reg.Histogram("scioto_lat_seconds", "latency")
		c.Add(int64(me + 1)) // ranks contribute 1+2+3+4 = 10
		g.Set(int64(2 * me)) // 0+2+4+6 = 12
		for i := 0; i <= me; i++ {
			h.Observe(time.Duration(me+1) * time.Microsecond)
		}

		m := obs.NewMerger(p, reg)
		snap := m.Merge()
		if snap.Ranks() != n {
			panic("wrong rank count")
		}
		if got := snap.Counter("scioto_steals_total"); got != 10 {
			panic("merged counter wrong")
		}
		if got := snap.Gauge("scioto_depth"); got != 12 {
			panic("merged gauge wrong")
		}
		// Rank r observes r+1 samples → 1+2+3+4 = 10 observations.
		if got := snap.HistCount("scioto_lat_seconds"); got != 10 {
			panic("merged hist count wrong")
		}
		// Sum: Σ (r+1)·(r+1)µs = 1+4+9+16 = 30µs.
		if got := snap.HistSum("scioto_lat_seconds"); got != 30*time.Microsecond {
			panic("merged hist sum wrong")
		}

		// Merge is repeatable: values unchanged → same snapshot.
		snap2 := m.Merge()
		if snap2.Counter("scioto_steals_total") != 10 {
			panic("second merge wrong")
		}

		if me == 0 {
			var buf bytes.Buffer
			snap.WriteProm(&buf)
			out := buf.String()
			for _, want := range []string{
				`scioto_steals_total{scope="merged"} 10`,
				`scioto_lat_seconds_count{scope="merged"} 10`,
				`scioto_lat_seconds_bucket{scope="merged",le="+Inf"} 10`,
			} {
				if !strings.Contains(out, want) {
					panic("merged prom output missing " + want)
				}
			}
		}
	})
}

func TestMergerPanicsOnGrownRegistry(t *testing.T) {
	w := shm.NewWorld(shm.Config{NProcs: 1, Seed: 1})
	w.Run(func(p pgas.Proc) {
		reg := obs.NewRegistry(0)
		reg.Counter("a", "")
		m := obs.NewMerger(p, reg)
		reg.Counter("b", "") // grow after sizing
		defer func() {
			if recover() == nil {
				panic("expected Merge to panic on grown registry")
			}
		}()
		m.Merge()
	})
}

func TestMergerPanicsOnEveryRankOnSchemaMismatch(t *testing.T) {
	const n = 4
	var panicked atomic.Int32
	w := shm.NewWorld(shm.Config{NProcs: n, Seed: 1})
	err := w.Run(func(p pgas.Proc) {
		reg := obs.NewRegistry(p.Rank())
		name := "a"
		if p.Rank() == 2 {
			name = "b" // same width, different schema
		}
		reg.Counter(name, "")
		defer func() {
			if r := recover(); r != nil && strings.Contains(fmt.Sprint(r), "schema differs") {
				panicked.Add(1)
			}
		}()
		obs.NewMerger(p, reg).Merge()
	})
	if err != nil || panicked.Load() != n {
		t.Fatalf("Run = %v and %d of %d ranks panicked on the mismatch, want nil and every rank", err, panicked.Load(), n)
	}
}
