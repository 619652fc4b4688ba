package trace

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// FuzzReadDump: a dump is bytes from another process. Whatever ReadDump
// accepts, the consumers must digest without panicking and with their
// invariants intact: no rank idles a negative time, and executing plus
// stalled time is the window.
func FuzzReadDump(f *testing.F) {
	// A real 2-rank dsim run (cmd/uts -transport dsim -procs 2 -depth 4).
	var real [2][]byte
	for i, name := range []string{"testdata/dsim2-rank0.json", "testdata/dsim2-rank1.json"} {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		real[i] = b
	}
	f.Add(real[0], real[1])
	// An empty dump, and one record of every kind.
	var empty, every bytes.Buffer
	if err := NewRecorder(0, 1, nil).WriteDump(&empty); err != nil {
		f.Fatal(err)
	}
	r := NewRecorder(1, int(NumKinds), nil)
	for k := Kind(0); k < NumKinds; k++ {
		at := time.Duration(k) * time.Microsecond
		r.Record(k, at, at+time.Duration(catalogue[k].Prio)*time.Microsecond, int64(k), -1)
	}
	if err := r.WriteDump(&every); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes(), every.Bytes())
	f.Add([]byte(`{"rank":0,"kinds":[{"name":"x","prio":1}],"records":[[0,0,5,0,0]]}`), []byte(`{}`))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		var dumps []*Dump
		for _, in := range [][]byte{a, b} {
			d, err := ReadDump(bytes.NewReader(in))
			if err != nil {
				continue
			}
			for i, q := range d.Records {
				if q[0] < 0 || q[0] >= int64(len(d.Kinds)) || q[1] < 0 || q[2] < q[1] {
					t.Fatalf("ReadDump let record %d through: %v over %d kinds", i, q, len(d.Kinds))
				}
			}
			dumps = append(dumps, d)
		}
		if len(dumps) == 0 {
			return
		}
		rep, err := Attribute(dumps, 0, 0)
		if err != nil {
			t.Fatalf("Attribute refused dumps ReadDump accepted: %v", err)
		}
		window := rep.WindowEndNs - rep.WindowStartNs
		if window < 0 || rep.ExecNs+rep.StallNs != window || rep.IdleNs > rep.StallNs {
			t.Fatalf("window %d: exec %d + stall %d (idle %d)", window, rep.ExecNs, rep.StallNs, rep.IdleNs)
		}
		for _, ra := range rep.Ranks {
			if ra.IdleNs < 0 || ra.IdleNs > window {
				t.Fatalf("rank %d idles %d ns of a %d ns window", ra.Rank, ra.IdleNs, window)
			}
		}
		tl := OccupancyTimeline(dumps, 16)
		for _, rk := range tl.Ranks {
			for _, row := range rk.Busy {
				for _, ns := range row {
					if ns < 0 || ns > tl.BucketNs {
						t.Fatalf("rank %d: %d busy ns in a %d ns bucket", rk.Rank, ns, tl.BucketNs)
					}
				}
			}
		}
	})
}
