package core

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestStatsSliceRoundTripQuick: the flatten/restore pair used by
// GlobalStats is lossless for every counter.
func TestStatsSliceRoundTripQuick(t *testing.T) {
	f := func(vals [statsWords]int64) bool {
		var s Stats
		in := make([]int64, statsWords)
		copy(in, vals[:])
		s.fromSlice(in)
		out := s.asSlice()
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStatsAddAccumulates: add sums every field (checked through the slice
// form so new fields cannot be silently dropped from one of the three
// places).
func TestStatsAddAccumulates(t *testing.T) {
	var a, b Stats
	av := make([]int64, statsWords)
	bv := make([]int64, statsWords)
	for i := range av {
		av[i] = int64(i + 1)
		bv[i] = int64(100 * (i + 1))
	}
	a.fromSlice(av)
	b.fromSlice(bv)
	a.add(&b)
	got := a.asSlice()
	for i := range got {
		if want := av[i] + bv[i]; got[i] != want {
			t.Fatalf("field %d: add produced %d, want %d — field missing from add()?", i, got[i], want)
		}
	}
}

// TestStatsString: the summary mentions the headline counters.
func TestStatsString(t *testing.T) {
	s := Stats{TasksExecuted: 7, StealsOK: 2, StealAttempts: 5}
	str := s.String()
	for _, want := range []string{"exec=7", "steals=2/5"} {
		if !strings.Contains(str, want) {
			t.Errorf("summary %q missing %q", str, want)
		}
	}
}

// TestOpTimingsString: each of the four Table 1 operations is printed
// under its own label.
func TestOpTimingsString(t *testing.T) {
	o := OpTimings{LocalInsert: 1000, RemoteInsert: 2000, LocalGet: 3000, RemoteSteal: 4000}
	want := "local insert 1.0000µs, remote insert 2.0000µs, local get 3.0000µs, remote steal 4.0000µs"
	if got := o.String(); got != want {
		t.Errorf("OpTimings.String() = %q, want %q", got, want)
	}
}
