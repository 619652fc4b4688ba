package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
)

// opRecorder is a kernel that logs, while on, every one-sided operation
// and Flush its rank issues, as "NbLoad64 r1 w1" (the op, its target and,
// for a queue metadata word, the word) or "Flush". flushed, when not nil,
// runs once, unrecorded, when the next recorded Flush has completed.
type opRecorder struct {
	pgas.Front
	pgas.Kernel
	meta    pgas.Seg
	on      bool
	log     []string
	flushed func()
}

func (r *opRecorder) Unwrap() pgas.Kernel { return r.Kernel }

func (r *opRecorder) Issue(op *pgas.Op) pgas.Nb {
	if r.on {
		e := fmt.Sprintf("%s r%d", op.Name(), op.Target)
		if op.Kind.IsWord() && op.Seg == r.meta {
			e += fmt.Sprintf(" w%d", op.Off)
		}
		r.log = append(r.log, e)
	}
	return r.Kernel.Issue(op)
}

func (r *opRecorder) Flush() {
	r.Kernel.Flush()
	if r.on {
		r.log = append(r.log, "Flush")
		if f := r.flushed; f != nil {
			r.on, r.flushed = false, nil
			f()
			r.on = true
		}
	}
}

// completions cuts a log into the points at which operations complete: a
// blocking op alone, or the non-blocking ops a Flush completes.
func completions(log []string) [][]string {
	var out [][]string
	var batch []string
	for _, e := range log {
		switch {
		case e == "Flush":
			out, batch = append(out, batch), nil
		case strings.HasPrefix(e, "Nb"):
			batch = append(batch, e)
		default:
			out = append(out, []string{e})
		}
	}
	if batch != nil {
		out = append(out, batch)
	}
	return out
}

// stealRound runs one idle round's steal on rank 0 of a dsim world of n
// ranks and returns what it issued, cut into completion points, with the
// round's counters. When stocked, every other rank first puts tasks in
// its shared portion, so any victim has something to claim. before, when
// not nil, runs on rank 0 ahead of the recorded round, unrecorded: a
// steal there leaves the round its read-ahead.
func stealRound(t *testing.T, n int, stocked bool, cfg Config, before func(tc *TC, task *Task)) (rounds [][]string, s Stats) {
	t.Helper()
	err := dsim.NewWorld(dsim.Config{NProcs: n, Seed: 3}).Run(func(p pgas.Proc) {
		r := &opRecorder{Kernel: p}
		r.Bind(r)
		tc := NewTC(Attach(r), cfg)
		r.meta = tc.q.meta
		task := NewTask(tc.Register(func(*TC, *Task) {}), 8)
		for i := 0; stocked && p.Rank() != 0 && i < 8; i++ {
			if err := tc.Add(p.Rank(), AffinityLow, task); err != nil {
				panic(err)
			}
		}
		p.Barrier()
		if p.Rank() == 0 {
			if before != nil {
				before(tc, task)
			}
			tc.ClearStats()
			r.on = true
			tc.steal()
			r.on = false
			rounds, s = completions(r.log), tc.Stats()
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return rounds, s
}

// victimOf is the rank an entry "Op rN ..." addresses.
func victimOf(e string) string { return strings.Fields(e)[1] }

// readAhead reports whether the tail of a completion point is the
// read-ahead of the next round: two NbLoad64s of the packed words of two
// distinct ranks, neither rank 0.
func readAhead(point []string) bool {
	if len(point) < 2 {
		return false
	}
	a, b := point[len(point)-2], point[len(point)-1]
	return strings.HasPrefix(a, "NbLoad64 ") && strings.HasSuffix(a, " w1") && strings.HasPrefix(b, "NbLoad64 ") &&
		strings.HasSuffix(b, " w1") && victimOf(a) != victimOf(b) && victimOf(a) != "r0" && victimOf(b) != "r0"
}

// landing checks a transfer's completion point: the NbGets from v, the
// fetch-add retiring the claim, and the next round's read-ahead.
func landing(point []string, v string) bool {
	return len(point) >= 4 && point[0] == "NbGet "+v && point[len(point)-3] == "NbFetchAdd64 "+v+" w1" && readAhead(point)
}

// TestStealRoundTrips pins the thief's round trips. At P = 4 an empty
// round reads two distinct victims, neither this rank, in one flushed
// batch. A phase's first successful steal completes at three points: the
// probe; the claim, which is the dirty mark and the claim CAS together
// (mark first) when marked and one blocking CAS when not; and the
// landing: the copy, the fetch-add retiring the claim and the read-ahead
// of the next round's two victims. A steal on a claimable word read ahead
// completes at two: the [mark,] CAS with both victims' words reloaded
// behind it, then the landing. Had that word moved, the CAS loses and the
// round claims on what the reload saw: three points. Had no word read
// ahead been claimable, the round is an empty probe that sends nothing,
// and the next round probes afresh. A claim on a predicted word — one
// read busy with another thief's claim, taken as the quiet word its
// retire leaves — costs what a claim on a word read quiet costs: three
// points after a probe. At P = 2 the probe
// is one blocking load. The counter detector steals as the wave detector
// does; a locked queue keeps the paper's sequence and pushes what it
// took.
func TestStealRoundTrips(t *testing.T) {
	base := Config{MaxBodySize: 8, ChunkSize: 2, MaxTasks: 16}
	marked := base
	marked.DisableColoringOpt = true // mark every claim
	steal := func(tc *TC, _ *Task) {
		if tc.steal() == 0 {
			panic("the warm-up steal took nothing")
		}
	}

	rounds, s := stealRound(t, 4, false, base, nil)
	if len(rounds) != 1 || len(rounds[0]) != 2 || !readAhead(rounds[0]) {
		t.Errorf("P=4 empty round completed as %q, want two NbLoad64 of two distinct other ranks in one Flush", rounds)
	}
	if s.StealAttempts != 1 || s.StealsEmpty != 1 {
		t.Errorf("P=4 empty round counted %d attempts, %d empty, want 1 and 1", s.StealAttempts, s.StealsEmpty)
	}

	for _, c := range []struct {
		name  string
		cfg   Config
		claim func(v string) []string
		mark  []string
		sent  int64
	}{
		{"marked", marked, func(v string) []string { return []string{"NbFetchAdd64 " + v + " w3", "NbCAS64 " + v + " w1"} }, []string{"NbFetchAdd64 w3"}, 1},
		{"unmarked", base, func(v string) []string { return []string{"CAS64 " + v + " w1"} }, nil, 0},
	} {
		rounds, s := stealRound(t, 4, true, c.cfg, nil)
		if len(rounds) != 3 || len(rounds[0]) != 2 {
			t.Errorf("P=4 %s first steal completed at %d points: %q, want 3 after a two-victim probe", c.name, len(rounds), rounds)
			continue
		}
		v := victimOf(rounds[1][0])
		if !slices.Contains([]string{victimOf(rounds[0][0]), victimOf(rounds[0][1])}, v) {
			t.Errorf("P=4 %s steal claimed on %s, which it did not probe: %q", c.name, v, rounds)
		}
		if want := c.claim(v); !slices.Equal(rounds[1], want) {
			t.Errorf("P=4 %s claim completed as %q, want %q", c.name, rounds[1], want)
		}
		if !landing(rounds[2], v) {
			t.Errorf("P=4 %s landing completed as %q, want NbGets, the retiring NbFetchAdd64 on %s and the read-ahead", c.name, rounds[2], v)
		}
		if s.StealsOK != 1 || s.StealsAhead != 0 || s.DirtyMarksSent != c.sent {
			t.Errorf("P=4 %s first steal counted %d ok, %d ahead, %d marks sent, want 1, 0 and %d", c.name, s.StealsOK, s.StealsAhead, s.DirtyMarksSent, c.sent)
		}

		// A predicted claim: every other rank's word reads busy with a claim
		// of two still being copied, which retires once the probe has
		// completed. The round claims on the quiet word the retire leaves,
		// at the points of a claim on a word probed quiet.
		inFlight := func(tc *TC, x int64) {
			for r := 1; r < 4; r++ {
				tc.rt.p.FetchAdd64(r, tc.q.meta, wShared, x)
			}
		}
		rounds, s = stealRound(t, 4, true, c.cfg, func(tc *TC, _ *Task) {
			inFlight(tc, 2*oneX)
			tc.rt.p.(*opRecorder).flushed = func() { inFlight(tc, -2*oneX) }
		})
		if len(rounds) != 3 || len(rounds[0]) != 2 {
			t.Errorf("P=4 %s predicted claim completed at %d points: %q, want 3 after a two-victim probe", c.name, len(rounds), rounds)
			continue
		}
		v = victimOf(rounds[1][0])
		if want := c.claim(v); !slices.Equal(rounds[1], want) || !landing(rounds[2], v) {
			t.Errorf("P=4 %s predicted claim completed as %q then %q, want %q then the landing", c.name, rounds[1], rounds[2], want)
		}
		if s.StealsOK != 1 || s.StealsPredicted != 1 || s.StealsBusy != 0 || s.DirtyMarksSent != c.sent {
			t.Errorf("P=4 %s predicted claim counted %d ok, %d predicted, %d busy, %d marks sent, want 1, 1, 0 and %d",
				c.name, s.StealsOK, s.StealsPredicted, s.StealsBusy, s.DirtyMarksSent, c.sent)
		}

		// A hit: the words read ahead are claimable as they were read.
		rounds, s = stealRound(t, 4, true, c.cfg, steal)
		var guess []string
		if len(rounds) == 2 {
			guess = rounds[0]
		}
		m := len(c.mark)
		if len(guess) != m+3 || !readAhead(guess) || !strings.HasPrefix(guess[m], "NbCAS64 ") {
			t.Errorf("P=4 %s read-ahead hit completed as %q, want 2 points: [mark,] NbCAS64 and two reloads, then the landing", c.name, rounds)
			continue
		}
		v = victimOf(guess[m])
		if want := c.claim(v); m > 0 && !slices.Equal(guess[:m+1], want) || !slices.Contains(guess[m+1:], "NbLoad64 "+v+" w1") {
			t.Errorf("P=4 %s read-ahead claim completed as %q, want %q then a reload of %s behind the CAS", c.name, guess, want, v)
		}
		if !landing(rounds[1], v) {
			t.Errorf("P=4 %s read-ahead landing completed as %q", c.name, rounds[1])
		}
		if s.StealAttempts != 1 || s.StealsOK != 1 || s.StealsAhead != 1 || s.DirtyMarksSent != c.sent {
			t.Errorf("P=4 %s read-ahead hit counted %d attempts, %d ok, %d ahead, %d marks sent, want 1, 1, 1 and %d",
				c.name, s.StealAttempts, s.StealsOK, s.StealsAhead, s.DirtyMarksSent, c.sent)
		}

		// A miss: every other rank's word moves (rank 0 adds a task to
		// each) between the read-ahead and the round.
		rounds, s = stealRound(t, 4, true, c.cfg, func(tc *TC, task *Task) {
			steal(tc, task)
			for r := 1; r < 4; r++ {
				if err := tc.Add(r, AffinityLow, task); err != nil {
					panic(err)
				}
			}
		})
		if len(rounds) != 3 || len(rounds[0]) != m+3 || !readAhead(rounds[0]) || !strings.HasPrefix(rounds[0][m], "NbCAS64 ") {
			t.Errorf("P=4 %s read-ahead miss completed as %q, want 3 points: the lost guess with its reloads, a claim, the landing", c.name, rounds)
			continue
		}
		v = victimOf(rounds[1][len(rounds[1])-1])
		if want := c.claim(v); !slices.Equal(rounds[1], want) || !landing(rounds[2], v) {
			t.Errorf("P=4 %s read-ahead miss claimed as %q and landed as %q, want %q then the landing", c.name, rounds[1], rounds[2], want)
		}
		if s.StealAttempts != 1 || s.StealsOK != 1 || s.StealsAhead != 0 || s.StealsBusy != 0 || s.DirtyMarksSent != 2*c.sent {
			t.Errorf("P=4 %s read-ahead miss counted %d attempts, %d ok, %d ahead, %d busy, %d marks sent, want 1, 1, 0, 0 and %d",
				c.name, s.StealAttempts, s.StealsOK, s.StealsAhead, s.StealsBusy, s.DirtyMarksSent, 2*c.sent)
		}
	}

	rounds, s = stealRound(t, 4, true, base, func(tc *TC, task *Task) {
		steal(tc, task)
		tc.q.probed = [2]int64{} // as read ahead: both shared portions empty
	})
	if len(rounds) != 0 || s.StealAttempts != 1 || s.StealsEmpty != 1 {
		t.Errorf("P=4 round on empty words read ahead completed as %q with %d attempts, %d empty; want nothing sent, 1 and 1", rounds, s.StealAttempts, s.StealsEmpty)
	}

	rounds, _ = stealRound(t, 2, false, base, nil)
	if want := [][]string{{"Load64 r1 w1"}}; !slices.EqualFunc(rounds, want, slices.Equal[[]string]) {
		t.Errorf("P=2 empty round completed as %q, want %q", rounds, want)
	}
	// The counter detector steals as the wave detector does unmarked: the
	// pair probe (one blocking load at P = 2), the blocking CAS, and the
	// landing reading ahead.
	counter := base
	counter.Termination = TermCounter
	if rounds, _ = stealRound(t, 4, false, counter, nil); len(rounds) != 1 || len(rounds[0]) != 2 || !readAhead(rounds[0]) {
		t.Errorf("P=4 empty round under the counter detector completed as %q, want two NbLoad64 of two distinct other ranks in one Flush", rounds)
	}
	if rounds, _ = stealRound(t, 2, true, counter, nil); len(rounds) != 3 ||
		!slices.EqualFunc(rounds, [][]string{{"Load64 r1 w1"}, {"CAS64 r1 w1"}, {"NbGet r1", "NbFetchAdd64 r1 w1", "NbLoad64 r1 w1"}}, slices.Equal[[]string]) {
		t.Errorf("P=2 counter steal completed as %q, want the probe, the CAS and the landing reading r1 ahead", rounds)
	}
	if rounds, _ = stealRound(t, 4, true, counter, nil); len(rounds) != 3 || !readAhead(rounds[0]) ||
		!slices.Equal(rounds[1], []string{"CAS64 " + victimOf(rounds[1][0]) + " w1"}) || !landing(rounds[2], victimOf(rounds[1][0])) {
		t.Errorf("P=4 counter steal completed as %q, want a two-victim probe, the CAS and the landing", rounds)
	}
	// A locked queue's steal keeps the paper's sequence, then a locked
	// push per task taken.
	locked := base
	locked.QueueMode = ModeLocked
	push := []string{"CAS64 r0", "Load64 r0 w2", "Load64 r0 w0", "Store64 r0 w2", "CAS64 r0"}
	for _, n := range []int{2, 4} {
		rounds, _ := stealRound(t, n, true, locked, nil)
		if len(rounds) == 0 || len(rounds[0]) != 1 {
			t.Errorf("P=%d locked steal completed as %q", n, rounds)
			continue
		}
		v := victimOf(rounds[0][0])
		want := [][]string{{"CAS64 " + v}, {"NbLoad64 " + v + " w0", "NbLoad64 " + v + " w2"}, {"NbGet " + v, "NbStore64 " + v + " w0"}, {"CAS64 " + v}}
		for i := 0; i < 2; i++ {
			for _, e := range push {
				want = append(want, []string{e})
			}
		}
		if !slices.EqualFunc(rounds, want, slices.Equal[[]string]) {
			t.Errorf("P=%d locked steal completed as %q, want %q", n, rounds, want)
		}
	}
}

// TestVictimPairs: an idle round's victims on a fixed seed. With two live
// peers or more they are two distinct ranks, neither this one nor a dead
// one, and every live peer is drawn within 10 % of uniform; with one live
// peer there is one victim, drawn with the Rand calls of a lone victim's
// draw (refVictim), so the rank's random stream moves exactly as it did.
func TestVictimPairs(t *testing.T) {
	const rounds = 7000
	for _, c := range []struct {
		n    int
		dead int // -1 = none
	}{{8, -1}, {8, 5}, {2, -1}, {3, 2}} {
		name := fmt.Sprintf("P=%d dead=%d", c.n, c.dead)
		peers := c.n - 1
		if c.dead >= 0 {
			peers--
		}
		// draw runs rounds draws on rank 0 of a fresh world and returns the
		// next number of its random stream; a round panics to fail.
		draw := func(round func(tc *TC, i int)) (next int64) {
			err := dsim.NewWorld(dsim.Config{NProcs: c.n, Seed: 11, Survivable: true}).Run(func(p pgas.Proc) {
				rt := Attach(p)
				rt.EnableRecovery()
				tc := NewTC(rt, Config{MaxBodySize: 8})
				if p.Rank() != 0 {
					return
				}
				if c.dead >= 0 {
					tc.rec.alive[c.dead] = false
					tc.rec.nAlive--
				}
				for i := 0; i < rounds; i++ {
					round(tc, i)
				}
				next = p.Rand().Int63()
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return next
		}
		if peers == 1 {
			want := make([]int, rounds)
			wantNext := draw(func(tc *TC, i int) { want[i] = refVictim(tc.rt.p, tc.rec.alive) })
			next := draw(func(tc *TC, i int) {
				if vs := tc.pickVictims(); len(vs) != 1 || vs[0] != want[i] {
					panic(fmt.Sprintf("round %d drew %v, want [%d]", i, vs, want[i]))
				}
			})
			if next != wantNext {
				t.Errorf("%s: the draws moved the rank's random stream differently from a lone victim's", name)
			}
			continue
		}
		drawn := make([]int, c.n)
		draw(func(tc *TC, i int) {
			vs := tc.pickVictims()
			if len(vs) != 2 || vs[0] == vs[1] || slices.Contains(vs, 0) || slices.Contains(vs, c.dead) {
				panic(fmt.Sprintf("round %d drew %v, want two distinct live victims other than rank 0", i, vs))
			}
			drawn[vs[0]]++
			drawn[vs[1]]++
		})
		fair := 2 * rounds / peers
		for v, k := range drawn {
			if v != 0 && v != c.dead && (k < fair*9/10 || k > fair*11/10) {
				t.Errorf("%s: rank %d drawn %d times in %d rounds, want %d ± 10 %%", name, v, k, rounds, fair)
			}
		}
	}
}

// refVictim is a lone victim's draw: uniform over the other ranks, then,
// on a dead one, uniform over the other live ranks.
func refVictim(p pgas.Proc, alive []bool) int {
	n, me := p.NProcs(), p.Rank()
	v := p.Rand().Intn(n - 1)
	if v >= me {
		v++
	}
	if alive[v] {
		return v
	}
	k := 0
	for _, a := range alive {
		if a {
			k++
		}
	}
	k = p.Rand().Intn(k - 1)
	for r := 0; r < n; r++ {
		if r == me || !alive[r] {
			continue
		}
		if k == 0 {
			return r
		}
		k--
	}
	panic("no live peer")
}
