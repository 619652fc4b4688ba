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
// for a queue metadata word, the word) or "Flush".
type opRecorder struct {
	pgas.Front
	pgas.Kernel
	meta pgas.Seg
	on   bool
	log  []string
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
	if r.on {
		r.log = append(r.log, "Flush")
	}
	r.Kernel.Flush()
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
// its shared portion, so any victim has something to claim.
func stealRound(t *testing.T, n int, stocked bool, cfg Config) (rounds [][]string, s Stats) {
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
			r.on = true
			if b := tc.steal(); b != nil {
				b.recycle()
			}
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

// TestStealRoundTrips pins the thief's round trips. At P = 4 an empty
// round reads two distinct victims, neither this rank, in one flushed
// batch. A marked successful steal completes at three points: the probe,
// the dirty mark and the claim CAS together (mark first), and the copy
// with the fetch-add retiring the claim; an unmarked claim is one blocking
// CAS instead. At P = 2, and under the counter detector at any P, the
// probe is one blocking load.
func TestStealRoundTrips(t *testing.T) {
	base := Config{MaxBodySize: 8, ChunkSize: 2, MaxTasks: 16}
	marked := base
	marked.DisableColoringOpt = true // mark every claim

	rounds, s := stealRound(t, 4, false, base)
	if len(rounds) != 1 || len(rounds[0]) != 2 || !strings.HasPrefix(rounds[0][0], "NbLoad64") ||
		!strings.HasPrefix(rounds[0][1], "NbLoad64") || victimOf(rounds[0][0]) == victimOf(rounds[0][1]) ||
		victimOf(rounds[0][0]) == "r0" || victimOf(rounds[0][1]) == "r0" {
		t.Errorf("P=4 empty round completed as %q, want two NbLoad64 of two distinct other ranks in one Flush", rounds)
	}
	if s.StealAttempts != 1 || s.StealsEmpty != 1 {
		t.Errorf("P=4 empty round counted %d attempts, %d empty, want 1 and 1", s.StealAttempts, s.StealsEmpty)
	}

	for _, c := range []struct {
		name  string
		cfg   Config
		claim func(v string) []string
		sent  int64
	}{
		{"marked", marked, func(v string) []string { return []string{"NbFetchAdd64 " + v + " w3", "NbCAS64 " + v + " w1"} }, 1},
		{"unmarked", base, func(v string) []string { return []string{"CAS64 " + v + " w1"} }, 0},
	} {
		rounds, s := stealRound(t, 4, true, c.cfg)
		if len(rounds) != 3 || len(rounds[0]) != 2 {
			t.Errorf("P=4 %s steal completed at %d points: %q, want 3 after a two-victim probe", c.name, len(rounds), rounds)
			continue
		}
		v := victimOf(rounds[1][0])
		if !slices.Contains([]string{victimOf(rounds[0][0]), victimOf(rounds[0][1])}, v) {
			t.Errorf("P=4 %s steal claimed on %s, which it did not probe: %q", c.name, v, rounds)
		}
		if want := c.claim(v); !slices.Equal(rounds[1], want) {
			t.Errorf("P=4 %s claim completed as %q, want %q", c.name, rounds[1], want)
		}
		copyOut := rounds[2]
		if len(copyOut) < 2 || copyOut[0] != "NbGet "+v || copyOut[len(copyOut)-1] != "NbFetchAdd64 "+v+" w1" {
			t.Errorf("P=4 %s copy completed as %q, want NbGets then the retiring NbFetchAdd64 on %s", c.name, copyOut, v)
		}
		if s.StealsOK != 1 || s.DirtyMarksSent != c.sent {
			t.Errorf("P=4 %s steal counted %d ok, %d marks sent, want 1 and %d", c.name, s.StealsOK, s.DirtyMarksSent, c.sent)
		}
	}

	rounds, _ = stealRound(t, 2, false, base)
	if want := [][]string{{"Load64 r1 w1"}}; !slices.EqualFunc(rounds, want, slices.Equal[[]string]) {
		t.Errorf("P=2 empty round completed as %q, want %q", rounds, want)
	}
	counter := base
	counter.Termination = TermCounter
	if rounds, _ = stealRound(t, 4, false, counter); len(rounds) != 1 || len(rounds[0]) != 1 || !strings.HasPrefix(rounds[0][0], "Load64 ") {
		t.Errorf("P=4 empty round under the counter detector completed as %q, want one blocking Load64", rounds)
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
