package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
)

// rankOf is a proc that answers Rank and NProcs only: all rebuild asks.
type rankOf struct {
	pgas.Proc
	rank, n int
}

func (r rankOf) Rank() int   { return r.rank }
func (r rankOf) NProcs() int { return r.n }

// waveTree builds every live rank's detector over alive (nil entries for
// the dead), as rebuild lays the tree out on each of them.
func waveTree(alive []bool) []*termDetector {
	tds := make([]*termDetector, len(alive))
	for r, a := range alive {
		if a {
			tds[r] = &termDetector{p: rankOf{rank: r, n: len(alive)}}
			tds[r].rebuild(alive)
		}
	}
	return tds
}

// allAlive is a membership of n live ranks.
func allAlive(n int) []bool {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return alive
}

func TestVotesBefore(t *testing.T) {
	td := waveTree(allAlive(4096))[0]
	cases := []struct {
		v, t int
		want bool
	}{
		{0, 0, false}, // a rank does not vote before itself
		{1, 0, true},
		{4, 0, true},
		{5, 1, true}, // 5 = 4*1+1
		{8, 1, true}, // 8 = 4*1+4
		{9, 2, true},
		{16, 3, true},
		{20, 4, true},
		{5, 2, false},
		{9, 1, false},
		{0, 1, false}, // ancestor, not descendant
		{21, 5, true}, // 21 = 4*5+1
		{85, 5, true}, // 85 -> 21 -> 5
		{85, 1, true}, // 85 -> 21 -> 5 -> 1
		{84, 0, true}, // everything descends from the root
		{84, 1, false},
		{84, 4, true}, // 84 -> 20 -> 4
	}
	for _, c := range cases {
		if got := td.votesBefore(c.v, c.t); got != c.want {
			t.Errorf("votesBefore(%d, %d) = %v, want %v", c.v, c.t, got, c.want)
		}
	}
}

// Property: v votes before t iff t appears on v's path to the root in the
// 4-ary heap, and everything except the root votes before the root.
func TestVotesBeforeQuick(t *testing.T) {
	td := waveTree(allAlive(4096))[0]
	f := func(vRaw, tRaw uint16) bool {
		v := int(vRaw % 4096)
		tt := int(tRaw % 4096)
		// Reference: walk v's ancestor chain.
		want := false
		for a := v; a > 0; {
			a = (a - 1) / tdArity
			if a == tt {
				want = true
				break
			}
		}
		return td.votesBefore(v, tt) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: votes-before is transitive and antisymmetric.
func TestDescendantOrderProperties(t *testing.T) {
	const n = 64
	td := waveTree(allAlive(n))[0]
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if td.votesBefore(a, b) && td.votesBefore(b, a) {
				t.Fatalf("antisymmetry violated at (%d,%d)", a, b)
			}
			for c := 0; c < n; c++ {
				if td.votesBefore(a, b) && td.votesBefore(b, c) && !td.votesBefore(a, c) {
					t.Fatalf("transitivity violated at (%d,%d,%d)", a, b, c)
				}
			}
		}
	}
}

// checkWaveTree checks the tree rebuild lays out over alive: the root is
// the lowest live rank; every other live rank is in exactly one parent's
// children, the parent it names itself; a parent's children write
// distinct up cells; and votesBefore is the parent-chain relation. It
// returns the tree's depth in hops.
func checkWaveTree(alive []bool) (depth int, err error) {
	tds := waveTree(alive)
	root := -1
	for r, td := range tds {
		if td != nil {
			root = r
			break
		}
	}
	listed := make([]int, len(alive))
	for r, td := range tds {
		if td == nil {
			continue
		}
		if td.isRoot != (r == root) || (td.parent < 0) != (r == root) {
			return 0, fmt.Errorf("rank %d: root %v, parent %d; the root is rank %d", r, td.isRoot, td.parent, root)
		}
		var cells [nTDCell]bool
		for _, c := range td.children {
			if tds[c] == nil || tds[c].parent != r {
				return 0, fmt.Errorf("rank %d lists child %d, whose parent is not rank %d", r, c, r)
			}
			cell := td.upCellOf(c)
			if cell <= tdDown || cell >= nTDCell || cells[cell] {
				return 0, fmt.Errorf("rank %d: child %d writes up cell %d, out of range or taken", r, c, cell)
			}
			cells[cell] = true
			listed[c]++
		}
	}
	onChain := make([]bool, len(alive))
	for v, td := range tds {
		if td == nil {
			continue
		}
		if v != root && listed[v] != 1 {
			return 0, fmt.Errorf("rank %d is in %d parents' children, want 1", v, listed[v])
		}
		clear(onChain)
		hops := 0
		for a := td.parent; a >= 0; a = tds[a].parent {
			onChain[a] = true
			hops++
		}
		depth = max(depth, hops)
		for tt := range alive {
			if got := td.votesBefore(v, tt); got != onChain[tt] {
				return 0, fmt.Errorf("votesBefore(%d, %d) = %v, but the parent chain says %v", v, tt, got, onChain[tt])
			}
		}
	}
	return depth, nil
}

// TestWaveTreeShape: the 4-ary wave tree over every world size up to 600
// and, rebuilt, over random dead sets, root included. Depth is ⌈log₄⌉ of
// the size: 3 hops at P = 64, 5 at P = 512.
func TestWaveTreeShape(t *testing.T) {
	for n := 1; n <= 600; n++ {
		depth, err := checkWaveTree(allAlive(n))
		if err != nil {
			t.Fatalf("P=%d: %v", n, err)
		}
		if want := map[int]int{64: 3, 512: 5}[n]; want != 0 && depth != want {
			t.Errorf("P=%d: depth %d hops, want %d", n, depth, want)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(599)
		alive := allAlive(n)
		for dead := rng.Intn(n); dead > 0; dead-- {
			alive[rng.Intn(n)] = false
		}
		alive[rng.Intn(n)] = true // someone survives
		if _, err := checkWaveTree(alive); err != nil {
			t.Fatalf("P=%d after a rebuild, alive %v: %v", n, alive, err)
		}
	}
}

// TestResetZeroesOwnCells: a phase's reset stores the rank's down cell and
// the up cells its children write, and no other: at P = 7 rank 0 has four
// children, rank 1 two and the other ranks none.
func TestResetZeroesOwnCells(t *testing.T) {
	const n = 7
	stores := make([]int, n)
	left := make([][nTDCell]int64, n)
	err := dsim.NewWorld(dsim.Config{NProcs: n, Seed: 1}).Run(func(p pgas.Proc) {
		r := &opRecorder{Kernel: p}
		r.Bind(r)
		tc := NewTC(Attach(r), Config{MaxBodySize: 8})
		me := p.Rank()
		for c := 0; c < nTDCell; c++ {
			p.Store64(me, tc.td.seg, c, 99)
		}
		r.on = true
		tc.td.reset()
		r.on = false
		stores[me] = len(r.log)
		for c := range left[me] {
			left[me][c] = p.Load64(me, tc.td.seg, c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, want := range []int{5, 3, 1, 1, 1, 1, 1} {
		if stores[r] != want {
			t.Errorf("rank %d: reset issued %d stores, want %d", r, stores[r], want)
		}
		for c, v := range left[r] {
			if zeroed := c <= want-1; zeroed != (v == 0) {
				t.Errorf("rank %d: cell %d reads %d after reset", r, c, v)
			}
		}
	}
}

func TestVoteEncoding(t *testing.T) {
	for wave := int64(1); wave < 100; wave += 7 {
		for _, color := range []int64{colorWhite, colorBlack} {
			v := encodeVote(wave, color)
			if v == 0 {
				t.Fatalf("vote (%d,%d) encodes to the reserved empty value", wave, color)
			}
			w, c := decodeVote(v)
			if w != wave || c != color {
				t.Errorf("round trip (%d,%d) -> (%d,%d)", wave, color, w, c)
			}
		}
	}
}
