package core

import "scioto/internal/pgas"

// Termination detection, following Section 5.2 of the paper: a wave-based
// algorithm in the style of Francez and Rodeh over a spanning tree of the
// processes. The tree is a 4-ary heap (rank r's children are 4r+1 … 4r+4,
// its parent (r−1)/4): a wave crosses the tree twice, down and up, so the
// depth, ⌈log₄⌉ of P rather than the paper's binary ⌈log₂⌉, is what the
// detection costs after the last task. The root starts a token wave that is
// split on the way down the tree; as processes become passive they combine
// their children's tokens with their own color and pass the result up.
// Tokens are white unless the process (or one of its children) performed a
// load-balancing operation since its last vote, or a thief marked the
// process dirty; a black token at the root forces another wave, a white one
// means global termination.
//
// The §5.3 token coloring optimization is implemented in TC.markFor: a
// thief skips marking its victim dirty when the thief has not yet voted in
// the wave it knows about, or when the victim votes before the thief (the
// victim is a descendant of the thief in the spanning tree: votesBefore).
//
// Word-cell protocol (one word segment per process):
//
//	cell 0 (down):     wave number written by the parent; termSignal means
//	                   global termination; 0 means empty.
//	cell 1+i (up[i]):  vote from the child in slot i: wave*4 + 2 + color.
//
// Votes encode the wave so a slow parent cannot confuse waves; down cells
// only ever increase (waves are numbered from 1).
const (
	tdArity = 4 // children per node of the spanning tree
	tdDown  = 0 // the up cells follow it, one per child slot
	nTDCell = 1 + tdArity

	termSignal = -1
)

const (
	colorWhite int64 = 0
	colorBlack int64 = 1
)

// encodeVote packs a wave number and color into an up-cell value.
// Zero is reserved for "no vote yet".
func encodeVote(wave int64, color int64) int64 { return wave*4 + 2 + color }

// decodeVote unpacks an up-cell value.
func decodeVote(v int64) (wave int64, color int64) { return (v - 2) / 4, (v - 2) % 4 }

// termDetector is the per-process termination detection state for one
// processing phase of a task collection.
//
// The tree is laid out over *compact indices*: position i among the live
// ranks in rank order. At creation every rank is live, so compact index
// equals rank and the tree matches the paper's fixed layout. After a rank
// death, rebuild renumbers the survivors and re-roots the tree at the
// lowest live rank, preserving the heap shape (compact index c's children
// are tdArity·c+1 … tdArity·c+tdArity) over P−1 members.
type termDetector struct {
	p   pgas.Proc
	seg pgas.Seg

	parent   int
	children []int

	ci     []int // rank -> compact index (-1 = dead)
	isRoot bool
	nLive  int

	wave      int64 // wave this process is currently participating in (0 = none yet)
	forwarded bool  // wave has been forwarded to children
	voted     bool  // this process has voted in 'wave'

	// Color state. balancedSinceVote is set by successful steals and remote
	// adds; dirtySeen tracks the last observed value of the queue's dirty
	// counter.
	balancedSinceVote bool
	dirtySeen         int64

	terminated bool

	stats *Stats
	obs   *Observer // nil = observability disabled
}

// newTermDetector collectively allocates the detector's word segment.
func newTermDetector(p pgas.Proc, stats *Stats) *termDetector {
	td := &termDetector{
		p:     p,
		seg:   p.AllocWords(nTDCell),
		stats: stats,
	}
	alive := make([]bool, p.NProcs())
	for i := range alive {
		alive[i] = true
	}
	td.rebuild(alive)
	return td
}

// rebuild remaps the spanning tree onto the live membership: survivors are
// renumbered by compact index (position among live ranks, in rank order),
// the root becomes the lowest live rank, and parent/children links are
// recomputed from the compact heap shape. Local operation; callers
// must follow with reset (collectively) before the next wave.
func (td *termDetector) rebuild(alive []bool) {
	n := td.p.NProcs()
	td.ci = make([]int, n)
	byCi := make([]int, 0, n)
	for r := 0; r < n; r++ {
		if alive[r] {
			td.ci[r] = len(byCi)
			byCi = append(byCi, r)
		} else {
			td.ci[r] = -1
		}
	}
	td.nLive = len(byCi)
	me := td.ci[td.p.Rank()]
	if me < 0 {
		panic("core: termination detector rebuilt on a dead rank")
	}
	td.isRoot = me == 0
	td.parent = -1
	if me > 0 {
		td.parent = byCi[(me-1)/tdArity]
	}
	td.children = td.children[:0]
	for c := tdArity*me + 1; c <= tdArity*me+tdArity && c < td.nLive; c++ {
		td.children = append(td.children, byCi[c])
	}
}

// votesBefore reports whether rank v votes before rank t in the current
// tree (the paper's votes-before relation "v -> t"): v is a descendant of
// t over the compact live indices. A rank does not vote before itself.
func (td *termDetector) votesBefore(v, t int) bool {
	cv, ct := td.ci[v], td.ci[t]
	if cv < 0 || ct < 0 || cv <= ct {
		return false
	}
	for cv > ct {
		cv = (cv - 1) / tdArity
	}
	return cv == ct
}

// reset prepares the detector for a new processing phase: it zeroes this
// rank's down cell and the up cells its children write (a leaf's one cell),
// with a barrier behind it (handled by the TC). The up cells of slots no
// child fills are never read.
func (td *termDetector) reset() {
	me := td.p.Rank()
	td.p.Store64(me, td.seg, tdDown, 0)
	for _, c := range td.children {
		td.p.Store64(me, td.seg, td.upCellOf(c), 0)
	}
	td.wave = 0
	td.forwarded = false
	td.voted = false
	td.balancedSinceVote = false
	td.dirtySeen = 0
	td.terminated = false
}

// noteBalance records that this process performed a load-balancing
// operation (a successful steal or a remote add) since its last vote,
// forcing its next token to be black.
func (td *termDetector) noteBalance() { td.balancedSinceVote = true }

// hasVoted reports whether this process has cast a vote in the most recent
// wave it has observed (the thief-side input to the coloring optimization).
func (td *termDetector) hasVoted() bool { return td.voted }

// upCellOf returns the up-cell index on the parent that rank writes: its
// child slot, which follows the rank's compact index, so the cell
// assignment stays collision-free after a rebuild.
func (td *termDetector) upCellOf(rank int) int {
	return 1 + (td.ci[rank]-1)%tdArity
}

// step advances the detector. passive must be true iff the caller is idle
// with an empty queue, and the caller must have checked its queue for work
// immediately before calling (votes must reflect a fresh emptiness check).
// queueDirty supplies an ordered read of the queue's dirty counter, taken
// lazily only when a vote is about to be cast.
//
// It returns true once global termination has been detected.
func (td *termDetector) step(passive bool, queueDirty func() int64) bool {
	if td.terminated {
		return true
	}
	me := td.p.Rank()
	// Wave activity is reported as a span from here only when the step
	// did real wave work — observed a wave, voted, or terminated; the
	// detector polls in the idle loop.
	stepT0 := td.obs.now()

	if td.nLive == 1 {
		// Sole live process: passivity is termination.
		if passive {
			td.terminated = true
		}
		return td.terminated
	}

	if td.isRoot {
		// Root: start the first wave upon first becoming passive.
		if td.wave == 0 && passive {
			td.startWave(1)
		}
	} else {
		// Observe the down cell: a new wave or the termination signal.
		down := td.p.Load64(me, td.seg, tdDown)
		if down == termSignal {
			td.propagateDown(termSignal)
			td.obs.terminate(stepT0, td.wave)
			td.terminated = true
			return true
		}
		if down > td.wave {
			td.wave = down
			td.forwarded = false
			td.voted = false
			td.stats.WavesSeen++
			td.obs.wave(stepT0, down)
		}
		if td.wave > 0 && !td.forwarded {
			td.propagateDown(td.wave)
			td.forwarded = true
		}
	}

	if td.wave == 0 || td.voted || !passive {
		return false
	}

	// Collect children's votes for this wave.
	color := colorWhite
	for _, c := range td.children {
		v := td.p.Load64(me, td.seg, td.upCellOf(c))
		if v == 0 {
			return false // child has not voted yet
		}
		w, cl := decodeVote(v)
		if w < td.wave {
			return false // stale vote from a previous wave
		}
		if w > td.wave {
			// A child cannot be ahead of its parent's wave.
			panic("core: termination detection wave skew")
		}
		if cl == colorBlack {
			color = colorBlack
		}
	}

	// Fold in our own color: load balancing since last vote, or a dirty
	// mark left by a thief. The dirty counter is read with an ordered load
	// after the caller's queue-emptiness check, so a steal that emptied
	// our queue is guaranteed to be visible here.
	dirty := queueDirty()
	if td.balancedSinceVote || dirty != td.dirtySeen {
		color = colorBlack
	}
	td.dirtySeen = dirty
	td.balancedSinceVote = false

	if td.isRoot {
		// Root completes the wave.
		if color == colorWhite {
			td.propagateDown(termSignal)
			td.obs.terminate(stepT0, td.wave)
			td.terminated = true
			td.voted = true
			return true
		}
		td.startWave(td.wave + 1)
		td.obs.waveRestart(stepT0, td.wave)
		return false
	}

	// Cast our vote upward.
	td.p.Store64(td.parent, td.seg, td.upCellOf(me), encodeVote(td.wave, color))
	td.obs.vote(stepT0, td.wave, color)
	td.voted = true
	td.stats.Votes++
	if color == colorBlack {
		td.stats.BlackVotes++
	}
	return false
}

// startWave (root only) begins wave w.
func (td *termDetector) startWave(w int64) {
	td.wave = w
	td.voted = false
	td.stats.WavesSeen++
	td.propagateDown(w)
}

// propagateDown writes a wave number (or the termination signal) into the
// children's down cells, in one round trip.
func (td *termDetector) propagateDown(v int64) {
	if len(td.children) == 0 {
		return
	}
	for _, c := range td.children {
		td.p.NbStore64(c, td.seg, tdDown, v)
	}
	td.p.Flush()
}
