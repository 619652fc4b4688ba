package core

import (
	"fmt"
	"math/rand"
	"testing"

	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/shm"
)

// The operations of TestTopCursorFollowsTop, each done by one rank to its
// own queue or, for steals and adds, to its peer's; cursorReset is
// collective.
const (
	cursorPush = iota
	cursorPop
	cursorRelease
	cursorReacquire
	cursorSteal
	cursorAddPeer
	cursorAddSelf
	cursorLiveRange
	cursorReset
)

var cursorOpNames = [...]string{"push", "pop", "release", "reacquire", "steal", "add to peer", "add to self", "liveRange", "reset"}

// TestTopCursorFollowsTop: the owner's ring cursor taskQueue.topOff is
// slotOff(top) after every operation — push, pop, release (relaxed and
// ordered), reacquire, steals from the queue and the landings of what a
// steal took, remote adds to it and to the own shared end, recovery's liveRange
// and Reset — in seeded random sequences on a five-slot ring, so that top
// wraps the ring many times in both directions and, behind the adds that
// take the steal end below zero and the reacquires that follow them, goes
// negative. Both ranks draw the same sequence and take turns, a barrier
// apart; each checks its own queue after every operation. A failing seed
// replays alone: go test -run 'TestTopCursorFollowsTop/shm/seed=7'
// ./internal/core/ (or dsim).
func TestTopCursorFollowsTop(t *testing.T) {
	const capacity, body, ops = 4, 8, 600 // a ring of capacity+1 = 5 slots
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	weights := []int{cursorPush, cursorPush, cursorPush, cursorPop, cursorPop, cursorPop, cursorRelease,
		cursorReacquire, cursorReacquire, cursorSteal, cursorAddPeer, cursorAddSelf, cursorLiveRange}
	for _, world := range []struct {
		name string
		new  func(seed int64) pgas.World
	}{
		{"shm", func(seed int64) pgas.World { return shm.NewWorld(shm.Config{NProcs: 2, Seed: seed}) }},
		{"dsim", func(seed int64) pgas.World { return dsim.NewWorld(dsim.Config{NProcs: 2, Seed: seed}) }},
	} {
		var lo int64    // the lowest top any seed reached, on either rank
		var laps [2]int // times top crossed the ring's end upwards and downwards
		ran := 0        // seeds run: -run may have picked one
		for seed := int64(1); seed <= int64(seeds); seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", world.name, seed), func(t *testing.T) {
				ran++
				var low [2]int64      // per rank
				var crossed [2][2]int // per rank, as laps
				lap := func(top int64) int64 { return (top - emod(top, capacity+1)) / (capacity + 1) }
				err := world.new(seed).Run(func(p pgas.Proc) {
					q := newTaskQueue(p, ModeSplit, HeaderBytes+body, capacity)
					p.Barrier()
					rng := rand.New(rand.NewSource(seed)) // the same draws on both ranks
					me, peer := p.Rank(), 1-p.Rank()
					var s Stats
					next := int64(me) << 32
					for i := 0; i < ops; i++ {
						actor, op, arg := rng.Intn(2), weights[rng.Intn(len(weights))], rng.Intn(4)
						if rng.Intn(150) == 0 {
							op = cursorReset
						}
						before := lap(q.top)
						switch {
						case op == cursorReset:
							q.reset()
						case me != actor:
						case op == cursorPush:
							q.pushPrivate(mkWire(body, next), &s)
							next++
						case op == cursorPop:
							q.popPrivate(&s)
						case op == cursorRelease:
							q.maybeRelease(arg%2 == 0, &s)
						case op == cursorReacquire:
							q.reacquire(&s)
						case op == cursorSteal:
							q.steal(peer, 1+arg%3, false, &s)
						case op == cursorAddPeer:
							q.addRemote(peer, mkWire(body, next), &s)
							next++
						case op == cursorAddSelf:
							q.addRemote(me, mkWire(body, next), &s)
							next++
						case op == cursorLiveRange:
							q.liveRange()
						}
						if want := q.slotOff(q.top); q.topOff != want {
							panic(fmt.Sprintf("op %d (%s by rank %d): rank %d's top %d (split %d) has cursor %d, want %d",
								i, cursorOpNames[op], actor, me, q.top, q.split, q.topOff, want))
						}
						if after := lap(q.top); op != cursorReset && after > before {
							crossed[me][0]++
						} else if op != cursorReset && after < before {
							crossed[me][1]++
						}
						low[me] = min(low[me], q.top)
						p.Barrier()
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				lo = min(lo, low[0], low[1])
				for r := range crossed {
					laps[0], laps[1] = laps[0]+crossed[r][0], laps[1]+crossed[r][1]
				}
			})
		}
		if ran == seeds && (lo >= -(capacity+1) || laps[0] < 5*seeds || laps[1] < 5*seeds) {
			t.Errorf("%s: top went no lower than %d and crossed the ring's end %d times up, %d down: the sequences exercised too little",
				world.name, lo, laps[0], laps[1])
		}
		t.Logf("%s: top went as low as %d and crossed the ring's end %d times up, %d down", world.name, lo, laps[0], laps[1])
	}
}
