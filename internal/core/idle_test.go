package core

import (
	"fmt"
	"testing"
	"time"

	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
)

// The park/wake protocol of internal/serve, rebuilt on the idle hook alone
// so that dsim can run it: virtual time makes every schedule reproducible
// from its seed, and a lost wake is not a hang but dsim's deadlock error —
// every live rank blocked in Recv — with the seed in the message.
const (
	parkTestRounds       = 12 // idle rounds before a rank raises its flag
	parkTestDone   int32 = 0x7a01
	parkTestWake   int32 = 0x7a02
	parkTestResume byte  = 0
	parkTestStop   byte  = 1
	parkTestTasks        = 1 << 10 // more than a run injects
)

// TestParkWakeLosesNoWake: rank 0 is gateway-shaped — from its idle hook it
// injects seeded bursts of tasks, dealt round-robin over every rank, after
// seeded pauses that straddle the time a worker takes to park, wakes the
// parked ranks it dealt to (publish the task, then CAS the flag), and
// blocks in Recv for completions while any are in flight. Workers park
// through their hook as serve's do: raise the flag in one idle round, let
// the phase loop's next pop look at the queue behind it, block in Recv
// only on the round after. 200 seeds at 2, 3 and 8 ranks; every task runs
// exactly once, a burst is injected only when the one before has been
// reported complete, and Process returns on every rank once rank 0, out of
// bursts, tells the workers to stop and reports inactive.
//
// The mutation this kills: a worker that looks at its queue BEFORE raising
// the flag — raise and Recv in the same hook call, the round's earlier pop
// being the look — sleeps through a task published between the two if the
// adder's CAS also gets in before the flag, and the sweep stops at P=2
// seed 12 with dsim's deadlock error (rank 0 in Recv for a completion,
// rank 1 in Recv for a wake). Two things keep that window open and the
// loss visible. The model charges an ordered local operation 2 µs and a
// remote one 0.2 µs, so the look and the flag are further apart than the
// adder's publication and its CAS (with dsim's defaults, 80 ns against
// 4.4 µs, the mutant's window is closed). And the even seeds run with
// stealing off: a thief that happens to probe the sleeper takes the task
// and hides the lost wake — with one worker, always.
func TestParkWakeLosesNoWake(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	for _, n := range []int{2, 3, 8} {
		parks := 0
		for seed := int64(0); seed < seeds; seed++ {
			var ran [parkTestTasks]int8
			injected, parked := 0, 0
			err := dsim.NewWorld(dsim.Config{NProcs: n, Seed: seed, LocalOpCost: 2 * time.Microsecond, Latency: 200 * time.Nanosecond}).Run(func(p pgas.Proc) {
				me := p.Rank()
				tc := NewTC(Attach(p), Config{MaxBodySize: 8, ChunkSize: 2, MaxTasks: 64, DisableStealing: seed%2 == 0})
				flag := p.AllocWords(1)
				h := tc.Register(func(tc *TC, task *Task) {
					ran[pgas.GetI64(task.Body())]++
					p.Compute(time.Duration(p.Rand().Intn(20000)) * time.Nanosecond)
				})
				unreported, idle, cmd := 0, 0, parkTestResume
				tc.SetExecHook(func(*TC, *Task, time.Duration) {
					if idle > parkTestRounds {
						p.Store64(me, flag, 0, 0)
					}
					unreported, idle = unreported+1, 0
				})
				if me != 0 {
					tc.SetIdleHook(func(*TC) bool {
						if unreported > 0 {
							p.Send(0, parkTestDone, []byte{byte(unreported)})
							unreported = 0
						}
						switch {
						case cmd != parkTestResume:
							return false
						case idle < parkTestRounds:
							idle++
						case idle == parkTestRounds:
							p.Store64(me, flag, 0, 1)
							idle++
						default:
							parked++
							msg, _ := p.Recv(0, parkTestWake)
							cmd = msg[0]
							p.Store64(me, flag, 0, 0)
							idle = 0
						}
						return true
					})
					//lint:ignore collcongruence every rank enters Process once: this arm returns right after it, and rank 0, which skips the arm, calls Process below
					tc.Process()
					return
				}

				rng := p.Rand()
				bursts, inFlight, next := 3+rng.Intn(6), 0, 0
				task := NewTask(h, 8)
				tc.SetIdleHook(func(*TC) bool {
					inFlight -= unreported
					unreported = 0
					for {
						msg, _, ok := p.TryRecv(pgas.AnySource, parkTestDone)
						if !ok {
							break
						}
						inFlight -= int(msg[0])
					}
					switch {
					case inFlight > 0:
						if idle++; idle >= parkTestRounds {
							msg, _ := p.Recv(pgas.AnySource, parkTestDone)
							inFlight -= int(msg[0])
							idle = 0
						}
						return true
					case inFlight < 0:
						panic(fmt.Sprintf("%d more completions reported than tasks injected", -inFlight))
					case bursts == 0:
						if cmd == parkTestResume {
							cmd = parkTestStop
							for w := 1; w < n; w++ {
								p.Send(w, parkTestWake, []byte{parkTestStop})
							}
						}
						return false
					}
					// Everything injected so far has been reported complete.
					for id := 0; id < next; id++ {
						if ran[id] != 1 {
							panic(fmt.Sprintf("burst injected while task %d had run %d times", id, ran[id]))
						}
					}
					p.Compute(time.Duration(rng.Intn(100000)) * time.Nanosecond)
					bursts--
					injected++
					dealt := make([]bool, n)
					for k := 1 + rng.Intn(2*n); k > 0; k-- {
						pgas.PutI64(task.Body(), int64(next))
						if err := tc.Add(next%n, AffinityLow, task); err != nil {
							panic(err)
						}
						dealt[next%n] = true
						next++
						inFlight++
					}
					for w := 1; w < n; w++ {
						if dealt[w] && p.CAS64(w, flag, 0, 1, 0) {
							p.Send(w, parkTestWake, []byte{parkTestResume})
						}
					}
					return true
				})
				tc.Process()
				if inFlight != 0 || bursts != 0 {
					panic(fmt.Sprintf("the phase ended with %d tasks in flight and %d bursts to go", inFlight, bursts))
				}
				for id := 0; id < next; id++ {
					if ran[id] != 1 {
						panic(fmt.Sprintf("task %d ran %d times", id, ran[id]))
					}
				}
			})
			if err != nil {
				t.Fatalf("P=%d seed %d: %v", n, seed, err)
			}
			if injected < 3 {
				t.Fatalf("P=%d seed %d: only %d bursts injected", n, seed, injected)
			}
			parks += parked
		}
		if parks < int(seeds) {
			t.Errorf("P=%d: workers parked %d times over %d seeds: the pauses never outlast the idle rounds", n, parks, seeds)
		}
	}
}
