// Quickstart: the smallest complete Scioto program.
//
// Four simulated processes collectively create a task collection, rank 0
// seeds it with tasks (so the initial distribution is maximally
// imbalanced), and work stealing spreads the tasks across all ranks. Each
// task records where it executed in a common local object; after the
// task-parallel phase the per-rank counts are printed.
//
// Run with:
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart -procs 8 -tasks 2000 -transport dsim
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"scioto"
)

func main() {
	procs := flag.Int("procs", 4, "number of simulated processes")
	tasks := flag.Int("tasks", 400, "number of tasks seeded on rank 0")
	transport := flag.String("transport", "shm", "transport: shm or dsim")
	flag.Parse()

	cfg := scioto.Config{
		Procs:     *procs,
		Transport: scioto.Transport(*transport),
		Seed:      42,
		Latency:   3 * time.Microsecond, // remote ops cost something
	}

	err := scioto.Run(cfg, func(rt *scioto.Runtime) {
		// A common local object: each rank's private execution counter,
		// reachable from any task via its portable handle.
		type counter struct{ executed int }
		cloH := rt.RegisterCLO(&counter{})

		tc := scioto.NewTC(rt, scioto.TCConfig{
			MaxBodySize: 8,
			ChunkSize:   5,
			MaxTasks:    1 << 14,
		})
		h := tc.Register(func(tc *scioto.TC, t *scioto.Task) {
			// Simulate a little work, then record where we ran.
			tc.Proc().Compute(50 * time.Microsecond)
			tc.Runtime().CLO(cloH).(*counter).executed++
		})

		// Seed everything on rank 0: dynamic load balancing must spread it.
		if rt.Rank() == 0 {
			task := scioto.NewTask(h, 8)
			for i := 0; i < *tasks; i++ {
				if err := tc.Add(0, scioto.AffinityHigh, task); err != nil {
					log.Fatalf("seed: %v", err)
				}
			}
		}

		tc.Process() // collective MIMD phase; returns on global termination

		// Gather per-rank counts: each rank fills its own entry of a zeroed
		// vector, and a summing all-reduce leaves every entry on every rank.
		counts := make([]int64, rt.NProcs())
		counts[rt.Rank()] = int64(rt.CLO(cloH).(*counter).executed)
		rt.Proc().AllReduce(counts, func(acc, in []int64) {
			for i := range acc {
				acc[i] += in[i]
			}
		})
		g := tc.GlobalStats() // collective: every rank participates
		if rt.Rank() == 0 {
			total := int64(0)
			fmt.Printf("task distribution across %d ranks (all seeded on rank 0):\n", rt.NProcs())
			for r, n := range counts {
				total += n
				fmt.Printf("  rank %2d executed %4d tasks %s\n", r, n, bar(n, int64(*tasks)))
			}
			fmt.Printf("total executed: %d (seeded: %d)\n", total, *tasks)
			fmt.Printf("steals: %d successful / %d attempts, %d tasks moved\n",
				g.StealsOK, g.StealAttempts, g.TasksStolen)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}

// bar renders a proportional text bar.
func bar(n, total int64) string {
	w := int(n * 40 / total)
	out := make([]byte, w)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
