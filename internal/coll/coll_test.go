package coll_test

import (
	"fmt"
	"math"
	"testing"

	"scioto/internal/coll"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/shm"
)

func forBothTransports(t *testing.T, n int, body func(p pgas.Proc)) {
	t.Helper()
	for _, tr := range []struct {
		name string
		mk   func() pgas.World
	}{
		{"shm", func() pgas.World { return shm.NewWorld(shm.Config{NProcs: n, Seed: 8}) }},
		{"dsim", func() pgas.World { return dsim.NewWorld(dsim.Config{NProcs: n, Seed: 8}) }},
	} {
		t.Run(tr.name, func(t *testing.T) {
			if err := tr.mk().Run(body); err != nil {
				t.Fatalf("world failed: %v", err)
			}
		})
	}
}

var sizes = []int{1, 2, 3, 5, 8, 13}

func TestReduceSumToEveryRoot(t *testing.T) {
	for _, n := range sizes {
		n := n
		t.Run(fmt.Sprintf("P%d", n), func(t *testing.T) {
			forBothTransports(t, n, func(p pgas.Proc) {
				c := coll.New(p, 8)
				for root := 0; root < n; root++ {
					vec := []int64{int64(p.Rank() + 1), int64(p.Rank() * 10)}
					c.Reduce(vec, coll.Sum, root)
					if p.Rank() == root {
						wantA := int64(n * (n + 1) / 2)
						wantB := int64(10 * n * (n - 1) / 2)
						if vec[0] != wantA || vec[1] != wantB {
							panic(fmt.Sprintf("root %d: reduce = %v, want [%d %d]", root, vec, wantA, wantB))
						}
					}
					p.Barrier()
				}
			})
		})
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	forBothTransports(t, 6, func(p pgas.Proc) {
		c := coll.New(p, 4)
		for root := 0; root < 6; root++ {
			vec := make([]int64, 3)
			if p.Rank() == root {
				for i := range vec {
					vec[i] = int64(root*100 + i)
				}
			}
			c.Bcast(vec, root)
			for i := range vec {
				if vec[i] != int64(root*100+i) {
					panic(fmt.Sprintf("rank %d: bcast from %d got %v", p.Rank(), root, vec))
				}
			}
			p.Barrier()
		}
	})
}

func TestAllReduceOps(t *testing.T) {
	forBothTransports(t, 5, func(p pgas.Proc) {
		c := coll.New(p, 4)
		r := int64(p.Rank())

		sum := []int64{r, 1}
		c.AllReduce(sum, coll.Sum)
		if sum[0] != 10 || sum[1] != 5 {
			panic(fmt.Sprintf("sum = %v", sum))
		}

		max := []int64{r * r}
		c.AllReduce(max, coll.Max)
		if max[0] != 16 {
			panic(fmt.Sprintf("max = %v", max))
		}

		min := []int64{r - 2}
		c.AllReduce(min, coll.Min)
		if min[0] != -2 {
			panic(fmt.Sprintf("min = %v", min))
		}

		or := []int64{1 << uint(r)}
		c.AllReduce(or, coll.BOr)
		if or[0] != 0b11111 {
			panic(fmt.Sprintf("or = %v", or))
		}
	})
}

func TestAllGather(t *testing.T) {
	forBothTransports(t, 7, func(p pgas.Proc) {
		c := coll.New(p, 8)
		out := make([]int64, 7)
		c.AllGather(int64(p.Rank()*3+1), out)
		for r, v := range out {
			if v != int64(r*3+1) {
				panic(fmt.Sprintf("rank %d: allgather = %v", p.Rank(), out))
			}
		}
	})
}

func TestExScan(t *testing.T) {
	forBothTransports(t, 6, func(p pgas.Proc) {
		c := coll.New(p, 8)
		got := c.ExScan(int64(p.Rank() + 1)) // values 1..6
		want := int64(p.Rank() * (p.Rank() + 1) / 2)
		if got != want {
			panic(fmt.Sprintf("rank %d: exscan = %d, want %d", p.Rank(), got, want))
		}
	})
}

func TestSumF64Deterministic(t *testing.T) {
	forBothTransports(t, 5, func(p pgas.Proc) {
		c := coll.New(p, 8)
		v := 0.1 * float64(p.Rank()+1)
		got := c.SumF64(v)
		// Every rank must compute the bitwise-identical result.
		want := 0.0
		for r := 1; r <= 5; r++ {
			want += 0.1 * float64(r)
		}
		if got != want {
			panic(fmt.Sprintf("rank %d: sumf64 = %v, want %v", p.Rank(), got, want))
		}
	})
}

func TestMaxF64(t *testing.T) {
	forBothTransports(t, 4, func(p pgas.Proc) {
		c := coll.New(p, 8)
		v := math.Sin(float64(p.Rank()))
		got := c.MaxF64(v)
		want := math.Max(math.Max(math.Sin(0), math.Sin(1)), math.Max(math.Sin(2), math.Sin(3)))
		if got != want {
			panic(fmt.Sprintf("maxf64 = %v, want %v", got, want))
		}
	})
}

func TestRepeatedCollectives(t *testing.T) {
	// Back-to-back operations must not bleed into one another.
	forBothTransports(t, 4, func(p pgas.Proc) {
		c := coll.New(p, 4)
		for round := 0; round < 25; round++ {
			vec := []int64{int64(p.Rank() + round)}
			c.AllReduce(vec, coll.Sum)
			want := int64(4*round + 6) // sum of ranks 0..3 plus 4*round
			if vec[0] != want {
				panic(fmt.Sprintf("round %d: %d, want %d", round, vec[0], want))
			}
		}
	})
}

func TestSingleProcess(t *testing.T) {
	forBothTransports(t, 1, func(p pgas.Proc) {
		c := coll.New(p, 4)
		vec := []int64{7}
		c.AllReduce(vec, coll.Sum)
		if vec[0] != 7 {
			panic("single-proc allreduce broke the value")
		}
		if c.ExScan(5) != 0 {
			panic("single-proc exscan nonzero")
		}
	})
}
