package dsim_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
)

// The engine-order golden: seeded random programs whose schedule — which
// rank performs which globally visible operation at which virtual time, in
// what order — is hashed and compared with hashes recorded on the engine
// before the current one. Any change to how the engine picks the next proc
// (the pick is the minimum (clock, rank), ties to the lower rank) moves a
// hash; a change that keeps every hash keeps every virtual-time artifact.

// engineConfig charges every kind of cost and turns on NIC occupancy, so
// remote operations queue and re-yield; every rank runs at the same speed,
// so equal Compute steps leave clocks tied and the rank tie-break decides.
func engineConfig(n int) dsim.Config {
	return dsim.Config{
		NProcs:       n,
		Seed:         5,
		Latency:      2 * time.Microsecond,
		MsgLatency:   3 * time.Microsecond,
		PerByte:      time.Nanosecond,
		LocalOpCost:  100 * time.Nanosecond,
		PollInterval: 500 * time.Nanosecond,
		Occupancy:    300 * time.Nanosecond,
	}
}

// schedLog records (rank, Now()) after every globally visible operation.
// Only the proc holding the engine's token runs, so appends are ordered by
// the schedule and the log is the schedule.
type schedLog struct{ entries []int64 }

func (l *schedLog) note(p pgas.Proc) { l.entries = append(l.entries, int64(p.Rank()), int64(p.Now())) }

func (l *schedLog) sum() string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range l.entries {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%d:%016x", len(l.entries)/2, h.Sum64())
}

// engineProgram is the random SPMD body. The kind of each round comes from
// a stream every rank draws identically, so all ranks agree on which rounds
// communicate; targets, sizes and counts come from each rank's own Rand().
func engineProgram(log *schedLog, rounds int) func(p pgas.Proc) {
	return func(p pgas.Proc) {
		n, me := p.NProcs(), p.Rank()
		rng := p.Rand()
		words := p.AllocWords(4)
		data := p.AllocData(256)
		log.note(p)
		kinds := rand.New(rand.NewSource(99))
		for round := 0; round < rounds; round++ {
			kind := kinds.Intn(6)
			dist := 1 + kinds.Intn(max(n-1, 1))
			tag := int32(100 + 2*round)
			if n == 1 && (kind == 2 || kind == 3) {
				kind = 0
			}
			switch kind {
			case 0: // blocking one-sided ops, local and remote
				for k := 1 + rng.Intn(4); k > 0; k-- {
					to := rng.Intn(n)
					switch rng.Intn(5) {
					case 0:
						p.Load64(to, words, rng.Intn(4))
					case 1:
						p.Store64(to, words, rng.Intn(4), int64(me))
					case 2:
						p.FetchAdd64(to, words, rng.Intn(4), int64(me+1))
					case 3:
						p.CAS64(to, words, 0, 0, int64(me))
					case 4:
						buf := make([]byte, 16+rng.Intn(48))
						if rng.Intn(2) == 0 {
							p.Get(buf, to, data, rng.Intn(64))
						} else {
							buf[0] = byte(me)
							p.Put(to, data, rng.Intn(64), buf)
						}
					}
					log.note(p)
				}
			case 1: // a non-blocking batch, completed by one Flush
				var olds [4]int64
				for k := 1 + rng.Intn(4); k > 0; k-- {
					to := rng.Intn(n)
					switch rng.Intn(3) {
					case 0:
						p.NbFetchAdd64(to, words, 1, 1, &olds[k-1])
					case 1:
						p.NbPut(to, data, 128+8*me%64, []byte{byte(me), byte(k)})
					case 2:
						p.NbGet(make([]byte, 32), to, data, 8*k)
					}
				}
				p.Flush()
				log.note(p)
			case 2: // a ring shift by dist: the message is often still in flight
				p.Send((me+dist)%n, tag, []byte{byte(me)})
				log.note(p)
				p.Recv((me-dist+n)%n, tag)
				log.note(p)
			case 3: // gather on rank 0 by AnySource, then a reply polled for
				if me == 0 {
					for i := 1; i < n; i++ {
						_, from := p.Recv(pgas.AnySource, tag)
						log.note(p)
						p.Send(from, tag+1, nil)
						log.note(p)
					}
					break
				}
				p.Compute(time.Duration(rng.Intn(3)) * time.Microsecond)
				p.Send(0, tag, make([]byte, rng.Intn(32)))
				log.note(p)
				for tries := 0; tries < 2; tries++ {
					if _, _, ok := p.TryRecv(0, tag+1); ok {
						break
					}
					log.note(p)
				}
				p.Recv(0, tag+1)
				log.note(p)
			case 4:
				p.Barrier()
				log.note(p)
			case 5: // equal steps: clocks that were tied stay tied
				p.Compute(2 * time.Microsecond)
				p.Load64(me, words, 3)
				log.note(p)
			}
		}
		p.Barrier()
		if me == 0 {
			for r := 0; r < n; r++ {
				for i := 0; i < 4; i++ {
					log.entries = append(log.entries, p.Load64(r, words, i))
				}
				buf := make([]byte, 256)
				p.Get(buf, r, data, 0)
				for _, b := range buf {
					log.entries = append(log.entries, int64(b))
				}
			}
			log.note(p)
		}
	}
}

// TestEngineOrderGolden pins the schedule of the random program at four
// world sizes, and of three programs that end the world early.
func TestEngineOrderGolden(t *testing.T) {
	runProgram := func(cfg dsim.Config, body func(*schedLog) func(pgas.Proc)) (string, string) {
		log := &schedLog{}
		err := dsim.NewWorld(cfg).Run(body(log))
		msg := "<nil>"
		if err != nil {
			msg = err.Error()
		}
		return log.sum(), msg
	}
	cases := []struct {
		name    string
		cfg     dsim.Config
		body    func(*schedLog) func(pgas.Proc)
		sum     string
		wantErr string
	}{
		{"random/P=1", engineConfig(1), func(l *schedLog) func(pgas.Proc) { return engineProgram(l, 40) },
			"209:9a08857d938790b0", "<nil>"},
		{"random/P=2", engineConfig(2), func(l *schedLog) func(pgas.Proc) { return engineProgram(l, 40) },
			"419:6c5ab39de6a90fe4", "<nil>"},
		{"random/P=5", engineConfig(5), func(l *schedLog) func(pgas.Proc) { return engineProgram(l, 40) },
			"1128:358dee6c8acd3a95", "<nil>"},
		{"random/P=64", engineConfig(64), func(l *schedLog) func(pgas.Proc) { return engineProgram(l, 24) },
			"11939:ce1b5f7e14c4e5dd", "<nil>"},
		{"survivable-death/P=5", withSurvivable(engineConfig(5)), deathProgram,
			"35:5eee5ed6af108daa", "<nil>"},
		{"max-virtual-time/P=3", withMaxVirtualTime(engineConfig(3), 60*time.Microsecond), runawayProgram,
			"166:fbac28f342bcfda2", "dsim: virtual time 60.1µs exceeded MaxVirtualTime 60µs"},
		{"deadlock/P=4", engineConfig(4), deadlockProgram,
			"8:526f365262a5a7b9", "dsim: deadlock — all live processes blocked in Recv: [rank 1 vt=3.1µs from=2 tag=11] [rank 2 vt=3.1µs from=3 tag=12] [rank 3 vt=3.1µs from=0 tag=13]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sum, msg := runProgram(c.cfg, c.body)
			if sum != c.sum || msg != c.wantErr {
				t.Errorf("schedule %s, error %q\nwant     %s, error %q", sum, msg, c.sum, c.wantErr)
			}
		})
	}
}

func withSurvivable(c dsim.Config) dsim.Config { c.Survivable = true; return c }

func withMaxVirtualTime(c dsim.Config, d time.Duration) dsim.Config {
	c.MaxVirtualTime = d
	return c
}

// deathProgram: rank 4 dies while ranks 1-3 are parked in Recv and rank 0
// is polling, so the death wakes parked procs; every survivor acknowledges
// it and finishes over the live membership.
func deathProgram(log *schedLog) func(pgas.Proc) {
	return func(p pgas.Proc) {
		const dead = 4
		res, _ := pgas.Find[pgas.Resilient](p)
		words := p.AllocWords(2)
		p.Barrier()
		log.note(p)
		if p.Rank() == dead {
			for i := 0; i < 6; i++ {
				p.FetchAdd64(i%4, words, 0, 1)
				log.note(p)
			}
			panic(&pgas.FaultError{Rank: dead, Phase: "test", Err: errors.New("rank 4 dies")})
		}
		for acked := false; !acked; {
			func() {
				defer func() {
					if r := recover(); r != nil {
						fe, ok := r.(*pgas.FaultError)
						if !ok || fe.Rank != dead {
							panic(r)
						}
						res.SurviveFault(fe)
						log.note(p)
						acked = true
					}
				}()
				if p.Rank() == 0 {
					p.TryRecv(pgas.AnySource, 7)
					p.Compute(time.Microsecond)
				} else {
					p.Recv(pgas.AnySource, 7) // nobody sends: parked until the death
				}
				log.note(p)
			}()
		}
		p.Barrier()
		log.note(p)
		p.FetchAdd64(0, words, 1, int64(p.Rank()))
		log.note(p)
		p.Barrier()
		log.note(p)
	}
}

// runawayProgram never ends on its own: rank 0 issues ops forever, rank 1
// polls forever and rank 2 is parked in a Recv nobody satisfies, until the
// MaxVirtualTime guard aborts the world.
func runawayProgram(log *schedLog) func(pgas.Proc) {
	return func(p pgas.Proc) {
		words := p.AllocWords(1)
		log.note(p)
		switch p.Rank() {
		case 0:
			for i := 0; ; i++ {
				p.FetchAdd64(i%3, words, 0, 1)
				log.note(p)
			}
		case 1:
			for {
				p.TryRecv(pgas.AnySource, 3)
				log.note(p)
			}
		default:
			p.Recv(0, 3)
		}
	}
}

// deadlockProgram: after a ring exchange, every rank but 0 waits for a
// message that is never sent; rank 0 returns.
func deadlockProgram(log *schedLog) func(pgas.Proc) {
	return func(p pgas.Proc) {
		n, me := p.NProcs(), p.Rank()
		p.Send((me+1)%n, 1, nil)
		log.note(p)
		p.Recv((me-1+n)%n, 1)
		log.note(p)
		if me != 0 {
			p.Recv((me+1)%n, int32(10+me))
		}
	}
}
