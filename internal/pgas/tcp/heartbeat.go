package tcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"time"

	"scioto/internal/pgas"
)

// deathFloor is how long a peer must leave a ping unanswered, over misses
// the pinger watched on time, before it is declared dead.
const deathFloor = 2 * time.Second

// startHeartbeat launches one pinger goroutine per peer. Each pinger owns
// a dedicated connection — on the shared data connection a ping would
// queue behind bulk transfers, muddying its timing — and sends opPing
// every interval, awaiting the reply three intervals at a time. A wait
// the pinger saw out late (it was descheduled past its own deadline)
// proves nothing and starts the count again; the peer is dead once the
// waits it missed span deathFloor.
//
// Heartbeats catch the failure EOF detection cannot: a peer that is alive
// but wedged (deadlocked service, livelocked host). A closed connection is
// not theirs to judge, in either direction: the kernel closes a dead
// process's sockets and the serve loop of its data connection notices,
// while a peer that departed cleanly announced it there first (opBye). The
// hello of a heartbeat connection carries one extra byte, which tells the
// serving side not to judge its EOF either. Heartbeating is off by
// default; the connections die with the process.
func startHeartbeat(own *owner, self int, addrs []string, cfg Config) {
	for j, addr := range addrs {
		if j == self {
			continue
		}
		rng := rand.New(rand.NewSource(cfg.Seed*9173 + int64(self)*1009 + int64(j)))
		go pingLoop(own, self, j, addr, cfg.Heartbeat, rng)
	}
}

func pingLoop(own *owner, self, peer int, addr string, interval time.Duration, rng *rand.Rand) {
	c, err := dialRetry(addr, bootTimeout, rng, own)
	if err != nil {
		own.markDead(peer, fmt.Errorf("heartbeat dial to rank %d: %v", peer, err))
		return
	}
	r, w := bufio.NewReader(c), bufio.NewWriter(c)
	hello := append(append([]byte{opHello}, appendI32(nil, int32(self))...), 1)
	if err := writeFrameSeq(w, 0, hello, nil); err != nil || w.Flush() != nil {
		own.markDead(peer, fmt.Errorf("heartbeat hello to rank %d: %v", peer, err))
		return
	}
	for seq := uint32(1); !own.teardown.Load() && own.getFault() == nil; seq++ {
		c.SetDeadline(time.Now().Add(3 * interval))
		if writeFrameSeq(w, seq, []byte{opPing}, nil) != nil || w.Flush() != nil {
			return
		}
		var missed time.Time // when the run of watched misses began
		for {
			deadline := time.Now().Add(3 * interval)
			c.SetDeadline(deadline)
			// Peek waits without consuming: a wait cut short keeps what arrived.
			if _, err = r.Peek(1); err == nil {
				break
			}
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				return
			}
			switch now := time.Now(); {
			case now.Sub(deadline) > interval:
				missed = time.Time{}
			case missed.IsZero():
				missed = deadline.Add(-3 * interval)
			case now.Sub(missed) >= deathFloor:
				own.markDead(peer, fmt.Errorf("heartbeat to rank %d: no reply for %v: %v", peer, now.Sub(missed).Round(time.Millisecond), err))
				return
			}
		}
		reply, err := readFrame(r)
		if err != nil || len(reply) < 5 || binary.LittleEndian.Uint32(reply) != seq || reply[4] != replyOK {
			if err == nil && len(reply) >= 5 && reply[4] == replyFaulted {
				// The peer is alive but its world is faulted: adopt its
				// attribution rather than blaming the messenger.
				fe := pgas.DecodeFault(reply[5:])
				fe.Op = fmt.Sprintf("Ping(rank=%d)", peer)
				own.adopt(fe)
			}
			return
		}
		time.Sleep(interval)
	}
}
