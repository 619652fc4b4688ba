package tcp

import (
	"math/rand"
	"net"
	"time"
)

// backoffDelay computes the jittered exponential delay to sleep before
// retry attempt (0-based): base·2^attempt capped at max, then jittered
// uniformly over [d/2, 3d/2) so that a batch of ranks retrying a refused
// rendezvous or mesh dial does not re-collide in lockstep. base must be
// positive; max caps the pre-jitter exponential term.
func backoffDelay(attempt int, base, max time.Duration, rng *rand.Rand) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	if max < base {
		max = base
	}
	d := base
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= max {
			d = max
			break
		}
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)))
}

// Bootstrap dial backoff: starts fast (a refused dial during boot usually
// means the accept backlog overflowed for a few milliseconds) and caps
// low so the overall bound stays governed by the caller's budget.
const (
	dialBackoffBase = 2 * time.Millisecond
	dialBackoffMax  = 250 * time.Millisecond
)

// dialRetry dials addr, retrying failed attempts with jittered
// exponential backoff until one succeeds or the total budget elapses.
// A dial failure during bootstrap is treated as transient — the listener
// may not be accepting yet (child dialed before the broker listens), or
// its backlog may be momentarily full when a whole world dials one rank at
// once — but only while the world is whole. Once own has registered a
// fault the retries stop with it: a peer that finished its own bootstrap
// first may have connected to this rank, run, and died, and nobody will
// ever listen at its address again.
func dialRetry(addr string, total time.Duration, rng *rand.Rand, own *owner) (net.Conn, error) {
	deadline := time.Now().Add(total)
	var lastErr error
	for attempt := 0; ; attempt++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, lastErr
		}
		c, err := net.DialTimeout("tcp", addr, remaining)
		if err == nil {
			return c, nil
		}
		if fe := own.getFault(); fe != nil {
			return nil, fe
		}
		lastErr = err
		pause := backoffDelay(attempt, dialBackoffBase, dialBackoffMax, rng)
		if rest := time.Until(deadline); pause > rest {
			pause = rest
		}
		time.Sleep(pause)
	}
}
