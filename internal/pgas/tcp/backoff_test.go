package tcp

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"testing"
	"time"

	"scioto/internal/pgas"
)

// skipInRankProcess skips real-time-sleeping tests inside spawned rank
// processes: children re-execute every test preceding their target world,
// and these tests create no worlds, so skipping them cannot desynchronize
// the world sequence.
func skipInRankProcess(t *testing.T) {
	if os.Getenv("SCIOTO_TCP_RANK") != "" {
		t.Skip("rank process: no need to re-test dial backoff per rank")
	}
}

func TestBackoffDelayBounds(t *testing.T) {
	const base = 2 * time.Millisecond
	const max = 100 * time.Millisecond
	cases := []struct {
		name    string
		attempt int
		exp     time.Duration // pre-jitter exponential term
	}{
		{"first", 0, base},
		{"second", 1, 2 * base},
		{"third", 2, 4 * base},
		{"fifth", 4, 16 * base},
		{"capped", 6, max},        // 2ms·2^6 = 128ms > cap
		{"far past cap", 40, max}, // must not overflow
	}
	rng := rand.New(rand.NewSource(5))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 200; i++ {
				d := backoffDelay(tc.attempt, base, max, rng)
				if d < tc.exp/2 || d >= tc.exp/2+tc.exp {
					t.Fatalf("attempt %d: delay %v outside jitter window [%v, %v)",
						tc.attempt, d, tc.exp/2, tc.exp/2+tc.exp)
				}
			}
		})
	}
}

func TestBackoffDelayDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Zero/negative base must not panic Int63n; max below base is raised.
	if d := backoffDelay(3, 0, 0, rng); d <= 0 {
		t.Errorf("zero base produced non-positive delay %v", d)
	}
	if d := backoffDelay(0, 10*time.Millisecond, time.Millisecond, rng); d < 5*time.Millisecond {
		t.Errorf("max below base not raised: %v", d)
	}
}

func TestBackoffDelayJitterVaries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[time.Duration]bool{}
	for i := 0; i < 50; i++ {
		seen[backoffDelay(3, time.Millisecond, time.Second, rng)] = true
	}
	if len(seen) < 10 {
		t.Errorf("jitter produced only %d distinct delays in 50 draws", len(seen))
	}
}

// TestDialRetryLateListener is the rendezvous race in miniature: the
// dialer starts before anyone listens and must keep retrying with backoff
// until the listener appears.
func TestDialRetryLateListener(t *testing.T) {
	skipInRankProcess(t)
	// Reserve an address, then release it so the first dials are refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	listening := make(chan net.Listener, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		l2, err := net.Listen("tcp", addr)
		if err != nil {
			listening <- nil
			return
		}
		listening <- l2
	}()

	c, err := dialRetry(addr, 5*time.Second, rand.New(rand.NewSource(8)), newOwner(0, 2))
	if err != nil {
		t.Fatalf("dialRetry never reached the late listener: %v", err)
	}
	c.Close()
	if l2 := <-listening; l2 != nil {
		l2.Close()
	} else {
		t.Fatal("relisten on reserved address failed; test environment problem")
	}
}

func TestDialRetryBudgetExpires(t *testing.T) {
	skipInRankProcess(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // nobody will ever listen again

	start := time.Now()
	_, err = dialRetry(addr, 300*time.Millisecond, rand.New(rand.NewSource(9)), newOwner(0, 2))
	if err == nil {
		t.Fatal("dialRetry succeeded against a dead address")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("dialRetry overshot its budget: %v", elapsed)
	}
}

// TestDialRetryStopsOnRegisteredFault: a refused mesh dial is retried only
// while the world is whole. A peer that booted first, connected to this
// rank, ran and died has closed its listener for good; once this rank's
// service has registered that death the dial returns it instead of
// retrying out the whole boot budget (which parked a rank of
// TestOpContextInFaults until the launcher's grace timer killed it).
func TestDialRetryStopsOnRegisteredFault(t *testing.T) {
	skipInRankProcess(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // the peer came and went

	own := newOwner(1, 2)
	go func() {
		time.Sleep(20 * time.Millisecond) // a few refused attempts first
		own.markDead(0, errors.New("connection from rank 0 lost: EOF"))
	}()
	start := time.Now()
	_, err = dialRetry(addr, 30*time.Second, rand.New(rand.NewSource(10)), own)
	if fe, ok := pgas.AsFault(err); !ok || fe.Rank != 0 || fe.Phase != "peer-death" {
		t.Fatalf("dialRetry returned %v, want the registered peer-death of rank 0", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("dialRetry kept retrying for %v after the fault registered", elapsed)
	}
}
