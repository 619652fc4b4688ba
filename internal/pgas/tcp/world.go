package tcp

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strings"
	"time"

	"scioto/internal/pgas"
	"scioto/internal/pgas/launch"
)

// Config parameterizes a multi-process tcp world.
type Config struct {
	// NProcs is the number of rank processes to launch.
	NProcs int
	// Seed seeds the per-rank deterministic random sources.
	Seed int64
	// SpeedFactor, when non-nil, returns the relative cost multiplier for
	// computation on the given rank. The function is not shipped over the
	// wire: every child re-constructs the same Config by re-executing the
	// program, so it must be deterministic.
	SpeedFactor func(rank int) float64

	// OpTimeout bounds every remote operation whose reply is immediate
	// (everything except Lock and Barrier, whose replies are legitimately
	// deferred). An expired deadline converts a stalled peer into a
	// rank-attributed FaultError. Zero selects SCIOTO_TCP_OP_TIMEOUT or
	// the 60s default; negative disables deadlines.
	OpTimeout time.Duration
	// Grace is how long the launcher lets surviving ranks self-report
	// rank-attributed faults after the first rank failure before killing
	// whatever is left. Zero selects SCIOTO_TCP_GRACE or the 3s default.
	Grace time.Duration
	// Heartbeat, when positive, probes every peer on a dedicated
	// connection at this interval, converting a stalled (not just dead)
	// peer into a fault after ~3 missed intervals. Zero selects
	// SCIOTO_TCP_HEARTBEAT, whose absence leaves heartbeating off:
	// crashed peers are already detected promptly by connection EOF, so
	// the probes matter only for live-but-wedged processes.
	Heartbeat time.Duration
}

// Environment of the tcp world: the rendezvous address (the transport's
// own variable in the launch handshake, see package launch) and the
// failure-model knobs, read where the matching Config field is zero.
const (
	envAddr      = "SCIOTO_TCP_ADDR"
	envOpTimeout = "SCIOTO_TCP_OP_TIMEOUT"
	envHeartbeat = "SCIOTO_TCP_HEARTBEAT"
)

// bootTimeout bounds the rendezvous and mesh dials, so a lost child fails
// the world instead of hanging it.
const bootTimeout = 60 * time.Second

// NewWorld creates a tcp world on the shared self-exec launcher (package
// launch): in the launching process Run spawns one OS process per rank and
// brokers their rendezvous; in a spawned rank process the matching
// NewWorld call returns that rank's handle and the others return inert
// worlds whose Run is a no-op.
func NewWorld(cfg Config) pgas.World {
	cfg.OpTimeout = launch.Duration("tcp", cfg.OpTimeout, envOpTimeout, 60*time.Second)
	cfg.Heartbeat = launch.Duration("tcp", cfg.Heartbeat, envHeartbeat, 0)
	b := &broker{cfg: cfg}
	return launch.NewWorld(&launch.Spec{
		Transport: "tcp",
		NProcs:    cfg.NProcs,
		Grace:     cfg.Grace,
		ExtraEnv:  envAddr,
		Open:      b.open,
		Close:     b.close,
		Boot:      b.rendezvous,
		AbortBoot: func() { b.l.Close() },
		Fetch:     b.fetch,
		Blamed:    silentBlame,
		Join:      b.join,
	})
}

// broker carries tcp's steps of the launch: in the launching process the
// rendezvous listener and one connection per rank, which stays open after
// the address table went out so a failing child can send its exit report
// on it; in a rank process, join.
type broker struct {
	cfg   Config
	l     net.Listener
	conns []net.Conn
}

func (b *broker) open() (addr string, err error) {
	b.l, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("tcp: rendezvous listen: %v", err)
	}
	b.l.(*net.TCPListener).SetDeadline(time.Now().Add(bootTimeout))
	b.conns = make([]net.Conn, b.cfg.NProcs)
	return b.l.Addr().String(), nil
}

func (b *broker) close() {
	b.l.Close()
	for _, c := range b.conns {
		if c != nil {
			c.Close()
		}
	}
}

// rendezvous accepts one hello per rank, then broadcasts the peer address
// table (one address per line, in rank order) on every connection.
func (b *broker) rendezvous() error {
	n := len(b.conns)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		c, err := b.l.Accept()
		if err != nil {
			return fmt.Errorf("tcp: rendezvous accept: %v", err)
		}
		hello, err := readFrame(c)
		if err != nil || len(hello) < 4 {
			c.Close()
			return fmt.Errorf("tcp: rendezvous hello: %v", err)
		}
		rank := int(pgas.GetI32(hello))
		if rank < 0 || rank >= n || b.conns[rank] != nil {
			c.Close()
			return fmt.Errorf("tcp: rendezvous hello from unexpected rank %d", rank)
		}
		b.conns[rank] = c
		addrs[rank] = string(hello[4:])
	}
	table := []byte(strings.Join(addrs, "\n"))
	for _, c := range b.conns {
		if err := writeFrame(c, table); err != nil {
			return fmt.Errorf("tcp: broadcasting address table: %v", err)
		}
	}
	return nil
}

// fetch drains the report frame ([kind][payload]) a failing child sends
// on its rendezvous connection just before exiting, if one is there.
func (b *broker) fetch(rank int) (kind byte, payload []byte) {
	if c := b.conns[rank]; c != nil {
		c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		if frame, err := readFrame(c); err == nil && len(frame) > 0 {
			return frame[0], frame[1:]
		}
	}
	return launch.ReportNone, nil
}

// silentBlame is tcp's tier of root-cause selection: a peer-death report
// naming a rank that never managed to report. A rank every survivor
// blames but which stayed silent is dead or wedged.
func silentBlame(reports []launch.Report) (reporter int, fe *pgas.FaultError) {
	for _, r := range reports {
		if r.Fault != nil && !slices.ContainsFunc(reports, func(o launch.Report) bool { return o.Rank == r.Fault.Rank }) {
			return r.Rank, r.Fault
		}
	}
	return 0, nil
}

// join is the rank-side boot step: open the peer listener, check in at
// the rendezvous, dial the full mesh, and build the rank's Proc.
func (b *broker) join(rank int, parentAddr string) (*launch.Rank, error) {
	cfg := b.cfg
	own := newOwner(rank, cfg.NProcs)
	dialRng := rand.New(rand.NewSource(cfg.Seed*6151 + int64(rank) + 3))

	// The peer listener must exist before the hello is sent: the moment
	// any peer learns our address from the table, it may dial and issue
	// operations, even while we are still dialing others.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("peer listen: %v", err)
	}
	go own.acceptLoop(l)

	parent, err := dialRetry(parentAddr, bootTimeout, dialRng, own)
	if err != nil {
		return nil, fmt.Errorf("dialing rendezvous %s: %v", parentAddr, err)
	}
	r := &launch.Rank{Fail: func(_ *pgas.FaultError, kind byte, payload []byte) {
		writeFrame(parent, append([]byte{kind}, payload...))
	}}
	hello := appendI32(nil, int32(rank))
	hello = append(hello, l.Addr().String()...)
	if err := writeFrame(parent, hello); err != nil {
		return r, fmt.Errorf("sending hello: %v", err)
	}
	table, err := readFrame(parent)
	if err != nil {
		return r, fmt.Errorf("reading address table: %v", err)
	}
	addrs := strings.Split(string(table), "\n")
	if len(addrs) != cfg.NProcs {
		return r, fmt.Errorf("malformed address table (%d entries for %d ranks)", len(addrs), cfg.NProcs)
	}

	peers := make([]*peerConn, cfg.NProcs)
	for j, addr := range addrs {
		if j == rank {
			continue
		}
		c, err := dialRetry(addr, bootTimeout, dialRng, own)
		if err != nil {
			return r, fmt.Errorf("dialing rank %d at %s: %v", j, addr, err)
		}
		pc, err := newPeerConn(rank, j, c, own, cfg.OpTimeout)
		if err != nil {
			return r, fmt.Errorf("hello to rank %d: %v", j, err)
		}
		peers[j] = pc
	}
	// Severing the outgoing connections when a fault registers unblocks
	// any RPC parked on a reply that is never coming.
	own.addCloser(func() {
		for _, pc := range peers {
			if pc != nil {
				pc.c.Close()
			}
		}
	})
	if cfg.Heartbeat > 0 {
		startHeartbeat(own, rank, addrs, cfg)
	}

	p := &proc{cfg: cfg, rank: rank, own: own, peers: peers}
	p.clk = pgas.NewClock(time.Now(), nil, cfg.Seed, rank, cfg.SpeedFactor)
	p.Bind(p)
	r.Proc = p
	// Completion barrier: no rank may tear down its service while a
	// sibling still has operations in flight. Non-zero ranks arm the
	// teardown flag first — once they are released, siblings start
	// exiting and the resulting EOFs must not register as deaths.
	// Rank 0 stays armed through the barrier: it hosts the counter,
	// and a rank dying mid-completion-barrier must still break the
	// barrier for the survivors; its own EOFs can only arrive after
	// the round has completed.
	r.Finish = func() {
		if rank != 0 {
			own.enterTeardown()
		}
		p.Barrier()
		own.enterTeardown()
	}
	return r, nil
}
