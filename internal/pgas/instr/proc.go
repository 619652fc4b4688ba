package instr

import (
	"time"

	"scioto/internal/obs"
	"scioto/internal/pgas"
)

// opKind indexes the pre-created instrument tables. The order is the
// registration order and therefore part of the cross-rank merge schema:
// the blocking one-sided kinds sit at opGet+pgas.OpKind, the non-blocking
// ones at nbIndex[kind]. There is no wait slot: Front.Wait reaches this
// layer as a Flush and is timed as one. Nor are there lock slots: a lock
// operation reaches this layer as the CAS64 it is built on (pgas/lock.go).
type opKind int

const (
	opBarrier opKind = iota
	opGet
	opPut
	opAccF64
	opLoad64
	opStore64
	opFetchAdd64
	opCAS64
	opNbGet
	opNbPut
	opNbLoad64
	opNbStore64
	opNbFetchAdd64
	opNbCAS64
	opFlush
	opSend
	opRecv
	numOps
)

var opNames = [numOps]string{
	"barrier", "get", "put", "accf64", "load64", "store64", "fetchadd64",
	"cas64", "nbget", "nbput", "nbload64", "nbstore64", "nbfetchadd64",
	"nbcas64", "flush", "send", "recv",
}

// scopes for the latency histograms: index 0 = the op addressed this
// rank's own heap, 1 = a remote rank (or, for barrier/flush, the world as
// a whole).
const (
	scopeLocal = iota
	scopeRemote
	numScopes
)

var scopeNames = [numScopes]string{"local", "remote"}

// nbIndex maps a one-sided kind to its non-blocking instrument slot.
var nbIndex = [pgas.NumOpKinds]opKind{
	pgas.OpGet: opNbGet, pgas.OpPut: opNbPut, pgas.OpLoad64: opNbLoad64,
	pgas.OpStore64: opNbStore64, pgas.OpFetchAdd64: opNbFetchAdd64, pgas.OpCAS64: opNbCAS64,
}

const numNbWindows = int(opNbCAS64-opNbGet) + 1

// bytesInOf reports, per one-sided kind, whether the payload counts as
// received (true) or sent; CAS64 moves no counted payload.
var bytesInOf = [pgas.NumOpKinds]bool{pgas.OpGet: true, pgas.OpLoad64: true, pgas.OpFetchAdd64: true}

// pending is one in-flight non-blocking operation awaiting Flush.
type pending struct {
	start time.Duration
	win   opKind // nb window slot
}

// instruments is one rank's instrument set. The instruments are atomic,
// so the live endpoint reads them concurrently without coordination.
type instruments struct {
	lat      [numOps][numScopes]*obs.Histogram
	nbWin    [numNbWindows]*obs.Histogram
	bytesIn  *obs.Counter // payload bytes received (get, recv, fetched words)
	bytesOut *obs.Counter // payload bytes sent (put, acc, send, stored words)
	inflight *obs.Gauge
}

// proc instruments one rank's handle: the embedded Kernel is the layer
// below, and only the operations worth timing are overridden. Like every
// pgas.Proc it is used only from the goroutine that received it, so the
// pending list needs no synchronization.
type proc struct {
	pgas.Front
	pgas.Kernel
	instruments
	pend []pending
}

var _ pgas.Proc = (*proc)(nil)

// newProc pre-creates the full instrument set in deterministic order so
// every rank's registry has the same schema.
func newProc(inner pgas.Kernel, reg *obs.Registry) *proc {
	p := &proc{Kernel: inner, pend: make([]pending, 0, 16)}
	p.Bind(p)
	for op := opKind(0); op < numOps; op++ {
		for s := 0; s < numScopes; s++ {
			p.lat[op][s] = reg.Histogram(
				`scioto_pgas_op_latency_seconds{op="`+opNames[op]+`",scope="`+scopeNames[s]+`"}`,
				"one-sided operation latency by op kind and local/remote scope",
			)
		}
	}
	for w := range p.nbWin {
		p.nbWin[w] = reg.Histogram(
			`scioto_pgas_nb_window_seconds{op="`+opNames[opNbGet+opKind(w)]+`"}`,
			"non-blocking operation issue-to-completion window (Wait/Flush)",
		)
	}
	p.bytesIn = reg.Counter(`scioto_pgas_bytes_total{dir="in"}`,
		"payload bytes moved by one-sided and message operations")
	p.bytesOut = reg.Counter(`scioto_pgas_bytes_total{dir="out"}`,
		"payload bytes moved by one-sided and message operations")
	p.inflight = reg.Gauge("scioto_pgas_nb_inflight",
		"non-blocking operations issued and not yet completed")
	return p
}

// Unwrap exposes the wrapped layer to pgas.Find, which is how the inner
// transport's capabilities stay reachable. Recovery's reads of a dead
// rank are ordinary one-sided ops, timed like any other. The wrapper
// records no occupancy of its own: its view of latency is already
// covered by the histograms.
func (p *proc) Unwrap() pgas.Kernel { return p.Kernel }

// observe records one completed operation's latency against start and
// returns the completion time. Called after the delegated call returns; an
// op that panics (injected or transport fault) records nothing, because it
// never completed. target < 0 selects the whole-world scope.
func (in *instruments) observe(p pgas.Proc, op opKind, target int, start time.Duration) time.Duration {
	sc := scopeRemote
	if target == p.Rank() {
		sc = scopeLocal
	}
	now := p.Now()
	in.lat[op][sc].Observe(now - start)
	return now
}

// Communication operations: delegate, then record.

// Barrier times Front's barrier as a whole; its messages are this layer's
// own Sends and Recvs, so they also land in the send and recv rows.
func (p *proc) Barrier() {
	start := p.Now()
	p.Front.Barrier()
	p.observe(p, opBarrier, -1, start)
}

// Issue records the issue latency of every one-sided operation and, for a
// non-blocking one, opens its issue→completion window. An op the inner
// kernel completed inline (NbDone) has its window recorded immediately —
// the issue call was the whole window; the rest close at Flush.
func (p *proc) Issue(op *pgas.Op) pgas.Nb {
	slot := opGet + opKind(op.Kind)
	if op.Nb {
		slot = nbIndex[op.Kind]
	}
	start := p.Now()
	h := p.Kernel.Issue(op)
	now := p.observe(p, slot, op.Target, start)
	if bytesInOf[op.Kind] {
		p.bytesIn.Add(int64(op.Bytes()))
	} else if op.Kind != pgas.OpCAS64 {
		p.bytesOut.Add(int64(op.Bytes()))
	}
	if !op.Nb {
		return h
	}
	if h == pgas.NbDone {
		p.nbWin[slot-opNbGet].Observe(now - start)
		return h
	}
	p.pend = append(p.pend, pending{start: start, win: slot - opNbGet})
	p.inflight.Add(1)
	return h
}

func (p *proc) Flush() {
	start := p.Now()
	p.Kernel.Flush()
	now := p.observe(p, opFlush, -1, start)
	for _, pd := range p.pend {
		p.nbWin[pd.win].Observe(now - pd.start)
	}
	p.inflight.Add(-int64(len(p.pend)))
	p.pend = p.pend[:0]
}

func (p *proc) Send(to int, tag int32, data []byte) {
	start := p.Now()
	p.Kernel.Send(to, tag, data)
	p.observe(p, opSend, to, start)
	p.bytesOut.Add(int64(len(data)))
}

func (p *proc) Recv(from int, tag int32) ([]byte, int) {
	start := p.Now()
	data, src := p.Kernel.Recv(from, tag)
	p.observe(p, opRecv, -1, start)
	p.bytesIn.Add(int64(len(data)))
	return data, src
}

func (p *proc) TryRecv(from int, tag int32) ([]byte, int, bool) {
	data, src, ok := p.Kernel.TryRecv(from, tag)
	if ok {
		p.bytesIn.Add(int64(len(data)))
	}
	return data, src, ok
}
