// Package apptest is test support shared by the packages that run the
// Global Arrays applications: a Proc wrapper that logs data-plane traffic,
// so a test can gate on operation counts instead of on time, and the
// SCF-against-serial and TCE-against-dense checks every transport's test
// package runs on its own worlds.
package apptest

import (
	"sync/atomic"

	"scioto/internal/pgas"
)

// Op is one logged call. Target, Seg, Off and Len are set for the data
// operations only.
type Op struct {
	Name   string // "Get", "NbGet", "Put", "NbPut", "Flush" or "Barrier"
	Target int
	Seg    pgas.Seg
	Off    int
	Len    int
}

// OpLog is a Proc that records, in issue order, the bulk data operations,
// Flushes and Barriers its body issues, and the data segments it allocates,
// and counts every communication call. It is a Kernel wrapper like
// pgas/faulty: the typed one-sided methods reach Issue through its Front and
// everything is forwarded unchanged, so a run through an OpLog behaves (and
// on dsim is timed) exactly like a run without one. The log belongs to the
// rank's goroutine; the counters and InRecv are atomic, for a test that
// watches a long-running body (the serve daemon) from outside.
type OpLog struct {
	pgas.Front
	pgas.Kernel
	DataSegs []pgas.Seg // in allocation order
	Ops      []Op

	Calls    atomic.Int64 // every Issue (a lock call is CAS64 issues), Flush, Barrier (and the Sends and Recvs it is), Send, Recv and TryRecv
	Barriers atomic.Int64
	Sends    atomic.Int64 // a barrier's included
	InRecv   atomic.Bool  // the rank is inside a Recv
}

// NewOpLog wraps p.
func NewOpLog(p pgas.Proc) *OpLog {
	l := &OpLog{Kernel: p}
	l.Bind(l)
	return l
}

// Unwrap exposes the wrapped layer to pgas.Find.
func (l *OpLog) Unwrap() pgas.Kernel { return l.Kernel }

func (l *OpLog) AllocData(nbytes int) pgas.Seg {
	seg := l.Kernel.AllocData(nbytes)
	l.DataSegs = append(l.DataSegs, seg)
	return seg
}

func (l *OpLog) Issue(op *pgas.Op) pgas.Nb {
	l.Calls.Add(1)
	if op.Kind == pgas.OpGet || op.Kind == pgas.OpPut {
		l.Ops = append(l.Ops, Op{op.Name(), op.Target, op.Seg, op.Off, len(op.Buf)})
	}
	return l.Kernel.Issue(op)
}

func (l *OpLog) Flush() {
	l.Calls.Add(1)
	l.Ops = append(l.Ops, Op{Name: "Flush"})
	l.Kernel.Flush()
}

func (l *OpLog) Barrier() {
	l.Calls.Add(1)
	l.Barriers.Add(1)
	l.Ops = append(l.Ops, Op{Name: "Barrier"})
	l.Front.Barrier()
}

func (l *OpLog) Send(to int, tag int32, data []byte) {
	l.Calls.Add(1)
	l.Sends.Add(1)
	l.Kernel.Send(to, tag, data)
}

func (l *OpLog) Recv(from int, tag int32) ([]byte, int) {
	l.Calls.Add(1)
	l.InRecv.Store(true)
	defer l.InRecv.Store(false)
	return l.Kernel.Recv(from, tag)
}

func (l *OpLog) TryRecv(from int, tag int32) ([]byte, int, bool) {
	l.Calls.Add(1)
	return l.Kernel.TryRecv(from, tag)
}

// Count returns how many logged calls have one of the given names.
func (l *OpLog) Count(names ...string) int {
	n := 0
	for _, op := range l.Ops {
		for _, name := range names {
			if op.Name == name {
				n++
			}
		}
	}
	return n
}

// BlockFetches tallies, from the Get and NbGet operations among ops, how
// often each block of the ga.Array in segment seg was fetched, indexed by
// the block's row-major sequence number: it inverts ga's layout, block seq
// on rank seq mod nprocs at offset (seq / nprocs) * blockBytes.
func BlockFetches(ops []Op, seg pgas.Seg, blockBytes, nprocs, nblocks int) []int {
	n := make([]int, nblocks)
	for _, op := range ops {
		if (op.Name != "Get" && op.Name != "NbGet") || op.Seg != seg {
			continue
		}
		for k := op.Off / blockBytes; k*blockBytes < op.Off+op.Len; k++ {
			n[k*nprocs+op.Target]++
		}
	}
	return n
}
