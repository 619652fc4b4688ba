// Package apptest is test support shared by the packages that run the
// Global Arrays applications: a Proc wrapper that logs data-plane traffic,
// so a test can gate on operation counts instead of on time, and the
// SCF-against-serial and TCE-against-dense checks every transport's test
// package runs on its own worlds.
package apptest

import (
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
// Flushes and Barriers its body issues, and the data segments it allocates.
// Everything is forwarded unchanged, so a run through an OpLog behaves (and
// on dsim is timed) exactly like a run without one.
type OpLog struct {
	pgas.Proc
	DataSegs []pgas.Seg // in allocation order
	Ops      []Op
}

func (l *OpLog) AllocData(nbytes int) pgas.Seg {
	seg := l.Proc.AllocData(nbytes)
	l.DataSegs = append(l.DataSegs, seg)
	return seg
}

func (l *OpLog) Get(dst []byte, proc int, seg pgas.Seg, off int) {
	l.Ops = append(l.Ops, Op{"Get", proc, seg, off, len(dst)})
	l.Proc.Get(dst, proc, seg, off)
}

func (l *OpLog) NbGet(dst []byte, proc int, seg pgas.Seg, off int) pgas.Nb {
	l.Ops = append(l.Ops, Op{"NbGet", proc, seg, off, len(dst)})
	return l.Proc.NbGet(dst, proc, seg, off)
}

func (l *OpLog) Put(proc int, seg pgas.Seg, off int, src []byte) {
	l.Ops = append(l.Ops, Op{"Put", proc, seg, off, len(src)})
	l.Proc.Put(proc, seg, off, src)
}

func (l *OpLog) NbPut(proc int, seg pgas.Seg, off int, src []byte) pgas.Nb {
	l.Ops = append(l.Ops, Op{"NbPut", proc, seg, off, len(src)})
	return l.Proc.NbPut(proc, seg, off, src)
}

func (l *OpLog) Flush() {
	l.Ops = append(l.Ops, Op{Name: "Flush"})
	l.Proc.Flush()
}

func (l *OpLog) Barrier() {
	l.Ops = append(l.Ops, Op{Name: "Barrier"})
	l.Proc.Barrier()
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
