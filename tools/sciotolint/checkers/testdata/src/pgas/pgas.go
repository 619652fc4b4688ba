// Package pgas is the fixture stub of scioto/internal/pgas. The analyzers
// match PGAS methods by package name and method name, so this stub only
// needs the signatures the checkers look at — behavior is irrelevant.
package pgas

type Seg int
type LockID int
type Nb uint64

const NbDone Nb = 0

type World interface {
	NProcs() int
	Run(body func(p Proc)) error
}

type Proc interface {
	Rank() int
	NProcs() int
	Barrier()

	AllocData(nbytes int) Seg
	AllocWords(nwords int) Seg
	AllocLock() LockID

	Get(dst []byte, proc int, seg Seg, off int)
	Put(proc int, seg Seg, off int, src []byte)
	Local(seg Seg) []byte

	Load64(proc int, seg Seg, idx int) int64
	Store64(proc int, seg Seg, idx int, val int64)
	FetchAdd64(proc int, seg Seg, idx int, delta int64) int64
	CAS64(proc int, seg Seg, idx int, old, new int64) bool
	RelaxedLoad64(seg Seg, idx int) int64
	RelaxedStore64(seg Seg, idx int, val int64)

	NbGet(dst []byte, proc int, seg Seg, off int) Nb
	NbPut(proc int, seg Seg, off int, src []byte) Nb
	NbLoad64(proc int, seg Seg, idx int, out *int64) Nb
	NbStore64(proc int, seg Seg, idx int, val int64) Nb
	NbFetchAdd64(proc int, seg Seg, idx int, delta int64, old *int64) Nb
	NbCAS64(proc int, seg Seg, idx int, old, new int64, swapped *int64) Nb
	Wait(h Nb)
	Flush()

	Lock(proc int, id LockID)
	TryLock(proc int, id LockID) bool
	Unlock(proc int, id LockID)
}
