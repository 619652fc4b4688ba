package ipc

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"sync/atomic"
	"syscall"
	"unsafe"

	"scioto/internal/pgas"
	"scioto/internal/pgas/launch"
)

// File geometry. Everything the processes share lives at offsets computed
// here; parent and children compute the identical layout from the header.
const (
	ipcMagic = int64(0x5343494f49504331) // "SCIO" "IPC1"

	headerWords = 8 // magic, nprocs, arenaBytes, ringBytes, spare...

	// reportBuf is the per-rank exit-report payload capacity. Reports
	// beyond it (a panic with a huge stack) are truncated, like a
	// truncated log line — the head is the useful part.
	reportBuf = 4096

	// faultRecBytes holds the current fault record (rank, phase, detail,
	// error text), written under the control lock.
	faultRecBytes = 1024

	wordSize  = 8
	pageAlign = 4096
)

// ctlLockParent tags the control spinlock as held by the launcher (ranks
// tag it with rank+1). The parent may break a dead rank's hold.
func ctlLockParent(nprocs int) int64 { return int64(nprocs) + 1 }

// layout is the byte-offset map of the shared file.
type layout struct {
	nprocs     int
	arenaBytes int64
	ringBytes  int64

	// Control words (one word each).
	ctlLock  int64 // spinlock over death registration and the fault record
	faultSeq int64 // registered deaths; survivors compare with ackedSeq

	deadFlags int64 // nprocs words: 1 = registered dead
	faultRec  int64 // faultRecBytes: the current fault record
	reports   int64 // nprocs slots of (state word, len word, reportBuf)
	accLocks  int64 // nprocs words: per-target accumulate locks
	ringHdr   int64 // nprocs*nprocs pairs of (head word, tail word)
	rings     int64 // nprocs*nprocs byte rings of ringBytes each
	arenas    int64 // page-aligned; nprocs arenas of arenaBytes each
	total     int64
}

func align8(n int64) int64    { return (n + 7) &^ 7 }
func alignPage(n int64) int64 { return (n + pageAlign - 1) &^ (pageAlign - 1) }

const reportSlotBytes = 2*wordSize + reportBuf

func computeLayout(nprocs int, arenaBytes, ringBytes int64) layout {
	l := layout{nprocs: nprocs, arenaBytes: alignPage(arenaBytes), ringBytes: align8(ringBytes)}
	off := int64(headerWords * wordSize)
	word := func(dst *int64) {
		*dst = off
		off += wordSize
	}
	region := func(dst *int64, size int64) {
		*dst = align8(off)
		off = *dst + size
	}
	word(&l.ctlLock)
	word(&l.faultSeq)
	region(&l.deadFlags, int64(nprocs)*wordSize)
	region(&l.faultRec, faultRecBytes)
	region(&l.reports, int64(nprocs)*reportSlotBytes)
	region(&l.accLocks, int64(nprocs)*wordSize)
	region(&l.ringHdr, int64(nprocs)*int64(nprocs)*2*wordSize)
	region(&l.rings, int64(nprocs)*int64(nprocs)*l.ringBytes)
	l.arenas = alignPage(off)
	l.total = l.arenas + int64(nprocs)*l.arenaBytes
	return l
}

// Per-structure offset helpers.

func (l *layout) deadFlag(rank int) int64 { return l.deadFlags + int64(rank)*wordSize }
func (l *layout) report(rank int) int64   { return l.reports + int64(rank)*reportSlotBytes }
func (l *layout) accLock(rank int) int64  { return l.accLocks + int64(rank)*wordSize }
func (l *layout) ringHead(recv, send int) int64 {
	return l.ringHdr + (int64(recv)*int64(l.nprocs)+int64(send))*2*wordSize
}
func (l *layout) ringTail(recv, send int) int64 { return l.ringHead(recv, send) + wordSize }
func (l *layout) ring(recv, send int) int64 {
	return l.rings + (int64(recv)*int64(l.nprocs)+int64(send))*l.ringBytes
}
func (l *layout) arena(rank int) int64 { return l.arenas + int64(rank)*l.arenaBytes }

// mapping is one process's view of the shared file.
type mapping struct {
	b []byte
	l layout
}

// mapFile maps the file MAP_SHARED. The file must already have the layout's
// size (the parent ftruncates before spawning).
func mapFile(f *os.File, l layout) (*mapping, error) {
	if l.total > math.MaxInt {
		// On 32-bit platforms a realistic geometry (default 64 MiB arena
		// times enough ranks) overflows int; a truncated mmap length would
		// map less than the computed layout and panic on a later access.
		return nil, fmt.Errorf("ipc: world layout needs %d bytes, which does not fit this platform's %d-bit address space — reduce NProcs or ArenaBytes", l.total, strconv.IntSize)
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(l.total), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("ipc: mmap %d bytes: %v", l.total, err)
	}
	return &mapping{b: b, l: l}, nil
}

func (m *mapping) unmap() {
	if m.b != nil {
		syscall.Munmap(m.b)
		m.b = nil
	}
}

// word returns the in-map address of the 8-aligned word at byte offset
// off. All word offsets produced by layout are 8-aligned, which the
// sync/atomic package requires on every architecture.
func (m *mapping) word(off int64) *int64 { return (*int64)(unsafe.Pointer(&m.b[off])) }

func (m *mapping) load(off int64) int64         { return atomic.LoadInt64(m.word(off)) }
func (m *mapping) store(off int64, v int64)     { atomic.StoreInt64(m.word(off), v) }
func (m *mapping) add(off int64, d int64) int64 { return atomic.AddInt64(m.word(off), d) }
func (m *mapping) cas(off int64, old, new int64) bool {
	return atomic.CompareAndSwapInt64(m.word(off), old, new)
}

// bytes returns the [off, off+n) window of the map.
func (m *mapping) bytes(off, n int64) []byte { return m.b[off : off+n : off+n] }

// writeHeader stamps the geometry; children verify it against the layout
// they recomputed from their own (deterministically identical) Config.
func (m *mapping) writeHeader() {
	h := (*[headerWords]int64)(unsafe.Pointer(&m.b[0]))
	h[0] = ipcMagic
	h[1] = int64(m.l.nprocs)
	h[2] = m.l.arenaBytes
	h[3] = m.l.ringBytes
}

func (m *mapping) checkHeader() error {
	h := (*[headerWords]int64)(unsafe.Pointer(&m.b[0]))
	if h[0] != ipcMagic {
		return fmt.Errorf("ipc: mapped file is not an ipc world (bad magic %#x)", h[0])
	}
	if h[1] != int64(m.l.nprocs) || h[2] != m.l.arenaBytes || h[3] != m.l.ringBytes {
		return fmt.Errorf("ipc: mapped geometry (nprocs=%d arena=%d ring=%d) does not match this process's config (nprocs=%d arena=%d ring=%d) — "+
			"the program's world creation sequence is not deterministic", h[1], h[2], h[3], m.l.nprocs, m.l.arenaBytes, m.l.ringBytes)
	}
	return nil
}

// lockCtl acquires the control spinlock, tagging it with who holds it
// (rank+1, or ctlLockParent for the launcher) so the launcher can break a
// hold left by a rank that was SIGKILLed inside a critical section.
func (m *mapping) lockCtl(tag int64) {
	var bo pgas.Backoff
	for !m.cas(m.l.ctlLock, 0, tag) {
		bo.Pause()
	}
}

func (m *mapping) unlockCtl(tag int64) {
	if !m.cas(m.l.ctlLock, tag, 0) {
		panic("ipc: control lock released by a non-holder")
	}
}

// breakCtlOf lets the parent seize the control lock even if the (known
// dead) rank holds it: the holder cannot ever release it again.
func (m *mapping) breakCtlOf(dead int, parentTag int64) {
	var bo pgas.Backoff
	for {
		if m.cas(m.l.ctlLock, 0, parentTag) {
			return
		}
		if m.cas(m.l.ctlLock, int64(dead)+1, parentTag) {
			return
		}
		bo.Pause()
	}
}

// The fault record, written and read under the control lock: the
// pgas.AppendFault form copied into the record area, truncated to fit
// (pgas.DecodeFault keeps the intact head of a truncated record).

func (m *mapping) writeFaultRec(fe *pgas.FaultError) {
	rec := m.bytes(m.l.faultRec, faultRecBytes)
	enc := pgas.AppendFault(nil, fe)
	if len(enc) > len(rec) {
		enc = enc[:len(rec)]
	}
	copy(rec, enc)
}

func (m *mapping) readFaultRec() *pgas.FaultError {
	rec := make([]byte, faultRecBytes)
	copy(rec, m.bytes(m.l.faultRec, faultRecBytes))
	return pgas.DecodeFault(rec)
}

// currentFault reads the registered fault (nil when none), cloning it so
// the caller may panic a private copy.
func (m *mapping) currentFault(tag int64) *pgas.FaultError {
	if m.load(m.l.faultSeq) == 0 {
		return nil
	}
	m.lockCtl(tag)
	fe := m.readFaultRec()
	m.unlockCtl(tag)
	return fe
}

// registerDeath records fe as a rank death if fe.Rank is not already
// registered: dead flag, fault record, faultSeq bump (the publication
// survivors poll), then force-release of every accumulate lock the dead
// rank held. Reports whether the death was fresh. Safe from ranks and from
// the parent (distinct tags).
func (m *mapping) registerDeath(tag int64, fe *pgas.FaultError) bool {
	m.lockCtl(tag)
	fresh := fe.Rank >= 0 && fe.Rank < m.l.nprocs && m.load(m.l.deadFlag(fe.Rank)) == 0
	if fresh {
		m.store(m.l.deadFlag(fe.Rank), 1)
		m.writeFaultRec(fe)
		m.add(m.l.faultSeq, 1)
	}
	m.unlockCtl(tag)
	if fresh {
		// It may have died mid-accumulate: without this survivors would
		// spin on the holder word forever.
		for host := 0; host < m.l.nprocs; host++ {
			m.cas(m.l.accLock(host), int64(fe.Rank)+1, 0)
		}
	}
	return fresh
}

// Exit-report slots. A failing child writes its slot just before exiting;
// the parent reads it after reaping the child, so the write is complete
// and visible by then.

func (m *mapping) writeReport(rank int, kind byte, payload []byte) {
	slot := m.l.report(rank)
	if len(payload) > reportBuf {
		payload = payload[:reportBuf]
	}
	copy(m.bytes(slot+2*wordSize, reportBuf), payload)
	m.store(slot+wordSize, int64(len(payload)))
	m.store(slot, int64(kind))
}

func (m *mapping) readReport(rank int) (kind byte, payload []byte) {
	slot := m.l.report(rank)
	kind = byte(m.load(slot))
	n := m.load(slot + wordSize)
	if kind == launch.ReportNone || n < 0 || n > reportBuf {
		return launch.ReportNone, nil
	}
	payload = make([]byte, n)
	copy(payload, m.bytes(slot+2*wordSize, n))
	return kind, payload
}
