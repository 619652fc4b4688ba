// Package ipc implements the pgas interface with zero-copy shared memory
// between real OS processes on one host: the launcher creates one memory
// file holding every rank's symmetric heap plus a control region, every
// rank process maps it MAP_SHARED, and from then on Get/Put are plain copy()
// against the remote rank's heap pages while Load64/Store64/FetchAdd64/
// CAS64 are hardware atomics on them — no frames, no serialization, and
// no syscalls on the data path. It fills the rung between shm (ranks as
// goroutines in one process) and tcp (ranks as processes exchanging
// frames over loopback): real process isolation at near-shm cost.
//
// # Launch
//
// Rank processes are created, watched and reaped by the shared self-exec
// launcher (package launch, which documents the SCIOTO_IPC_RANK / WORLD /
// NPROCS handshake, the deterministic world-creation order it requires,
// exit reports and root-cause selection). ipc's own part: the launcher
// creates, sizes, maps and stamps the file and hands it to every rank as
// an inherited descriptor (launch.Spec.ExtraFiles), whose number travels
// in SCIOTO_IPC_FILE; a child maps that descriptor and checks the header
// against its own configuration. A rank never opens a path. There is no
// rendezvous: the mapped file exists fully-formed before the first child
// starts, so a rank may issue one-sided operations against a sibling that
// has not even finished exec'ing.
//
// No filesystem names the file: on Linux it is memfd_create's anonymous
// memory, elsewhere a temp file unlinked as soon as it is created. The
// kernel frees it when the last process holding it is gone, so a world
// leaves nothing behind however it ends — a SIGKILLed launcher included —
// and needs no writable directory, nor room in /dev/shm.
//
// # Memory layout
//
// The file is laid out as
//
//	header   | magic, nprocs, arena/ring geometry (sanity-checked on map)
//	control  | world words: ctl spinlock, faultSeq; per-rank dead
//	         | flags; the current fault record; per-rank exit-report
//	         | slots; per-rank accumulate locks; mailbox ring headers
//	rings    | one byte ring per (sender, receiver) pair
//	arenas   | one fixed-size symmetric heap arena per rank
//
// Collective allocation needs no communication at all: every rank runs
// the same bump allocator over its arena in the same collective order, so
// segment k lives at the same arena offset on every rank and a remote
// address is just arenaBase(rank) + segOff + off.
//
// # Blocking primitives
//
// There are no cross-process wakeups (no futexes): every blocking
// primitive — Recv, Send backpressure, the accumulate lock — is
// a spin-then-park poll (pgas.Backoff): a short tight spin, then
// runtime.Gosched, then escalating microsecond sleeps. Each iteration
// also polls the control region's faultSeq word, which is what makes
// poisoning prompt: the instant a death is registered, every parked rank
// unwinds with a rank-attributed *pgas.FaultError clone, exactly like the
// shm transport.
//
// Neither a pgas lock nor the barrier is this transport's business: a lock
// is a word of the arenas like any other, operated by pgas.Front with CAS64
// (pgas/lock.go), whose waiting is the same pgas.Backoff, and the barrier
// is pgas.Front's dissemination barrier over Send and Recv
// (pgas/barrier.go), whose waiting is Recv's. The accumulate locks that
// make AccF64 atomic per target are holder-tagged control words (0 free,
// rank+1 held) acquired by CAS; mailboxes are single-producer byte rings
// per (sender, receiver) pair, drained into a receiver-local queue where
// tag/source matching happens (per-pair FIFO falls out of ring order).
//
// # Failure model
//
// Crash containment matches shm and tcp. A rank that panics (including
// injected faults from pgas/faulty) registers its death in the control
// region — dead flag, fault record, faultSeq bump, force-release of the
// accumulate locks the dead rank held — writes its exit report slot, and exits
// nonzero. A rank killed by a signal cannot register anything, so the
// parent, which also maps the file and reaps children, registers the
// death on its behalf (phase "exit") the moment the wait returns.
// Survivors observe faultSeq on their next operation and panic the
// recorded fault — without writing a report of their own, so the shared
// launcher's root-cause selection (package launch) gets one transport
// tier from ipc: the fault record itself. The record and the report
// slots hold the pgas.AppendFault form every transport shares.
//
// With Config.Survivable the world keeps operating instead: each death is
// delivered to each survivor exactly once, acknowledged via
// pgas.Resilient.SurviveFault, barriers complete over the live
// membership (pgas.Resilient.Membership reads the dead flags), and the
// dead rank's arena stays mapped and readable through
// Salvage/SalvageLoad64 — which is what lets the runtime's work-replay
// recovery reconstruct a dead rank's journal from its still-mapped heap.
package ipc
