// Package tcp implements the pgas interface with real multi-process
// distribution: every rank is a separate OS process and all remote
// operations travel over TCP. It is the transport that makes the Scioto
// runtime an actually distributed system — the shm transport simulates
// ranks with goroutines and dsim simulates them in virtual time, while tcp
// runs them as processes that share nothing but the wire.
//
// # Launch and bootstrap
//
// Rank processes are created, watched and reaped by the shared self-exec
// launcher (package launch, which documents the SCIOTO_TCP_RANK / WORLD /
// NPROCS handshake, the deterministic world-creation order it requires,
// exit reports and root-cause selection). tcp's own part is the
// rendezvous. The launcher opens a listener on 127.0.0.1 and passes its
// address in SCIOTO_TCP_ADDR. Each child opens its own peer listener
// before anything else, so it can service remote operations as soon as
// its address is known, then dials the rendezvous address and sends a
// hello frame
//
//	[rank int32][peer listen address bytes]
//
// When all NProcs hellos have arrived, the parent broadcasts the address
// table — one address per line, in rank order — on every rendezvous
// connection. Each child dials every other rank's peer listener (with
// jittered exponential backoff — see backoff.go) and sends an opHello
// frame naming its rank, forming a full mesh, and starts the body. The
// rendezvous connection stays open: a failing child sends its exit report
// on it as one final frame, [report kind byte][payload].
//
// # Wire protocol
//
// Every message is a length-prefixed frame: a little-endian uint32 byte
// count followed by the payload. On the rendezvous connections the
// payload is as documented in the bootstrap section. On the mesh
// connections (data and heartbeat alike) every frame additionally starts
// with a uint32 sequence number assigned by the dialing side: a request
// is [seq u32][opcode][fixed-width little-endian fields] (with trailing
// bulk bytes where noted), and a reply is [seq u32][status byte][payload]
// where seq echoes the request being answered. Correlating replies by
// sequence number is what permits pipelining — many requests in flight on
// one connection — which the non-blocking Proc operations exploit: their
// frames accumulate in the connection's write buffer and leave as a
// single write at the next flush, and the replies stream back in order.
// The service applies one connection's requests strictly in frame order,
// which is the per-origin-target FIFO ordering the pgas.Proc contract
// promises for non-blocking operations. The status byte is replyOK
// followed by the result payload, or replyFaulted followed by an encoded
// fault (see below) when the serving rank's world has faulted. Frames are
// assembled (length prefix included) in pooled buffers and written with a
// single Write call, so the steady-state operation path performs one
// syscall per flush and allocates nothing.
//
// The first frame on every mesh connection is opHello (seq 0), so the
// serving rank can attribute a mid-run EOF to the dialing rank. The
// one-sided opcodes are pgas.OpKind+1 and share one encoder (encodeOp) for
// blocking and non-blocking issue; the rest are the control operations:
//
//	opHello   [rank i32]                                   (no reply)
//	opGet     [seg i32][off i64][n i64]                 -> [n data bytes]
//	opPut     [seg i32][off i64][data...]               -> []
//	opAcc     [seg i32][off i64][8k float64 bytes]      -> []
//	opLoad    [seg i32][idx i64]                        -> [val i64]
//	opStore   [seg i32][idx i64][val i64]               -> []
//	opFAdd    [seg i32][idx i64][delta i64]             -> [old i64]
//	opCAS     [seg i32][idx i64][old i64][new i64]      -> [swapped i64, 0 or 1]
//	opSend    [from i32][tag i32][data...]              -> []
//	opBarrier []                                        -> [] when released
//	opPing    []                                        -> []
//
// There is no lock opcode: a pgas lock is a word of the heap and Lock,
// TryLock and Unlock are opCAS frames issued by pgas.Front (pgas/lock.go).
//
// An encoded fault is the pgas.AppendFault form every transport shares.
// The observer-local Op field is not shipped, because the operation that
// surfaced the fault differs at each observer.
//
// # The service engine
//
// Each rank runs an accept loop whose per-connection handlers apply
// requests to the rank's local symmetric heap — the ARMCI data-server
// pattern. Word operations use sync/atomic on the owner's cells and
// accumulates serialize on a per-rank mutex, so owner-side Local,
// RelaxedLoad64 and RelaxedStore64 observe exactly the shm transport's
// semantics. The barrier is a counter at rank 0: every rank sends
// opBarrier (rank 0 enters locally) and the replies are released when the
// count reaches NProcs — the one deferred reply: the handler never blocks
// on an incomplete barrier, it registers the reply and keeps serving.
//
// Collective allocation needs no communication: each rank appends to its
// own heap, and the collective-order discipline (pgas.go) makes handle k
// name the same logical segment everywhere. A remote operation that
// arrives before the owner has reached the matching Alloc call simply
// waits for the segment to appear.
//
// # Failure model
//
// A rank process can die (crash, SIGKILL, OOM) or wedge (SIGSTOP,
// deadlock) at any point. Containment has three layers:
//
//   - Detection. Every remote operation except Barrier carries a
//     read/write deadline (Config.OpTimeout, default 60s); a Barrier's
//     reply is legitimately deferred, so it relies on death detection
//     instead (a Lock is bounded opCAS round trips, each with its
//     deadline). A mid-run EOF on a serve connection marks the
//     identified peer dead. Optionally (Config.Heartbeat), a dedicated
//     pinger connection per peer sends opPing every interval and expects
//     the reply within three intervals — the only detector that catches a
//     wedged-but-alive peer promptly.
//   - Propagation. The first observed death registers a *pgas.FaultError
//     on the rank's owner state, which poisons every structure a
//     goroutine can park in (the barrier, the mailbox), severs
//     outgoing connections so in-flight RPCs unblock, and makes
//     the service refuse all subsequent requests with a replyFaulted
//     carrying the registered fault — the rank's own self-targeting
//     operations included, so a rank retrying a lock it hosts unwinds
//     too. Each survivor's Run body panics with
//     the rank-attributed fault, ships it to the launcher as its exit
//     report, and exits nonzero.
//   - Teardown. Kill-before-bootstrap, the grace period (Config.Grace,
//     default 3s) and root-cause selection are the shared launcher's
//     (package launch). tcp's contribution to the selection: survivors
//     can cascade-blame each other (a survivor's dying connections EOF
//     at ranks that have not yet observed the true death), so among
//     peer-death reports the one naming a rank that never reported wins.
//
// During clean shutdown each rank arms a teardown flag (non-zero ranks
// before entering the completion barrier, rank 0 after its local release)
// so the expected EOFs of exiting peers are not misread as deaths.
//
// Config.OpTimeout, Config.Grace and Config.Heartbeat fall back to the
// environment variables SCIOTO_TCP_OP_TIMEOUT, SCIOTO_TCP_GRACE and
// SCIOTO_TCP_HEARTBEAT (Go duration syntax) when zero.
//
// # Deviations from shm/dsim
//
// The tcp transport models nothing: latency, bandwidth and Occupancy
// configuration are ignored because the network is real. Compute spins
// (scaled by SpeedFactor) and Now reports wall-clock time. A request the service cannot decode (decodeOp: wrong length for its
// opcode, unknown opcode, negative offset or count, segment id
// outside [0, 2^20)), that addresses memory outside its segment, or that
// sends a message under a rank other than its connection's is refused: the
// owner blames the requesting rank with a FaultError in phase "service",
// answers the request with that fault, and stops reading the connection
// (FuzzDecodeOp). Cross-world state (e.g. comparing random draws between
// two worlds through captured variables) is impossible by construction;
// the conformance suite's pgastest.Options{MultiProcess: true} mode
// validates everything through the PGAS instead.
package tcp
