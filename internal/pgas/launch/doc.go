// Package launch is the self-exec launcher the multi-process transports
// (tcp, ipc) share: process creation, the handshake that tells a child
// which rank of which world it is, signal relay, exit reaping, crash
// containment, and the selection of one root cause among the failure
// reports. It borrows the classic MPI launcher shape but needs no external
// tool. A transport contributes only what is its own — how ranks meet and
// where a dying rank leaves its last words — as function values on a Spec.
//
// # Execution model
//
// NewWorld in the launching ("parent") process records the Spec; World.Run
// then
//
//  1. runs Spec.Open (tcp: the rendezvous listener; ipc: the shared memory
//     file, created, sized and mapped),
//  2. re-executes the current binary NProcs times with SCIOTO_<T>_RANK (the
//     child's rank), SCIOTO_<T>_WORLD (the parent's per-transport NewWorld
//     sequence number), SCIOTO_<T>_NPROCS, and the transport's own
//     variable carrying what Open returned (SCIOTO_TCP_ADDR: the listener's
//     address; SCIOTO_IPC_FILE: the descriptor number the child inherits
//     the memory file as, from Spec.ExtraFiles), <T> being the upper-cased
//     transport name,
//  3. runs Spec.Boot, if the transport has one, concurrently with
//  4. waiting for every child to exit, relaying SIGINT/SIGTERM to rank 0
//     meanwhile, and
//  5. returns nil, or the root cause (see below).
//
// Each child re-runs the same program from the start. Because parent and
// children execute the same deterministic code path with the same argv
// (minus -test.paniconexit0), the child's k-th NewWorld call of a
// transport corresponds to the parent's k-th: calls other than the
// SCIOTO_<T>_WORLD target return an inert world whose Run is a no-op, and
// the target call returns the world the child was spawned for, after
// checking that it has the size the parent announced. The child's Run
// calls Spec.Join, executes the SPMD body for its own rank, runs
// Rank.Finish (the completion barrier), and exits the process — so code
// after Run never executes in a child, and the closure passed to Run is
// obtained by re-execution rather than serialization. Consequences:
//
//   - Code before Run executes once per rank plus once in the parent.
//   - Worlds of one transport must be created in a deterministic order in
//     every process: concurrent NewWorld calls from multiple goroutines
//     would desynchronize the parent's and children's call numbering. The
//     numbering is per transport, so a rank process may skip creating the
//     other transport's worlds.
//   - The body runs in the children only; variables captured from the
//     parent's scope are copies in separate address spaces, so results
//     must travel through the PGAS itself (or through rank 0's output).
//
// # Exit reports
//
// A rank whose body panics prints the failure on stderr, hands one report
// to Rank.Fail — ReportFault with the pgas.AppendFault form of a
// *pgas.FaultError panic, ReportText with the panic text and stack of any
// other — and exits nonzero. A Join that fails is reported as text the
// same way, if the transport's report path was already up. The launcher
// retrieves the report with Spec.Fetch after reaping the child. A rank
// killed by a signal reports nothing; the launcher recognizes the signal
// exit itself and tells Spec.Killed.
//
// # Containment and root cause
//
// A failure before Boot has returned kills the world immediately: ranks
// parked in the bootstrap have nothing to detect the death through.
// Afterwards the first failure starts the grace timer (Spec.Grace, default
// 3s) — survivors detect the death through the transport and exit with
// their own rank-attributed reports — and whatever is still alive when it
// fires is killed. A survivable world (Spec.Recovered set) runs no timer.
// Every child is reaped either way, so no rank process outlives Run. An
// exit that reaches the launcher before the bootstrap's own result is not
// taken at face value: the launcher aborts the boot step and lets its real
// outcome decide, so ranks that finish within a millisecond of joining are
// a clean run, not a failed bootstrap.
//
// Near-simultaneous exits arrive in scheduler order and survivors can
// cascade-blame each other, so the launcher collects all failure reports
// and picks by authority, not arrival: a signal-killed rank, then a
// self-attributed origin fault, then a plain panic, then the transport's
// own evidence (Spec.Blamed), then any fault report, then the first exit
// error — see Spec.RootCause. Every error is prefixed with the transport
// name and the reporting rank ("tcp: rank 2 reported: …").
//
// # Knobs
//
// Duration and Bytes resolve a transport's tunables the same way
// everywhere: the Config field if set, else the named SCIOTO_* variable,
// else the default; a malformed variable is reported on stderr and
// ignored. Parent and children resolve independently but share the
// environment, so they agree.
package launch
