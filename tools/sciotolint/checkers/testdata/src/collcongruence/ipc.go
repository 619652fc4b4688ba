// Fixtures proving the collcongruence analyzer covers the ipc transport: a
// world constructed by ipc.NewWorld is a pgas.World and its body receives
// an ordinary pgas.Proc, so rank-conditional collectives involving either
// are flagged exactly as on the other transports.
package collcongruence

import (
	"ipc"
	"pgas"
)

// Launching an ipc world only on rank 0 of an enclosing world is the
// mismatched Run bug regardless of transport.
func badIPCRun(p pgas.Proc) {
	w := ipc.NewWorld(ipc.Config{NProcs: 4})
	if p.Rank() == 0 {
		_ = w.Run(func(q pgas.Proc) {}) // want `collective Run call is conditional on the process rank`
	}
}

// Inside an ipc world's body the proc is an ordinary pgas.Proc; a
// rank-conditional Barrier parks the other rank processes on the shared
// epoch word forever.
func badIPCBody() {
	w := ipc.NewWorld(ipc.Config{NProcs: 4})
	_ = w.Run(func(p pgas.Proc) {
		if p.Rank() == 0 {
			p.Barrier() // want `collective Barrier call is conditional on the process rank`
		}
	})
}

// Unconditional collectives on an ipc world are clean, including the
// balanced-branch idiom.
func goodIPC() {
	w := ipc.NewWorld(ipc.Config{NProcs: 2})
	_ = w.Run(func(p pgas.Proc) {
		seg := p.AllocWords(1)
		if p.Rank() == 0 {
			p.Store64(0, seg, 0, 1)
			p.Barrier()
		} else {
			p.Barrier()
		}
	})
}
