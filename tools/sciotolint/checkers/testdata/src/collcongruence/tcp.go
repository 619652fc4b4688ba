// Fixtures proving the collcongruence analyzer covers the tcp transport: a
// world constructed by tcp.NewWorld is a pgas.World and its body receives
// an ordinary pgas.Proc, so rank-conditional collectives involving either
// are flagged exactly as on the other transports.
package collcongruence

import (
	"pgas"
	"tcp"
)

// Launching a tcp world only on rank 0 of an enclosing world is the
// mismatched Run bug regardless of transport.
func badTCPRun(p pgas.Proc) {
	w := tcp.NewWorld(tcp.Config{NProcs: 4})
	if p.Rank() == 0 {
		_ = w.Run(func(q pgas.Proc) {}) // want `collective Run call is conditional on the process rank`
	}
}

// Inside a tcp world's body the proc is an ordinary pgas.Proc; a
// rank-conditional Barrier deadlocks the other rank processes.
func badTCPBody() {
	w := tcp.NewWorld(tcp.Config{NProcs: 4})
	_ = w.Run(func(p pgas.Proc) {
		if p.Rank() == 0 {
			p.Barrier() // want `collective Barrier call is conditional on the process rank`
		}
	})
}

// Unconditional collectives on a tcp world are clean, including the
// balanced-branch idiom.
func goodTCP() {
	w := tcp.NewWorld(tcp.Config{NProcs: 2})
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
