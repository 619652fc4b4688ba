package ipc

import (
	"errors"
	"testing"

	"scioto/internal/pgas"
	"scioto/internal/pgas/launch"
)

// TestRootCauseFaultRecord: ipc's tier of root-cause selection, over a
// real (tiny) mapped world. A rank that observes a registered death exits
// without writing a report, so the launcher may hold nothing but bare exit
// errors — the control region's fault record then names the origin. The
// record must lose to a panic text (tier 3), beat a bare exit error (tier
// 6), and stay out of the way while nothing is registered; the survivable
// verdict reads the same region. The shared tiers are covered in package
// launch (TestRootCauseTiers).
func TestRootCauseFaultRecord(t *testing.T) {
	spec := &launch.Spec{Transport: "ipc"}
	g := &region{cfg: Config{NProcs: 3, ArenaBytes: 4096, RingBytes: 256}, s: spec}
	if _, err := g.open(); err != nil {
		t.Fatal(err)
	}
	defer g.close()
	spec.Blamed = g.registered
	exit1 := errors.New("exit status 1")
	bare := []launch.Report{{Rank: 0, ExitErr: exit1}, {Rank: 2, ExitErr: exit1}}

	if got, want := spec.RootCause(bare).Error(), "ipc: rank 0: exit status 1"; got != want {
		t.Errorf("nothing registered: RootCause = %q, want %q", got, want)
	}
	if g.recovered(bare) {
		t.Error("recovered with no death registered")
	}

	g.killed(&pgas.FaultError{Rank: 1, Phase: "exit", Detail: "task-parallel phase", Err: errors.New("signal: killed")})
	want := "ipc: rank 1 reported: pgas: fault at rank 1 [exit] in task-parallel phase: signal: killed"
	if got := spec.RootCause(bare).Error(); got != want {
		t.Errorf("death registered: RootCause = %q, want %q", got, want)
	}
	withText := append([]launch.Report{{Rank: 2, ExitErr: exit1, Text: []byte("boom")}}, bare...)
	if got, want := spec.RootCause(withText).Error(), "ipc: rank 2: exit status 1\nboom"; got != want {
		t.Errorf("panic text present: RootCause = %q, want %q", got, want)
	}

	// Survivable verdict: recovered only if every failed rank is one the
	// region has registered dead.
	if g.recovered(bare) {
		t.Error("recovered although live ranks 0 and 2 failed")
	}
	if !g.recovered([]launch.Report{{Rank: 1, ExitErr: errors.New("signal: killed"), Signal: true}}) {
		t.Error("not recovered although the only failure is the registered death")
	}
}
