package tcp

import (
	"errors"
	"testing"

	"scioto/internal/pgas"
	"scioto/internal/pgas/launch"
)

// TestRootCauseSilentBlame: tcp's tier of root-cause selection. When a
// rank wedges, survivors cascade-blame each other as their connections
// die; the report to believe is the one naming a rank that never reported
// at all. It must lose to a panic text (tier 3) and beat an arbitrary
// peer-death report (tier 5). The shared tiers are covered in package
// launch (TestRootCauseTiers).
func TestRootCauseSilentBlame(t *testing.T) {
	exit1 := errors.New("exit status 1")
	blames := func(reporter, dead int) launch.Report {
		return launch.Report{Rank: reporter, ExitErr: exit1, Fault: &pgas.FaultError{Rank: dead, Phase: "peer-death"}}
	}
	spec := &launch.Spec{Transport: "tcp", Blamed: silentBlame}
	cases := []struct {
		name    string
		reports []launch.Report
		want    string
	}{
		{"the silent rank is the root, whoever exits first",
			[]launch.Report{blames(0, 1), blames(1, 0), blames(3, 2)},
			"tcp: rank 3 reported: pgas: fault at rank 2 [peer-death]"},
		{"every blamed rank reported: fall through to arrival order",
			[]launch.Report{blames(1, 0), blames(0, 1)},
			"tcp: rank 1 reported: pgas: fault at rank 0 [peer-death]"},
		{"a panic text outranks the silent blame",
			[]launch.Report{blames(3, 2), {Rank: 0, ExitErr: exit1, Text: []byte("boom")}},
			"tcp: rank 0: exit status 1\nboom"},
		{"an unattributed fault (rank -1) names nobody who reported",
			[]launch.Report{blames(0, 1), blames(1, -1)},
			"tcp: rank 1 reported: pgas: fault [peer-death]"},
	}
	for _, tc := range cases {
		if got := spec.RootCause(tc.reports).Error(); got != tc.want {
			t.Errorf("%s: RootCause = %q, want %q", tc.name, got, tc.want)
		}
	}
}
