package launch

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scioto/internal/pgas"
)

// TestRootCauseTiers walks the documented preference order over hand-built
// report sets: each case puts the expected winner last, behind every
// lower-tier report, so arrival order alone would pick wrong. The
// transports' own tier-4 hooks are exercised the same way in their
// packages (tcp: TestRootCauseSilentBlame, ipc: TestRootCauseFaultRecord).
func TestRootCauseTiers(t *testing.T) {
	exit1 := errors.New("exit status 1")
	peerDeath := func(reporter, dead int) Report {
		return Report{Rank: reporter, ExitErr: exit1, Fault: &pgas.FaultError{Rank: dead, Phase: "peer-death"}}
	}
	bare := Report{Rank: 5, ExitErr: exit1}
	text := Report{Rank: 4, ExitErr: exit1, Text: []byte("ipc: rank 4 panicked: boom")}
	origin := Report{Rank: 2, ExitErr: exit1, Fault: &pgas.FaultError{Rank: 2, Phase: "injected-crash"}}
	signal := Report{Rank: 3, ExitErr: errors.New("signal: killed"), Signal: true}
	hookFault := &pgas.FaultError{Rank: 6, Phase: "exit"}
	hook := func([]Report) (int, *pgas.FaultError) { return 6, hookFault }
	noOpinion := func([]Report) (int, *pgas.FaultError) { return 0, nil }

	cases := []struct {
		name     string
		blamed   func([]Report) (int, *pgas.FaultError)
		reports  []Report
		want     string // the whole message, or its first line
		wantRank int    // rank of the FaultError in the chain; -2: none
	}{
		{"1 signal death beats everything", hook,
			[]Report{bare, peerDeath(0, 1), text, origin, signal},
			"x: rank 3 killed: pgas: fault at rank 3 [exit]: signal: killed", 3},
		{"2 origin fault beats text, hook and peer-death", hook,
			[]Report{bare, peerDeath(0, 1), text, origin},
			"x: rank 2 reported: pgas: fault at rank 2 [injected-crash]", 2},
		{"3 panic text beats hook and peer-death", hook,
			[]Report{bare, peerDeath(0, 1), text},
			"x: rank 4: exit status 1", -2},
		{"4 transport hook beats a peer-death report", hook,
			[]Report{bare, peerDeath(0, 1)},
			"x: rank 6 reported: pgas: fault at rank 6 [exit]", 6},
		{"5 any fault report when the hook has no opinion", noOpinion,
			[]Report{bare, peerDeath(0, 1)},
			"x: rank 0 reported: pgas: fault at rank 1 [peer-death]", 1},
		{"5 any fault report without a hook", nil,
			[]Report{bare, peerDeath(1, 0), peerDeath(0, 1)},
			"x: rank 1 reported: pgas: fault at rank 0 [peer-death]", 0},
		{"6 first exit error", nil,
			[]Report{bare, {Rank: 1, ExitErr: errors.New("exit status 2")}},
			"x: rank 5: exit status 1", -2},
		{"arrival order within a tier", nil,
			[]Report{origin, {Rank: 0, ExitErr: exit1, Fault: &pgas.FaultError{Rank: 0, Phase: "op"}}},
			"x: rank 2 reported: pgas: fault at rank 2 [injected-crash]", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := (&Spec{Transport: "x", Blamed: tc.blamed}).RootCause(tc.reports)
			if got, _, _ := strings.Cut(err.Error(), "\n"); got != tc.want {
				t.Errorf("RootCause = %q, want %q", got, tc.want)
			}
			fe, ok := pgas.AsFault(err)
			if tc.wantRank == -2 && ok || tc.wantRank != -2 && (!ok || fe.Rank != tc.wantRank) {
				t.Errorf("fault in chain = %v, %v; want rank %d", fe, ok, tc.wantRank)
			}
		})
	}
	if err := (&Spec{Transport: "x"}).RootCause([]Report{text}); !strings.HasSuffix(err.Error(), "\n"+string(text.Text)) {
		t.Errorf("panic text not reported verbatim: %q", err)
	}
}

func TestChildArgs(t *testing.T) {
	in := []string{"-test.run=X", "-test.paniconexit0", "--test.paniconexit0", "-test.v"}
	got := childArgs(in)
	if strings.Join(got, " ") != "-test.run=X -test.v" {
		t.Errorf("childArgs = %q", got)
	}
	if len(in) != 4 || in[1] != "-test.paniconexit0" {
		t.Errorf("childArgs modified its input: %q", in)
	}
}

// TestResolvers pins the Config-else-env-else-default order and that a
// malformed environment value falls back to the default.
func TestResolvers(t *testing.T) {
	const env = "SCIOTO_X_KNOB"
	for _, tc := range []struct {
		cfg  time.Duration
		env  string
		want time.Duration
	}{
		{0, "", 3 * time.Second},
		{0, "250ms", 250 * time.Millisecond},
		{0, "0s", 0},
		{0, "soon", 3 * time.Second},
		{0, "-1s", 3 * time.Second},
		{time.Second, "250ms", time.Second},
		{-1, "250ms", 0},
	} {
		t.Setenv(env, tc.env)
		if got := Duration("x", tc.cfg, env, 3*time.Second); got != tc.want {
			t.Errorf("Duration(cfg=%v, env=%q) = %v, want %v", tc.cfg, tc.env, got, tc.want)
		}
	}
	for _, tc := range []struct {
		cfg  int64
		env  string
		want int64
	}{
		{0, "", 64},
		{0, "4096", 4096},
		{0, "0", 64},
		{0, "4k", 64},
		{128, "4096", 128},
		{-5, "4096", 4096},
	} {
		t.Setenv(env, tc.env)
		if got := Bytes("x", tc.cfg, env, 64); got != tc.want {
			t.Errorf("Bytes(cfg=%v, env=%q) = %v, want %v", tc.cfg, tc.env, got, tc.want)
		}
	}
}

// TestMalformedEnvReported: the fallback is not silent — the rejected
// value is named on stderr with the transport's prefix.
func TestMalformedEnvReported(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	t.Setenv("SCIOTO_TCP_GRACE", "soon")
	Duration("tcp", 0, "SCIOTO_TCP_GRACE", time.Second)
	os.Stderr = saved
	w.Close()
	buf := make([]byte, 256)
	n, _ := r.Read(buf)
	if got, want := string(buf[:n]), "tcp: ignoring malformed SCIOTO_TCP_GRACE=\"soon\"\n"; got != want {
		t.Errorf("stderr = %q, want %q", got, want)
	}
}

// The tests below launch real rank processes of a stand-in transport "x":
// the launcher re-executes this test binary, each child replays the test
// functions up to the world it was spawned for, and exits inside that
// world's Run. They assert on the launcher's Run only.
func inRankProcess() bool { return os.Getenv("SCIOTO_X_RANK") != "" }

// xSpec is a transport with nothing to meet through: ranks join at once,
// leave no reports, and finish without a barrier.
func xSpec(n int) *Spec {
	return &Spec{
		Transport: "x", NProcs: n, Grace: 10 * time.Second, ExtraEnv: "SCIOTO_X_EXTRA",
		Open:  func() (string, error) { return "-", nil },
		Close: func() {},
		Fetch: func(int) (byte, []byte) { return ReportNone, nil },
		Join: func(int, string) (*Rank, error) {
			return &Rank{Fail: func(*pgas.FaultError, byte, []byte) {}, Finish: func() {}}, nil
		},
	}
}

// TestCleanExitsBeatBootResult forces the schedule the launcher used to
// lose about once in 200 tcp launches: every rank has exited cleanly
// before the boot step's result is consumed. Boot here cannot return
// until the launcher asks it to, so the exits always win; the launcher
// must then settle the boot step and take its verdict — a clean run when
// it succeeded, a failed bootstrap only when it really did not finish.
func TestCleanExitsBeatBootResult(t *testing.T) {
	for _, bootErr := range []error{nil, errors.New("x: nobody checked in")} {
		abort := make(chan struct{})
		s := xSpec(2)
		s.Boot = func() error { <-abort; return bootErr }
		s.AbortBoot = func() { close(abort) }
		err := NewWorld(s).Run(func(pgas.Proc) {})
		if inRankProcess() {
			continue
		}
		if bootErr == nil && err != nil {
			t.Errorf("ranks that finished before the boot result was read: Run = %v, want nil", err)
		}
		if bootErr != nil && (err == nil || !strings.Contains(err.Error(), "x: all ranks exited before completing the bootstrap")) {
			t.Errorf("boot step that never finished: Run = %v, want the failed-bootstrap error", err)
		}
	}
}

// TestFailureBeforeBootKillsWorld: while the bootstrap is incomplete the
// ranks have nothing to detect a death through, so the launcher must not
// wait out the grace period — rank 1 fails to join, rank 0 would block
// forever, and Run still returns promptly, blaming rank 1. Rank 1 fails
// only once rank 0 has joined (a file in a directory the parent opens), so
// the kill always finds rank 0 parked in its world, never part-way through
// replaying the earlier tests, whose output it shares with the parent.
func TestFailureBeforeBootKillsWorld(t *testing.T) {
	abort := make(chan struct{})
	s := xSpec(2)
	s.Boot = func() error { <-abort; return errors.New("x: rank 1 never checked in") }
	s.AbortBoot = func() { close(abort) }
	var dir string
	s.Open = func() (string, error) {
		var err error
		dir, err = os.MkdirTemp("", "launch-boot")
		return dir, err
	}
	s.Close = func() { os.RemoveAll(dir) }
	join := s.Join
	s.Join = func(rank int, dir string) (*Rank, error) {
		joined := filepath.Join(dir, "joined")
		if rank == 0 {
			if err := os.WriteFile(joined, nil, 0o644); err != nil {
				return nil, err
			}
			return join(rank, dir)
		}
		for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if _, err := os.Stat(joined); err == nil {
				break
			}
		}
		return nil, errors.New("cannot join")
	}
	start := time.Now()
	// Rank 0 sleeps rather than blocking in select {}: with no goroutine
	// left to run, the runtime would end it as deadlocked before the kill.
	err := NewWorld(s).Run(func(pgas.Proc) { time.Sleep(time.Hour) })
	if inRankProcess() {
		return
	}
	if err == nil || err.Error() != "x: rank 1: exit status 1" {
		t.Errorf("Run = %v, want rank 1's exit error", err)
	}
	if d := time.Since(start); d >= s.Grace/2 {
		t.Errorf("Run took %v: the world was left to the grace timer", d)
	}
}
