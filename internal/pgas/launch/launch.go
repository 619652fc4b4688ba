package launch

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"scioto/internal/pgas"
)

// Spec is everything a transport tells the launcher: its name, the world's
// size and containment budget, and the transport-specific steps as plain
// function values. The launcher-side hooks run only in the launching
// process, Join only in a rank process; optional hooks may be nil.
type Spec struct {
	// Transport is the lower-case transport name ("tcp", "ipc"): the
	// prefix of every launcher error and, upper-cased, the <T> of the
	// SCIOTO_<T>_{RANK,WORLD,NPROCS} handshake variables.
	Transport string
	// NProcs is the number of rank processes.
	NProcs int
	// Grace is how long survivors may self-report after the first rank
	// failure before the launcher kills whatever is left. Zero selects
	// SCIOTO_<T>_GRACE or the 3s default; negative means no grace at all.
	Grace time.Duration
	// ExtraEnv names the one transport-specific handshake variable, whose
	// value Open produces and Join receives.
	ExtraEnv string
	// ExtraFiles, when Open sets it, are inherited by every rank process
	// as descriptors 3, 4, … in order (exec.Cmd.ExtraFiles).
	ExtraFiles []*os.File

	// Open creates what the ranks meet through (a rendezvous listener, a
	// shared region) before any child starts and returns ExtraEnv's value.
	Open func() (extra string, err error)
	// Close releases what a successful Open created, after every child
	// has been reaped and any Boot has returned.
	Close func()
	// Boot, when non-nil, completes the bootstrap while the children
	// start: it returns nil once every rank has checked in. Until then
	// ranks cannot detect each other's death, so a child failure kills
	// the world at once instead of starting the grace timer. AbortBoot
	// must make a blocked Boot return.
	Boot      func() error
	AbortBoot func()
	// Fetch returns the exit report a failed rank left behind, if any.
	Fetch func(rank int) (kind byte, payload []byte)
	// Killed, when non-nil, is told of each rank killed by a signal the
	// launcher did not send: such a rank could not report (or register)
	// anything itself.
	Killed func(fe *pgas.FaultError)
	// Blamed, when non-nil, is the transport's tier of root-cause
	// selection (see RootCause): the fault the transport's own evidence
	// points at and the rank to quote as its reporter, or a nil fault.
	Blamed func(reports []Report) (reporter int, fe *pgas.FaultError)
	// Recovered, when non-nil, marks the world survivable: no grace
	// timer runs (survivors legitimately keep working after a death) and
	// Run returns nil when Recovered accepts the failure reports.
	Recovered func(reports []Report) bool

	// Join is the rank-side boot step: attach to what Open created and
	// build this rank's Proc. With an error it may still return a Rank
	// whose Fail is set, when the report path was already up.
	Join func(rank int, extra string) (*Rank, error)
}

// Rank is a rank process's side of the world, built by Spec.Join.
type Rank struct {
	Proc pgas.Proc
	// Fail delivers the failing rank's exit report where Spec.Fetch will
	// find it. fe is the fault being reported (for a plain panic, the
	// rank's own "exit" fault), for transports that register deaths.
	Fail func(fe *pgas.FaultError, kind byte, payload []byte)
	// Finish runs after the body returns: the completion barrier plus
	// whatever teardown ordering the transport needs around it.
	Finish func()
}

// Exit report kinds.
const (
	ReportNone  = byte(0)
	ReportFault = byte(1) // payload: pgas.AppendFault
	ReportText  = byte(2) // payload: error text
)

func (s *Spec) env(name string) string {
	return "SCIOTO_" + strings.ToUpper(s.Transport) + "_" + name
}

// worldSeq counts NewWorld calls per transport in this process. Parent and
// children execute the same deterministic program, so a transport's call k
// here is its call k there; the counter is what lets a child recognize
// which NewWorld call it was spawned for. Worlds of one transport must
// therefore be created in a deterministic order (never concurrently from
// multiple goroutines). The count is per transport so that a rank process
// may skip constructing the other transport's worlds altogether.
var (
	seqMu    sync.Mutex
	worldSeq = map[string]int64{}
)

// NewWorld dispatches on the handshake environment: in the launching
// process it returns the world whose Run spawns the ranks; in a rank
// process the call the process was spawned for returns that rank's world
// and every other call returns an inert world whose Run is a no-op (the
// parent already ran, or will run, those worlds with their own children).
func NewWorld(s *Spec) pgas.World {
	if s.NProcs <= 0 {
		panic(s.Transport + ": NProcs must be positive")
	}
	s.Grace = Duration(s.Transport, s.Grace, s.env("GRACE"), 3*time.Second)
	seqMu.Lock()
	worldSeq[s.Transport]++
	seq := worldSeq[s.Transport]
	seqMu.Unlock()
	if os.Getenv(s.env("RANK")) == "" {
		return &launcher{s: s, seq: seq}
	}
	atoi := func(name string) int64 {
		v, err := strconv.ParseInt(os.Getenv(s.env(name)), 10, 64)
		if err != nil {
			panic(fmt.Sprintf("%s: bad %s: %v", s.Transport, s.env(name), err))
		}
		return v
	}
	if seq != atoi("WORLD") {
		return skipWorld(s.NProcs)
	}
	if want := atoi("NPROCS"); want != int64(s.NProcs) {
		panic(fmt.Sprintf("%s: world %d: launcher expects %d ranks, program configured %d — "+
			"the program's world creation sequence is not deterministic", s.Transport, seq, want, s.NProcs))
	}
	return &rankWorld{s: s, rank: int(atoi("RANK"))}
}

// skipWorld is the inert world of a rank process's non-target calls.
type skipWorld int

func (w skipWorld) NProcs() int                 { return int(w) }
func (w skipWorld) Run(func(p pgas.Proc)) error { return nil }

// launcher is the parent side: Run spawns the rank processes, watches the
// bootstrap and the exits, and returns the world's verdict.
type launcher struct {
	s   *Spec
	seq int64
	ran bool
}

func (w *launcher) NProcs() int { return w.s.NProcs }

func (w *launcher) Run(func(p pgas.Proc)) error {
	s, t, n := w.s, w.s.Transport, w.s.NProcs
	if w.ran {
		return fmt.Errorf("%s: World.Run called twice", t)
	}
	w.ran = true
	extra, err := s.Open()
	if err != nil {
		return err
	}
	defer s.Close()

	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("%s: cannot locate current binary: %v", t, err)
	}
	args := childArgs(os.Args[1:])
	cmds := make([]*exec.Cmd, n)
	for i := range cmds {
		cmd := exec.Command(exe, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		cmd.ExtraFiles = s.ExtraFiles
		cmd.Env = append(os.Environ(),
			s.env("RANK")+"="+strconv.Itoa(i),
			s.env("WORLD")+"="+strconv.FormatInt(w.seq, 10),
			s.env("NPROCS")+"="+strconv.Itoa(n),
			s.ExtraEnv+"="+extra,
		)
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:i] {
				c.Process.Kill()
				c.Wait()
			}
			return fmt.Errorf("%s: spawning rank %d: %v", t, i, err)
		}
		cmds[i] = cmd
	}

	// Termination signals are relayed to rank 0: a daemon built on a
	// multi-process world (sciotod) installs its drain handler in the
	// rank process, but the operator signals the process they started.
	sigCh := make(chan os.Signal, 2) // one pending signal of each kind
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	// The bootstrap runs concurrently with watching for child exits, so
	// a rank that dies before checking in fails the world promptly.
	// settleBoot forces the outcome when it has not been consumed yet.
	bootCh := make(chan error, 1)
	booting := s.Boot != nil
	if booting {
		go func() { bootCh <- s.Boot() }()
	}
	settleBoot := func() error {
		if !booting {
			return nil
		}
		booting = false
		s.AbortBoot()
		return <-bootCh
	}

	exitCh := make(chan Report, n)
	for i, cmd := range cmds {
		go func(rank int, cmd *exec.Cmd) {
			exitCh <- Report{Rank: rank, ExitErr: cmd.Wait()}
		}(i, cmd)
	}

	// Containment policy. A failure before the bootstrap completes kills
	// the world immediately: ranks parked in the bootstrap have nothing
	// to detect the death through. Afterwards the first failure starts
	// the grace timer instead — survivors detect the death themselves
	// and exit with their own rank-attributed reports; only ranks still
	// alive when the timer fires are killed. A survivable world runs no
	// timer. Run returns only after every child has been reaped, so no
	// rank process outlives the world.
	var reports []Report
	var bootErr error
	var graceCh <-chan time.Time
	killed := false
	killAll := func() {
		killed = true
		for _, c := range cmds {
			c.Process.Kill()
		}
	}
	defer killAll() // safety net: a panicking hook must not orphan the ranks
	for exited := 0; exited < n; {
		select {
		case r := <-exitCh:
			exited++
			if r.ExitErr == nil || killed {
				// Failures observed after killAll are the kills
				// themselves and carry no attribution value.
				break
			}
			// The exit may have won the select against a bootstrap that
			// had in fact completed; its real outcome decides the policy
			// (and settling it is what makes the boot state safe to read
			// in Fetch).
			if settleBoot() != nil {
				killAll()
			} else if graceCh == nil && s.Recovered == nil {
				graceCh = time.After(s.Grace)
			}
			s.collect(&r)
			reports = append(reports, r)
		case err := <-bootCh:
			booting = false
			if err != nil {
				bootErr = err
				killAll()
			}
		case <-graceCh:
			graceCh = nil
			killAll()
		case sig := <-sigCh:
			cmds[0].Process.Signal(sig)
		}
	}
	switch {
	case len(reports) > 0:
		if s.Recovered != nil && s.Recovered(reports) {
			return nil
		}
		return s.RootCause(reports)
	case bootErr != nil:
		return bootErr
	case settleBoot() != nil:
		// Every rank exited cleanly, which can beat the bootstrap's own
		// result to the select; only a bootstrap that cannot finish even
		// now means the ranks never took part in it.
		return fmt.Errorf("%s: all ranks exited before completing the bootstrap "+
			"(was the world created in a different order in the child processes?)", t)
	}
	return nil
}

// Report is one failed rank's contribution to root-cause selection.
type Report struct {
	Rank    int
	ExitErr error
	Signal  bool             // killed by a signal the launcher did not send
	Fault   *pgas.FaultError // decoded structured report, if any
	Text    []byte           // plain text report, if any
}

// collect completes a failed rank's report with how it died and what it
// left behind.
func (s *Spec) collect(r *Report) {
	var ee *exec.ExitError
	if errors.As(r.ExitErr, &ee) && ee.ExitCode() == -1 {
		// Signal death: no report is coming.
		r.Signal = true
		if s.Killed != nil {
			s.Killed(&pgas.FaultError{Rank: r.Rank, Phase: "exit", Err: r.ExitErr})
		}
		return
	}
	switch kind, payload := s.Fetch(r.Rank); kind {
	case ReportFault:
		r.Fault = pgas.DecodeFault(payload)
	case ReportText:
		r.Text = payload
	}
}

// RootCause selects the world's error among the failure reports (at least
// one). When a rank dies, every survivor fails too, and near-simultaneous
// exits reach the launcher in scheduler order — so "first exit processed"
// may be a secondary observer blaming another secondary casualty.
// Preference order, arrival order within each tier:
//
//  1. a rank killed by a signal the launcher did not send — an actual
//     process death, and the likeliest root;
//  2. an origin fault report (any phase but "peer-death"): the rank that
//     crashed by injection, deadline, or transport error names the cause
//     directly;
//  3. a plain panic report — an application failure, reported verbatim;
//  4. the transport's own evidence (Spec.Blamed): on tcp a peer-death
//     report naming a rank that never reported (dead or wedged), on ipc
//     the fault record survivors that exited silently left registered;
//  5. any fault report at all;
//  6. the first exit error.
func (s *Spec) RootCause(reports []Report) error {
	t := s.Transport
	first := func(ok func(r *Report) bool) *Report {
		for i := range reports {
			if ok(&reports[i]) {
				return &reports[i]
			}
		}
		return nil
	}
	if r := first(func(r *Report) bool { return r.Signal }); r != nil {
		return fmt.Errorf("%s: rank %d killed: %w", t, r.Rank,
			&pgas.FaultError{Rank: r.Rank, Phase: "exit", Err: r.ExitErr})
	}
	if r := first(func(r *Report) bool { return r.Fault != nil && r.Fault.Phase != "peer-death" }); r != nil {
		return fmt.Errorf("%s: rank %d reported: %w", t, r.Rank, r.Fault)
	}
	if r := first(func(r *Report) bool { return r.Text != nil }); r != nil {
		return fmt.Errorf("%s: rank %d: %v\n%s", t, r.Rank, r.ExitErr, r.Text)
	}
	if s.Blamed != nil {
		if reporter, fe := s.Blamed(reports); fe != nil {
			return fmt.Errorf("%s: rank %d reported: %w", t, reporter, fe)
		}
	}
	if r := first(func(r *Report) bool { return r.Fault != nil }); r != nil {
		return fmt.Errorf("%s: rank %d reported: %w", t, r.Rank, r.Fault)
	}
	return fmt.Errorf("%s: rank %d: %v", t, reports[0].Rank, reports[0].ExitErr)
}

// childArgs is the argv a rank process is launched with: the parent's own
// arguments, minus -test.paniconexit0. `go test` passes that flag so a
// TestMain calling os.Exit(0) without running tests is caught; a rank
// process exits through os.Exit(0) inside Run by design, which the flag
// would turn into a panic.
func childArgs(args []string) []string {
	return slices.DeleteFunc(slices.Clone(args), func(a string) bool {
		return a == "-test.paniconexit0" || a == "--test.paniconexit0"
	})
}

// rankWorld is one spawned rank's side of the world.
type rankWorld struct {
	s    *Spec
	rank int
}

func (w *rankWorld) NProcs() int { return w.s.NProcs }

// Run joins the world, executes the SPMD body for this rank, finishes
// (completion barrier), and exits the process: on a rank process, nothing
// after the launching Run call ever executes. A body panic is reported to
// the launcher and exits nonzero; a *pgas.FaultError panic is shipped
// structurally so the launcher's error keeps the rank attribution.
func (w *rankWorld) Run(body func(p pgas.Proc)) error {
	r, err := w.s.Join(w.rank, os.Getenv(w.s.ExtraEnv))
	if err != nil {
		w.fail(r, &pgas.FaultError{Rank: w.rank, Phase: "rendezvous", Err: err},
			fmt.Sprintf("%s: rank %d: %v", w.s.Transport, w.rank, err))
	}
	defer func() { // reached only by a panic: the clean path exits below
		rec := recover()
		if fe, ok := rec.(*pgas.FaultError); ok {
			w.fail(r, fe, "")
		}
		buf := make([]byte, 16<<10)
		buf = buf[:runtime.Stack(buf, false)]
		w.fail(r, &pgas.FaultError{Rank: w.rank, Phase: "exit", Err: fmt.Errorf("rank %d panicked: %v", w.rank, rec)},
			fmt.Sprintf("%s: rank %d panicked: %v\n%s", w.s.Transport, w.rank, rec, buf))
	}()
	body(r.Proc)
	r.Finish()
	os.Exit(0)
	return nil
}

// fail prints the failure on stderr, delivers it as this rank's exit
// report — the text when there is one, else fe in structured form — and
// exits nonzero.
func (w *rankWorld) fail(r *Rank, fe *pgas.FaultError, text string) {
	kind, payload := ReportText, []byte(text)
	if text == "" {
		text = fmt.Sprintf("%s: rank %d: %v", w.s.Transport, w.rank, fe)
		kind, payload = ReportFault, pgas.AppendFault(nil, fe)
	}
	fmt.Fprintln(os.Stderr, text)
	if r != nil {
		r.Fail(fe, kind, payload)
	}
	os.Exit(1)
}
