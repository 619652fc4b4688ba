GO ?= go

.PHONY: build test race lint vet chaos chaos-recovery bench-smoke bench-compare bench-harness dsim-seeds fuzz-smoke loc obs-smoke serve-smoke all

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the whole tree (runtime, transports, facade,
# tools), sized down via -short so it fits an interactive budget; CI runs
# the same target.
race:
	$(GO) test -race -short ./...

# sciotolint enforces the PGAS and split-queue invariants (see DESIGN.md)
# with all eight analyzers, per-package and whole-program. It exits 2 on
# findings, so this target fails the build when the tree violates an
# invariant without a justified //lint:ignore. Findings are also written
# as a JSON array to sciotolint-findings.json (always, even when empty),
# which CI uploads as an artifact and feeds to its problem matcher.
lint:
	$(GO) run ./tools/sciotolint -o sciotolint-findings.json ./...

vet:
	$(GO) vet ./...

# Fault-tolerance suite under the race detector: the deterministic
# fault-injection wrapper (delay/drop/crash over shm, dsim, and tcp), the
# tcp and ipc crash-containment tests (SIGKILL and SIGSTOP of live
# ranks, the SIGKILL-then-salvage journal replay over the shared mapping,
# and tcp's completion barrier ended cleanly and by a death), and the
# work-replay recovery matrix (transports x crash-in-reacquire /
# crash-after-first-task / crash-with-deferred-deps, all seed-pinned; see
# internal/core/recover_test.go; the serve daemon's pins are a worker's
# first op after a wake and a crash mid-burst). CI runs the same target.
chaos:
	$(GO) test -race -count=1 ./internal/pgas/faulty/
	$(GO) test -race -count=1 -run 'TestCrashContainment|TestCompletionTeardown|TestInjectedCrashOverTCP|TestHeartbeat|TestOpContext|TestBackoff|TestDialRetry' ./internal/pgas/tcp/
	$(GO) test -race -count=1 -run 'TestCrashContainment|TestInjectedCrashOverIPC|TestRecover' ./internal/pgas/ipc/
	$(GO) test -race -count=1 -run 'TestRecovery' ./internal/core/
	$(GO) test -race -count=1 -run 'TestRunRecover' .
	$(GO) test -race -count=1 -run 'TestServeWorkerCrashRecovers' ./internal/serve/

# Recovery matrix against the shipped binary: sciotod -recover on both
# survivable transports (shm and ipc), worker rank 2 killed at pinned op
# counts via the SCIOTO_FAULT_* environment, all submitted results still
# streamed and a clean drain. CI runs the same target.
chaos-recovery:
	bash scripts/chaos_recovery.sh

# One iteration of internal/core's two path benchmarks (owner path: Add +
# pop + execute; remote steal), of internal/scf's replicated part of an
# scf-tcp round (system set-up, guess, one DIIS step) and of the root
# package's substrate microbenchmarks (UTS child generation, the dense
# kernels, the dsim engine's kept and handed-over yields and the
# uts-dsim64 and serve-shm world launches) and of the two multi-process world launches
# (ipc and tcp: spawn two rank processes, one barrier, reap). A smoke
# test, not a measurement: it proves they still build and run. The paper's tables and figures are pinned in
# virtual time by the golden tests of internal/bench, which tier-1 runs.
# CI runs the same target.
bench-smoke:
	$(GO) test -run=NONE -bench='OwnerPath|RemoteSteal' -benchtime=1x ./internal/core/
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/scf/
	$(GO) test -run=NONE -bench=. -benchtime=1x .
	$(GO) test -run=NONE -bench=Launch -benchtime=1x ./internal/pgas/ipc/ ./internal/pgas/tcp/

# The dsim attribution report must equal BENCH_attrib.json (virtual time:
# exact equality on any host). Wall-clock performance is judged by the
# repository benchmark below, not here. CI runs the same target.
bench-compare:
	bash scripts/bench_compare.sh

# The uts-dsim64 seed table a virtual-time claim is stated with: the
# repository benchmark on seeds 1-10 with 20-s windows, one row per seed
# (tasks_per_s, round_p50_ms, speedup). Virtual time, so any host prints
# the same table; run it on the parent and on the change. ~6 minutes.
dsim-seeds:
	bash scripts/dsim_seeds.sh

# The repository benchmark (BENCHMARK.json, benchmark/) is a nested module
# that `go test ./...` from the root does not reach; its own tests keep it
# compiling and running against the tree it benchmarks. CI runs the same
# target.
bench-harness:
	cd benchmark && $(GO) test ./...

# Ten seconds of native fuzzing on each decoder that reads another
# process's bytes: the fault codec every transport shares (tcp fault
# replies and exit reports, ipc fault record and report slots), the tcp
# service's request decoder with the heap's range checks behind it, the
# trace dump reader with the attribution engine behind it (its seeds are
# whole dumps of a few kB, so minimising each new-coverage input would eat
# the ten seconds: off), and sciotod's submit decoder against
# encoding/json, the reference it must equal on every input. A smoke, not
# a campaign: it proves the targets still build, their seed corpora pass,
# and a short search finds nothing. CI runs the same target.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFault -fuzztime=10s ./internal/pgas/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeOp -fuzztime=10s ./internal/pgas/tcp/
	$(GO) test -run='^$$' -fuzz=FuzzReadDump -fuzztime=10s -fuzzminimizetime=0 ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSubmit -fuzztime=10s ./internal/serve/

# Code-line ledger for the simplification round (ROADMAP: "track the round
# with a make loc line in CHANGES.md per PR"): Go lines that are neither
# blank nor comment-only, tests excluded, for the two packages the round
# targets, for the serve daemon, and for the repo without the benchmark
# harness and the linter. The internal/pgas line is broken down by part —
# each transport, the launcher tcp and ipc share, the two wrappers, the
# conformance suite, the interface package itself — so the next deletion
# is sized from the ledger.
# The obs line is the observability stack (ROADMAP "One event spine"):
# the recorder, dump and attribution engine, the metrics registry, the
# instrumenting wrapper and the trace tool. The tools line is the linter
# (its analysistest fixtures excluded), which the repo line leaves out.
# The spi line sizes the transport SPI: methods of pgas.Kernel (what a
# transport implements), methods declared on the two wrappers' proc types
# (what a wrapper overrides), and capability type assertions outside
# pgas.Find (what a wrapper would have to forward by hand). The ablation
# baselines line is the part of internal/core that exists only for the
# paper's comparisons: the locked queue (Figure 7's No-Split series) and
# counter termination. The recovery line is the seam's gate: the nil tests
# of the recovery state (tc.rec, the journal, a *recovery argument) left
# in tc.go and deps.go, and the TC fields holding recovery state — rec and
# the journal plus the nine execution fields recover.go once kept on TC
# (executing … rejoin), so one moved back shows.
LOC = awk '!/^[[:space:]]*($$|\/\/)/ {n++} END {print n+0}'
SRC = find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './tools/*' ! -path './.bench_build/*'
loc:
	@echo "internal/pgas  $$(find internal/pgas -name '*.go' ! -name '*_test.go' | xargs cat | $(LOC))"
	@echo "  by part      $$(for d in shm dsim ipc tcp launch pgastest; do printf '%s %s, ' $$d $$(find internal/pgas/$$d -name '*.go' ! -name '*_test.go' | xargs cat | $(LOC)); done)wrappers $$(find internal/pgas/faulty internal/pgas/instr -name '*.go' ! -name '*_test.go' | xargs cat | $(LOC)) (faulty + instr)," \
		"interface $$(find internal/pgas -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | $(LOC)) (the package itself: Kernel, Front, the lock, fault codec)"
	@echo "internal/core  $$(find internal/core -name '*.go' ! -name '*_test.go' | xargs cat | $(LOC))"
	@echo "  ablation baselines $$(cat internal/core/queue_locked.go internal/core/td_counter.go | $(LOC)) (queue_locked.go + td_counter.go, counted in internal/core)"
	@echo "internal/serve $$(find internal/serve -name '*.go' ! -name '*_test.go' | xargs cat | $(LOC))"
	@echo "repo           $$($(SRC) | xargs cat | $(LOC))"
	@echo "obs            $$(find internal/trace internal/obs internal/pgas/instr cmd/sciototrace -name '*.go' ! -name '*_test.go' | xargs cat | $(LOC))"
	@echo "tools          $$(find tools -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | $(LOC)) (tools/sciotolint without its analysistest fixtures; not in the repo line)"
	@echo "spi            $$(for i in Kernel Resilient; do printf '%s %s, ' $$i $$(awk '/^type '$$i' interface/ {k=1; next} k && /^}/ {k=0} k && /^\t[A-Z][A-Za-z0-9]*\(/ {n++} END {print n+0}' internal/pgas/pgas.go); done | sed 's/, $$//') methods;" \
		"faulty proc $$(grep -c '^func (p \*proc)' internal/pgas/faulty/faulty.go), instr proc $$(grep -c '^func (p \*proc)' internal/pgas/instr/proc.go);" \
		"capability assertions $$($(SRC) | xargs grep -E '\.\((pgas\.)?Resilient\)|\.\((trace\.)?Attacher\)' | grep -vc '^[^:]*:[[:space:]]*//')"
	@echo "recovery       nil tests in tc.go + deps.go $$(cat internal/core/tc.go internal/core/deps.go | grep -E '\b(rec|jn) [!=]= nil' | grep -vc 'recover()'), TC recovery fields $$(awk '/^type TC struct/ {k=1; next} k && /^}/ {k=0} k && /^\t(rec|jn|executing|effects|skip|spill|owed|resumes|pending|phases|rejoin)[ ,\t]/ {n++} END {print n+0}' internal/core/tc.go)"

# End-to-end observability smoke: UTS on shm with the live endpoint and
# trace dumps on, a mid-run /metrics + /healthz scrape, and a 2-rank
# sciototrace merge. CI runs the same target.
obs-smoke:
	bash scripts/obs_smoke.sh

# End-to-end serve-mode smoke: sciotod on shm, 8 concurrent clients
# streaming all results back — inside the one phase every rank entered at
# start-up, by the live scioto_serve_phases_total — 429 backpressure on an
# over-limit batch, and a clean SIGTERM drain (exit 0). CI runs the same
# target.
serve-smoke:
	bash scripts/serve_smoke.sh
