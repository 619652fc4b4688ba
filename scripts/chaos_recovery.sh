#!/usr/bin/env bash
# chaos_recovery.sh — seed-pinned recovery matrix against the deployed
# daemon.
#
# Runs sciotod -recover on each survivable transport (shm: ranks are
# goroutines; ipc: ranks are OS processes over one shared mapping, and
# the injected panic genuinely kills a process) and, per scenario, kills
# worker rank 2 at a pinned operation count via the SCIOTO_FAULT_*
# environment (deterministic injection, see internal/pgas/faulty).
# Scenarios place the crash on the rank's first operation after a wake
# (to everyone else it died parked), in the reacquire that takes its first
# tasks, after its first task, and while deferred-dependency tasks are in
# flight. Each run must (a)
# actually fire the injected crash, (b) stream every submitted result
# back to the client, and (c) drain to exit 0.
#
# The in-process matrix (go test: TestRecovery* on shm+dsim, TestRunRecover,
# TestServeWorkerCrashRecovers) proves exactness; this script proves the
# same healing works in the shipped binary under env-driven injection.
# Run via `make chaos-recovery`; CI runs the same target.
#
# Op-count pinning: worker setup (dep-pool init + journal) costs 1024
# checked ops on rank 2 (faulty.Ops). The daemon's one phase then opens —
# barrier, detector reset, barrier — and with nothing submitted yet the
# rank sits through its idle rounds (serve's parkAfter of them and the one
# that raises its parked flag: a look at its own queue word and a steal
# probe each, which at four ranks reads two victims), looks once more and
# blocks in Recv having issued 1043 ops: the same on every run, because
# curl arrives long after. The wake is op 1044 (the flag comes down), the
# reacquire of what the gateway dealt 1045-46, then one completion mark per
# task — results ride in bursts, so a task costs no Send. Past the wake the sequence is the schedule's: with
# four ranks on fewer processors a woken rank may find its queue already
# emptied by thieves, and the later pins land in a probe or a steal
# instead — inside TC.Process all the same. No barrier or detector reset
# follows set-up any more, so there is no control collective for a pin to
# fall into: the one window left outside TC.Process is the gateway's
# collect between a phase that ended on a recovery and the next.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/sciotod" ./cmd/sciotod

# spin_tasks N — a JSON submission of N 50µs spin tasks.
spin_tasks() {
	python3 -c "
import json, sys
n = int(sys.argv[1])
print(json.dumps({'tenant': 'chaos', 'tasks': [{'kind': 'spin', 'arg': 50000}] * n}))
" "$1"
}

# dep_tasks N — N/2 spin tasks plus N/2 dependents, each deferred on one
# of the first half, so the crash epoch holds registered-but-pending
# deferred tasks.
dep_tasks() {
	python3 -c "
import json, sys
n = int(sys.argv[1])
half = n // 2
tasks = [{'kind': 'spin', 'arg': 50000} for _ in range(half)]
tasks += [{'kind': 'spin', 'arg': 50000, 'deps': [i]} for i in range(half)]
print(json.dumps({'tenant': 'chaos', 'tasks': tasks}))
" "$1"
}

run_scenario() {
	local tr="$1" name="$2" crash_after="$3" payload="$4" ntasks="$5"
	echo "== scenario: $tr/$name (crash rank 2 after $crash_after ops) =="
	: >"$tmp/err.log"
	SCIOTO_FAULT_SEED=21 SCIOTO_FAULT_CRASH_RANK=2 SCIOTO_FAULT_CRASH_AFTER="$crash_after" \
		"$tmp/sciotod" -transport "$tr" -procs 4 -seed 7 -recover -addr 127.0.0.1:0 \
		>"$tmp/out.log" 2>"$tmp/err.log" &
	pid=$!

	local addr=""
	for _ in $(seq 1 200); do
		addr=$(sed -n 's|.*serving http://\([^ ]*\) .*|\1|p' "$tmp/err.log" | head -1)
		[ -n "$addr" ] && break
		if ! kill -0 "$pid" 2>/dev/null; then
			echo "FAIL($name): sciotod exited before announcing the endpoint" >&2
			cat "$tmp/err.log" >&2
			exit 1
		fi
		sleep 0.05
	done
	[ -n "$addr" ] || { echo "FAIL($name): no endpoint within 10s" >&2; exit 1; }

	local id
	id=$(echo "$payload" | curl -sf "http://$addr/v1/submit" -d @- | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')

	local results
	results=$(curl -sfN "http://$addr/v1/submissions/$id/stream" | python3 -c "
import json, sys
n, done = 0, None
for line in sys.stdin:
    ev = json.loads(line)
    if ev.get('result'):
        n += 1
    if ev.get('done'):
        done = ev['done']
        break
assert done is not None, 'stream ended without a done line'
assert done['completed'] == $ntasks, f'completed {done[\"completed\"]}, want $ntasks'
print(n)
")
	if [ "$results" != "$ntasks" ]; then
		echo "FAIL($name): streamed $results results, want $ntasks" >&2
		cat "$tmp/err.log" >&2
		exit 1
	fi

	kill -TERM "$pid"
	if ! wait "$pid"; then
		echo "FAIL($name): sciotod exited nonzero after drain" >&2
		cat "$tmp/err.log" >&2
		exit 1
	fi
	pid=""

	if ! grep -q "injected-crash" "$tmp/err.log"; then
		echo "FAIL($name): pinned crash never fired; the run exercised no recovery (re-pin CRASH_AFTER)" >&2
		cat "$tmp/err.log" >&2
		exit 1
	fi
	echo "ok: $ntasks results streamed across the crash, clean drain"
}

# The op pins hold on both transports: faulty counts rank 2's own
# checked operations, and the setup sequence (dep-pool init + journal)
# that dominates the count is identical core code on shm and ipc.
for tr in shm ipc; do
	run_scenario "$tr" "crash-on-wake" 1044 "$(spin_tasks 200)" 200
	run_scenario "$tr" "crash-in-reacquire" 1046 "$(spin_tasks 200)" 200
	run_scenario "$tr" "crash-after-first-task" 1048 "$(spin_tasks 200)" 200
	run_scenario "$tr" "crash-with-deferred-deps" 1048 "$(dep_tasks 200)" 200
done

echo "PASS: recovery matrix (2 transports x 4 scenarios, seed-pinned SCIOTO_FAULT_*)"
