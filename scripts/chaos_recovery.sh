#!/usr/bin/env bash
# chaos_recovery.sh — seed-pinned recovery matrix against the deployed
# daemon.
#
# Runs sciotod -recover on each survivable transport (shm: ranks are
# goroutines; ipc: ranks are OS processes over one shared mapping, and
# the injected panic genuinely kills a process) and, per scenario, kills
# worker rank 2 at a pinned operation count via the SCIOTO_FAULT_*
# environment (deterministic injection, see internal/pgas/faulty).
# Scenarios place the crash in the reacquire that takes the rank's first
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
# checked ops on rank 2 (faulty.Ops) and the first processing phase begins
# just above that: barriers and the detector reset to op 1032, the
# reacquire of what the gateway added to the rank's shared end at 1033-34,
# then a completion mark and a result Send per task. A split queue takes
# no lock, so the phase is short in ops — as few as 17 when the other
# ranks steal most of the rank's share — and the pins sit at its start.
# Crash points must land inside TC.Process — faults in setup or control
# collectives are fatal by design.
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
	run_scenario "$tr" "crash-in-reacquire" 1034 "$(spin_tasks 200)" 200
	run_scenario "$tr" "crash-after-first-task" 1036 "$(spin_tasks 200)" 200
	run_scenario "$tr" "crash-with-deferred-deps" 1036 "$(dep_tasks 200)" 200
done

echo "PASS: recovery matrix (2 transports x 3 scenarios, seed-pinned SCIOTO_FAULT_*)"
