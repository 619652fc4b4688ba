#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of serve mode (sciotod).
#
# Brings sciotod up on shm, drives it with 8 concurrent clients that each
# submit a batch and stream every result back, checks from the live
# metrics that all of it ran inside the one task-parallel phase every rank
# entered at start-up (a daemon that falls back to a phase per batch fails
# here, not only in the benchmark), checks admission control refuses an
# over-limit batch with 429, then SIGTERMs the daemon and requires a clean
# drain (exit 0). Run via `make serve-smoke`; CI runs the same target.
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

"$tmp/sciotod" -procs 4 -addr 127.0.0.1:0 -max-pending 64 -obs 127.0.0.1:0 \
	>"$tmp/out.log" 2>"$tmp/err.log" &
pid=$!

# The daemon announces the ephemeral endpoint on stderr:
#   sciotod: serving http://HOST:PORT (procs N)
addr=""
for _ in $(seq 1 200); do
	addr=$(sed -n 's|.*serving http://\([^ ]*\) .*|\1|p' "$tmp/err.log" | head -1)
	[ -n "$addr" ] && break
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "FAIL: sciotod exited before announcing the endpoint" >&2
		cat "$tmp/err.log" >&2
		exit 1
	fi
	sleep 0.05
done
if [ -z "$addr" ]; then
	echo "FAIL: no endpoint announcement within 10s" >&2
	cat "$tmp/err.log" >&2
	exit 1
fi
base="http://$addr"

curl -fsS "$base/v1/healthz" | grep -q '"status":"serving"' ||
	{ echo "FAIL: /v1/healthz not serving" >&2; exit 1; }

# 8 concurrent clients, 10 tasks each, every result streamed back. fib
# results are checked by content (fib(20) = 6765 in base64: "Njc2NQ==").
batch='{"tasks":[
  {"kind":"fib","arg":20},{"kind":"echo","payload":"cGluZw=="},
  {"kind":"fib","arg":20},{"kind":"spin","arg":1000},
  {"kind":"fib","arg":20},{"kind":"echo","payload":"cGluZw=="},
  {"kind":"fib","arg":20},{"kind":"spin","arg":1000},
  {"kind":"fib","arg":20},{"kind":"fib","arg":20,"deps":[0,8]}]}'
for c in $(seq 1 8); do
	(
		id=$(curl -fsS "$base/v1/submit" -d "$batch" | sed -n 's|.*"id":"\([^"]*\)".*|\1|p')
		[ -n "$id" ] || { echo "FAIL: client $c got no submission id" >&2; exit 1; }
		curl -fsSN "$base/v1/submissions/$id/stream" >"$tmp/stream.$c"
	) &
done
wait $(jobs -p | grep -v "^$pid\$") || { echo "FAIL: a client failed" >&2; cat "$tmp/err.log" >&2; exit 1; }

for c in $(seq 1 8); do
	results=$(grep -c '"result"' "$tmp/stream.$c" || true)
	[ "$results" -eq 10 ] ||
		{ echo "FAIL: client $c streamed $results results, want 10" >&2; cat "$tmp/stream.$c" >&2; exit 1; }
	grep -q '"done".*"state":"done"' "$tmp/stream.$c" ||
		{ echo "FAIL: client $c stream has no done line" >&2; exit 1; }
	fibs=$(grep -o 'Njc2NQ==' "$tmp/stream.$c" | wc -l)
	[ "$fibs" -eq 6 ] ||
		{ echo "FAIL: client $c got $fibs fib(20) results, want 6" >&2; exit 1; }
done

# One long phase: the obs endpoint (announced on stderr like the ingest
# one) exports scioto_serve_phases_total per rank, a count of TC.Process
# entries. 1 is the steady state; 2 allows for a recovery settle.
obs=$(sed -n 's|.*obs endpoint.*serving http://\([^/]*\)/metrics.*|\1|p' "$tmp/err.log" | head -1)
[ -n "$obs" ] || { echo "FAIL: no obs endpoint announcement" >&2; cat "$tmp/err.log" >&2; exit 1; }
curl -fsS "http://$obs/metrics" | grep '^scioto_serve_phases_total{' >"$tmp/phases.txt" || true
[ "$(wc -l <"$tmp/phases.txt")" -eq 4 ] ||
	{ echo "FAIL: want scioto_serve_phases_total from 4 ranks" >&2; cat "$tmp/phases.txt" >&2; exit 1; }
while read -r series phases; do
	[ "$phases" -le 2 ] ||
		{ echo "FAIL: $series = $phases after 8 submissions, want at most 2: the daemon is running a phase per batch" >&2; exit 1; }
done <"$tmp/phases.txt"

# Admission control: a batch larger than -max-pending must get 429.
big=$(python3 - <<'EOF' 2>/dev/null || printf '{"tasks":[%s{"kind":"echo"}]}' "$(for i in $(seq 1 64); do printf '{"kind":"echo"},'; done)"
import json
print(json.dumps({"tasks": [{"kind": "echo"}] * 65}))
EOF
)
code=$(curl -s -o "$tmp/429.json" -w '%{http_code}' "$base/v1/submit" -d "$big")
[ "$code" = "429" ] ||
	{ echo "FAIL: over-limit batch got HTTP $code, want 429" >&2; cat "$tmp/429.json" >&2; exit 1; }
grep -q 'retry_after_ms' "$tmp/429.json" ||
	{ echo "FAIL: 429 body has no retry_after_ms" >&2; exit 1; }

# Graceful drain: SIGTERM, exit 0, drained log line.
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
[ "$rc" -eq 0 ] ||
	{ echo "FAIL: sciotod exited $rc after SIGTERM, want 0" >&2; cat "$tmp/err.log" >&2; exit 1; }
grep -q 'drained' "$tmp/err.log" ||
	{ echo "FAIL: no drain log line" >&2; cat "$tmp/err.log" >&2; exit 1; }

echo "serve smoke: 8 clients x 10 results in one phase + 429 backpressure + clean SIGTERM drain OK (endpoint $addr)"
