#!/usr/bin/env bash
# bench_compare.sh — regression gate for the checked-in perf artifacts.
#
# Attribution (first, always, hard): runs the deterministic 2-rank dsim
# UTS trace, produces the attribution report with `sciototrace -report`
# and requires it to be identical to the checked-in BENCH_attrib.json.
# dsim runs in virtual time, so the report is bit-reproducible on any
# host: a difference is a real behaviour change (a resource's occupancy
# or the critical path moved), never runner noise, and the diff says
# which resource. Re-record the baseline only with the reason stated.
#
# Serve: re-runs `sciotobench -exp serve -json` and compares the measured
# p95 latency and sustained tasks/s against the checked-in
# BENCH_serve.json baseline, failing when either drifts outside the
# allowed band (SCIOTO_BENCH_BAND, default 0.15 = ±15%). Cells recorded
# as "-" in the baseline are not compared.
#
# Transports: re-runs `sciotobench -exp transports -json` and compares
# the Remote Steal row of BENCH_transport.json per transport. Wall-clock
# latency on a shared runner is far noisier than throughput, so the band
# is wide (SCIOTO_BENCH_TRANSPORT_BAND, default 1.0 = 2x) and the real
# gate is the ordering invariant: the fresh ipc Remote Steal must stay
# strictly below the fresh tcp Remote Steal — the zero-copy transport
# losing its order-of-magnitude edge over sockets fails regardless of
# drift against the baseline.
#
# Machine metadata: every BENCH_*.json carries the producing host's
# GOMAXPROCS/NumCPU/GOOS/GOARCH/go version. When it matches the current
# host every check is hard. When it differs, the comparisons against the
# baseline's absolute numbers (the serve band, the per-transport Remote
# Steal band) are printed as warnings and do not fail the gate —
# cross-machine drift is not a regression signal — while the
# host-independent checks stay hard: both tables have the baseline's
# shape, and ipc Remote Steal < tcp on the fresh run.
#
# Run via `make bench-compare`; CI runs the same target after the
# recovery matrix so a healing-path change that taxes a steady-state hot
# path is caught in the same PR.
set -euo pipefail
cd "$(dirname "$0")/.."

band="${SCIOTO_BENCH_BAND:-0.15}"
tband="${SCIOTO_BENCH_TRANSPORT_BAND:-1.0}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# machine_check FRESH BASELINE — prints "same" or "differs" on stdout,
# with a loud warning on stderr when the artifact was recorded on a
# different machine than the current host.
machine_check() {
	python3 - "$1" "$2" <<'EOF'
import json, sys

fresh_path, base_path = sys.argv[1], sys.argv[2]
with open(fresh_path) as f:
    fresh = json.load(f).get("machine") or {}
with open(base_path) as f:
    base = json.load(f).get("machine") or {}

print("same" if base and base == fresh else "differs")
if not base:
    print(f"WARNING: {base_path} has no machine block; regenerate it with "
          "`sciotobench -json` to record the baseline host", file=sys.stderr)
elif base != fresh:
    diffs = [f"{k}: baseline {base.get(k, '?')} vs here {fresh.get(k, '?')}"
             for k in sorted(set(base) | set(fresh)) if base.get(k) != fresh.get(k)]
    print("=" * 72, file=sys.stderr)
    print(f"WARNING: {base_path} was recorded on a DIFFERENT MACHINE:",
          file=sys.stderr)
    for d in diffs:
        print("  " + d, file=sys.stderr)
    print("  absolute comparisons below only warn; the table shape and the",
          file=sys.stderr)
    print("  ordering invariant still gate. Re-record baselines on this host",
          file=sys.stderr)
    print("  to make the bands binding again.", file=sys.stderr)
    print("=" * 72, file=sys.stderr)
EOF
}

fail=0

go run ./cmd/uts -transport dsim -procs 2 -depth 8 \
	-trace-dir "$tmp/attrib-traces" >/dev/null
go run ./cmd/sciototrace -report -o "$tmp/attrib.json" "$tmp/attrib-traces"
if diff -u BENCH_attrib.json "$tmp/attrib.json" >&2; then
	echo "PASS: dsim attribution report identical to BENCH_attrib.json"
else
	echo "FAIL: dsim attribution report differs from BENCH_attrib.json (diff above):" \
		"virtual time is host-independent, so behaviour changed" >&2
	fail=1
fi

go run ./cmd/sciotobench -exp serve -json >"$tmp/fresh.json"
host=$(machine_check "$tmp/fresh.json" BENCH_serve.json)

python3 - "$tmp/fresh.json" BENCH_serve.json "$band" "$host" <<'EOF' || fail=1
import json, re, sys

fresh_path, base_path, band = sys.argv[1], sys.argv[2], float(sys.argv[3])
same_host = sys.argv[4] == "same"

UNITS = {"ns": 1, "µs": 1e3, "us": 1e3, "ms": 1e6, "s": 1e9}

def value(cell):
    """Parse a table cell to a comparable float (durations in ns), or
    None for unparseable/absent cells."""
    cell = cell.strip()
    if cell in ("", "-"):
        return None
    m = re.fullmatch(r"([0-9.]+)(ns|µs|us|ms|s)", cell)
    if m:
        return float(m.group(1)) * UNITS[m.group(2)]
    try:
        return float(cell)
    except ValueError:
        return None

def rows(doc):
    out = {}
    for table in doc["tables"]:
        if table["ID"] != "serve":
            continue
        cols = table["Columns"]
        for row in table["Rows"]:
            out[row[0]] = dict(zip(cols, row))
    return out

with open(fresh_path) as f:
    fresh = rows(json.load(f))
with open(base_path) as f:
    base = rows(json.load(f))

failures = []  # hard: the fresh table lost a row or a cell the baseline has
drift = []     # outside the band: hard on the baseline's host, a warning elsewhere
checked = 0
for scenario, brow in base.items():
    frow = fresh.get(scenario)
    if frow is None:
        failures.append(f"{scenario}: missing from fresh run")
        continue
    for col in ("p95", "tasks/s"):
        want = value(brow.get(col, "-"))
        if want is None:
            continue
        got = value(frow.get(col, "-"))
        if got is None:
            failures.append(f"{scenario} {col}: baseline {brow[col]} but fresh run has no value")
            continue
        checked += 1
        # Only regressions fail: slower p95 (higher) or lower tasks/s.
        worse = got / want if col == "p95" else want / got
        verdict = "ok" if worse <= 1 + band else "REGRESSION"
        print(f"{scenario} {col}: baseline {brow[col]}, fresh {frow[col]} ({verdict})")
        if worse > 1 + band:
            drift.append(
                f"{scenario} {col}: {frow[col]} vs baseline {brow[col]} "
                f"({(worse - 1) * 100:.1f}% worse, band ±{band * 100:.0f}%)")

if checked == 0:
    failures.append("no comparable cells found: baseline and fresh tables do not overlap")
if drift and not same_host:
    print("WARNING: serve benchmark outside the band of a baseline from another host (not gating):",
          file=sys.stderr)
    for d in drift:
        print("  " + d, file=sys.stderr)
    drift = []
if failures or drift:
    print("FAIL: serve benchmark outside the regression gate:", file=sys.stderr)
    for f in failures + drift:
        print("  " + f, file=sys.stderr)
    sys.exit(1)
print(f"PASS: {checked} cells compared against BENCH_serve.json "
      + (f"within ±{band * 100:.0f}%" if same_host else "for shape; bands not binding on this host"))
EOF

go run ./cmd/sciotobench -exp transports -json >"$tmp/transports.json"
host=$(machine_check "$tmp/transports.json" BENCH_transport.json)

python3 - "$tmp/transports.json" BENCH_transport.json "$tband" "$host" <<'EOF' || fail=1
import json, sys

fresh_path, base_path, band = sys.argv[1], sys.argv[2], float(sys.argv[3])
same_host = sys.argv[4] == "same"

def steal_row(doc):
    """The Remote Steal row of the transports table as {transport: µs}."""
    for table in doc["tables"]:
        if table["ID"] != "transports":
            continue
        cols = table["Columns"]
        for row in table["Rows"]:
            if row[0] == "Remote Steal":
                return {c: float(v) for c, v in zip(cols[1:], row[1:])}
    return None

with open(fresh_path) as f:
    fresh = steal_row(json.load(f))
with open(base_path) as f:
    base = steal_row(json.load(f))

failures = []  # hard: table shape and the ordering invariant
drift = []     # outside the band: hard on the baseline's host, a warning elsewhere
if fresh is None:
    failures.append("fresh run has no transports table with a Remote Steal row")
if base is None:
    failures.append("BENCH_transport.json has no transports table with a Remote Steal row")

if not failures:
    for tr in ("shm", "ipc", "tcp"):
        want, got = base.get(tr), fresh.get(tr)
        if want is None or got is None:
            failures.append(f"Remote Steal {tr}: missing column")
            continue
        worse = got / want
        verdict = "ok" if worse <= 1 + band else "REGRESSION"
        print(f"Remote Steal {tr}: baseline {want:.4f}µs, fresh {got:.4f}µs ({verdict})")
        if worse > 1 + band:
            drift.append(
                f"Remote Steal {tr}: {got:.4f}µs vs baseline {want:.4f}µs "
                f"({(worse - 1) * 100:.0f}% worse, band +{band * 100:.0f}%)")
    # The invariant the artifact exists to guard: the zero-copy ipc
    # transport must beat loopback tcp on the steal path, whatever the
    # host. Both numbers come from the same fresh run, so this check is
    # immune to baseline staleness and runner speed.
    if "ipc" in fresh and "tcp" in fresh and fresh["ipc"] >= fresh["tcp"]:
        failures.append(
            f"ordering inverted: ipc Remote Steal {fresh['ipc']:.4f}µs >= tcp {fresh['tcp']:.4f}µs")

if drift and not same_host:
    print("WARNING: Remote Steal outside the band of a baseline from another host (not gating):",
          file=sys.stderr)
    for d in drift:
        print("  " + d, file=sys.stderr)
    drift = []
if failures or drift:
    print("FAIL: transport benchmark outside the regression gate:", file=sys.stderr)
    for f in failures + drift:
        print("  " + f, file=sys.stderr)
    sys.exit(1)
print("PASS: ipc < tcp holds, Remote Steal "
      + (f"within +{band * 100:.0f}% of BENCH_transport.json" if same_host
         else "compared against BENCH_transport.json for shape; band not binding on this host"))
EOF

exit "$fail"
