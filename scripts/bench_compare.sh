#!/usr/bin/env bash
# bench_compare.sh — the dsim attribution report must equal the checked-in
# BENCH_attrib.json.
#
# Runs the deterministic 2-rank dsim UTS trace, produces the attribution
# report with `sciototrace -report` and diffs it against the artifact.
# dsim runs in virtual time, so the report is bit-reproducible on any
# host: a difference is a real behaviour change (a resource's occupancy
# or the critical path moved), never runner noise, and the diff says
# which resource. Re-record the baseline only with the reason stated.
#
# Wall-clock performance is not judged here: the repository benchmark
# (BENCHMARK.json, benchmark/) measures it end to end and layer by layer.
#
# Run via `make bench-compare`; CI runs the same target.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go run ./cmd/uts -transport dsim -procs 2 -depth 8 \
	-trace-dir "$tmp/traces" >/dev/null
go run ./cmd/sciototrace -report -o "$tmp/attrib.json" "$tmp/traces"
if ! diff -u BENCH_attrib.json "$tmp/attrib.json" >&2; then
	echo "FAIL: dsim attribution report differs from BENCH_attrib.json (diff above):" \
		"virtual time is host-independent, so behaviour changed" >&2
	exit 1
fi
echo "PASS: dsim attribution report identical to BENCH_attrib.json"
