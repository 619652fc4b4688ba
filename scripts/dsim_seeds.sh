#!/usr/bin/env bash
# dsim_seeds.sh — the uts-dsim64 seed table every virtual-time claim is
# stated with: the repository benchmark's uts-dsim64 workload on seeds 1–10
# with 20-s windows, one row per seed.
#
#   bash scripts/dsim_seeds.sh            # seeds 1–10
#   SEEDS="1 2 3" bash scripts/dsim_seeds.sh
#
# The window's round count is a function of --seconds alone and every row
# is virtual time, so the table is the same on any host: run it on two
# checkouts and compare rows. It only calls benchmark/run.sh.
#
# Run via `make dsim-seeds`.
set -euo pipefail
cd "$(dirname "$0")/.."

# metric NAME: the value of NAME in the run's closing JSON line.
metric() { sed -E "s/.*\"$1\":\{\"value\":([^,}]*).*/\1/" <<<"$line"; }

log=$(mktemp)
trap 'rm -f "$log"' EXIT

printf '%-5s %14s %14s %10s\n' seed tasks_per_s round_p50_ms speedup
for seed in ${SEEDS:-1 2 3 4 5 6 7 8 9 10}; do
	# The run's summary goes to stderr: shown only if the run fails.
	if ! line=$(bash benchmark/run.sh --workload uts-dsim64 --seed "$seed" --seconds 20 --trace 0 2>"$log" | tail -n 1); then
		cat "$log" >&2
		exit 1
	fi
	printf '%-5s %14s %14s %10s\n' "$seed" \
		"$(metric tasks_per_s)" "$(metric round_p50_ms)" "$(metric speedup)"
done
