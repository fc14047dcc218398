#!/usr/bin/env bash
# Records an A/A pair: two sets of runs of the same code, OUT/aa-1 with
# seeds 1..COUNT and OUT/aa-2 with seeds COUNT+1..2*COUNT, every run's
# standard output saved as <set>/<workload>-s<seed>.txt. The sets are
# interleaved run by run, alternating which goes first, so a drift in
# machine speed lands on both alike. Compare them with
#
#	bash benchmark/aa.sh benchmark/results 10
#	bash benchmark/run.sh -compare benchmark/results/aa-1 benchmark/results/aa-2
#
# Run it from the repository root. Each run passes --seconds 20, the
# run_seconds of BENCHMARK.json.
set -euo pipefail

out=$1
count=$2
mkdir -p "$out/aa-1" "$out/aa-2"

record() { # set seed workload
	bash benchmark/run.sh --workload "$3" --seed "$2" --seconds 20 --trace 0 \
		>"$(printf '%s/%s/%s-s%02d.txt' "$out" "$1" "$3" "$2")"
}

for ((i = 1; i <= count; i++)); do
	for w in steady-1m storm-200k lossy-dist-1m networked-100k; do
		if ((i % 2)); then
			record aa-1 "$i" "$w"
			record aa-2 "$((count + i))" "$w"
		else
			record aa-2 "$((count + i))" "$w"
			record aa-1 "$i" "$w"
		fi
	done
done
