#!/usr/bin/env bash
# Regenerates every committed output of results/ at the quick profile.
# Output is byte-identical at any worker count, so CI runs this at
# JOBS=1 and JOBS=4 and fails on `git diff --exit-code results/`, which
# prints the rows that moved. A PR that means to move simulated results
# reruns it and commits the diff. Each command's wall time goes to
# stderr (bash 5 or later, for EPOCHREALTIME), so that a change to the
# speed of whole paper artefacts shows in the log of every regeneration.
#
#	bash results/regen.sh          # one worker per CPU, ~85 s on two cores
#	JOBS=1 bash results/regen.sh
set -euo pipefail

cd "$(dirname "$0")/.."
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin" ./cmd/nocsim

run() { # run OUTPUT COMMAND ARGS...
	local out=$1 cmd=$2 t0=$EPOCHREALTIME
	shift 2
	"$bin/nocsim" "$cmd" -profile quick -jobs "${JOBS:-0}" "$@" > "results/$out"
	awk -v t0="$t0" -v t1="$EPOCHREALTIME" -v what="$cmd $*" -v out="$out" \
		'BEGIN { printf "regen: %-16s %-16s %6.1f s\n", what, out, t1 - t0 }' >&2
}

run fig2_tables.txt ctree
run fig5_quick.txt sweep -figure 5
run fig6_quick.txt sweep -figure 6
run fig7_quick.txt sweep -figure 7
run fig8_quick.txt scale
run fig9_quick.txt hotspot
run fig10_quick.txt traces
