#!/usr/bin/env bash
# Per-layer comparison: one traced run of a parent commit against one of
# the working tree.
#
#   scripts/bench_layers.sh <parent-rev> <workload> <seed>
#
# Builds ./benchmark from <parent-rev> (exported with git archive, so no
# network and no registered worktree) and from the working tree, makes
# one --trace 1 run of each on the same seed from its own directory, and
# prints every per-layer metric of BENCHMARK.json for both sides with the
# change's value as a ratio of the parent's. A performance claim shows
# here in which layer its saving appears; the end-to-end verdict is
# bench_pairs.sh's.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 <parent-rev> <workload> <seed>" >&2
	exit 2
fi
rev=$1 workload=$2 seed=$3
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM

mkdir -p "$tmp/parent/src" "$tmp/change"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent/src"
(cd "$tmp/parent/src" && go build -o "$tmp/parent/bench" ./benchmark)
(cd "$root" && go build -o "$tmp/change/bench" ./benchmark)

# "name unit better" for each per-layer metric, in BENCHMARK.json order.
metrics=$(awk '/"per_layer"/ {on = 1}
	on && /"name"/ {gsub(/[",]/, "", $2); name = $2}
	on && /"unit"/ {gsub(/[",]/, "", $2); unit = $2}
	on && /"better"/ {gsub(/[",]/, "", $2); print name, unit, $2}' "$root/BENCHMARK.json")

for side in parent change; do
	status=0
	(cd "$tmp/$side" && ./bench --workload "$workload" --seed "$seed" --seconds 20 --trace 1) >"$tmp/$side/out" || status=$?
	[ "$status" -eq 0 ] || echo "$side: exit $status" >&2
	echo "$side run done" >&2
done

printf '%s, seed %s, traced: parent %s vs working tree\n' "$workload" "$seed" "$rev"
printf '%-32s %16s %16s %8s  %s\n' metric parent change ratio better
while read -r name unit better; do
	p=$(awk -v m="$name" '$1 == m {print $2; exit}' "$tmp/parent/out")
	c=$(awk -v m="$name" '$1 == m {print $2; exit}' "$tmp/change/out")
	ratio=$(awk -v p="${p:-}" -v c="${c:-}" 'BEGIN {if (p == "" || c == "" || p + 0 == 0) print "-"; else printf "%.3f", c / p}')
	printf '%-32s %16s %16s %8s  %s (%s)\n' "$name" "${p:--}" "${c:--}" "$ratio" "$better" "$unit"
done <<<"$metrics"
for side in parent change; do
	printf '%s: %s\n' "$side" "$(grep -E '^attempted ' "$tmp/$side/out" || echo 'no result line')"
	grep -E '^WRONG' "$tmp/$side/out" || true
done
