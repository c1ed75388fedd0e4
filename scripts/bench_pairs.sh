#!/usr/bin/env bash
# Alternating benchmark pairs: a parent commit against the working tree.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <pairs> [first-seed]
#
# Builds ./benchmark from <parent-rev> (exported with git archive, so no
# network and no registered worktree: the module has no dependencies) and
# from the working tree, then runs <pairs> pairs of untraced 20 s runs on
# consecutive seeds from first-seed (default 1), alternating which side
# goes first. Pick seeds no run used while the change was written. For
# each end-to-end metric of BENCHMARK.json it prints both sides' medians
# and quartiles and the pairs the change won (ties count for neither):
# a claimed gain needs 9 of 10 wins and a gap between the medians wider
# than the parent's interquartile spread.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 <parent-rev> <workload> <pairs> [first-seed]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3 seed=${4:-1}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM

mkdir -p "$tmp/parent/src" "$tmp/change"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent/src"
(cd "$tmp/parent/src" && go build -o "$tmp/parent/bench" ./benchmark)
(cd "$root" && go build -o "$tmp/change/bench" ./benchmark)

# "name better" for each end-to-end metric, in BENCHMARK.json order.
metrics=$(awk '/"end_to_end"/ {on = 1} /"per_layer"/ {on = 0}
	on && /"name"/ {gsub(/[",]/, "", $2); name = $2}
	on && /"better"/ {gsub(/[",]/, "", $2); print name, $2}' "$root/BENCHMARK.json")

# run SIDE SEED: one run from the side's own directory; its metric lines
# go to SIDE.tsv as "seed name value", its failure count to SIDE.failed.
run() {
	local status=0
	(cd "$tmp/$1" && ./bench --workload "$workload" --seed "$2" --seconds 20 --trace 0) >"$tmp/$1/out" || status=$?
	[ "$status" -eq 0 ] || echo "$1 seed $2: exit $status" >&2
	awk -v s="$2" -v names="$metrics" 'BEGIN {n = split(names, w); for (i = 1; i < n; i += 2) want[w[i]] = 1}
		($1 in want) && NF >= 2 {print s, $1, $2}' "$tmp/$1/out" >>"$tmp/$1.tsv"
	tail -n 1 "$tmp/$1/out" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p' >>"$tmp/$1.failed"
}

for ((i = 0; i < pairs; i++)); do
	s=$((seed + i))
	if ((i % 2 == 0)); then run parent "$s"; run change "$s"; else run change "$s"; run parent "$s"; fi
	echo "pair $((i + 1))/$pairs (seed $s) done" >&2
done

# quartiles: q1 median q3 of the numbers on stdin, by the benchmark's own
# rule (Python's statistics.quantiles, exclusive method).
quartiles() {
	sort -g | awk '{v[NR] = $1} END {
		m = NR; if (m == 1) {print v[1], v[1], v[1]; exit}
		for (i = 1; i <= 3; i++) {
			j = int(i * (m + 1) / 4); if (j < 1) j = 1; if (j > m - 1) j = m - 1
			d = i * (m + 1) - j * 4; q[i] = (v[j] * (4 - d) + v[j + 1] * d) / 4
		}
		print q[1], q[2], q[3]}'
}

printf '%s, %s pairs from seed %s: parent %s vs working tree\n' "$workload" "$pairs" "$seed" "$rev"
printf '%-18s %-30s %-30s %s\n' metric "parent median [q1, q3]" "change median [q1, q3]" "change wins, gap > parent IQR"
while read -r name better; do
	read -r p1 p2 p3 < <(awk -v m="$name" '$2 == m {print $3}' "$tmp/parent.tsv" | quartiles)
	read -r c1 c2 c3 < <(awk -v m="$name" '$2 == m {print $3}' "$tmp/change.tsv" | quartiles)
	wins=$(awk -v m="$name" -v b="$better" '$2 != m {next}
		FNR == NR {p[$1] = $3; next}
		($1 in p) {n++; if ((b == "lower" && $3 < p[$1]) || (b == "higher" && $3 > p[$1])) w++}
		END {printf "%d/%d", w, n}' "$tmp/parent.tsv" "$tmp/change.tsv")
	gap=$(awk -v a="$p2" -v b="$c2" -v lo="$p1" -v hi="$p3" 'BEGIN {d = a - b; if (d < 0) d = -d; print (d > hi - lo) ? "yes" : "no"}')
	printf '%-18s %-30s %-30s %s, %s\n' "$name" "$p2 [$p1, $p3]" "$c2 [$c1, $c3]" "$wins" "$gap"
done <<<"$metrics"
sum() { awk '{s += $1} END {print s + 0}' "$1"; }
printf 'failed operations: parent %s, change %s\n' "$(sum "$tmp/parent.failed")" "$(sum "$tmp/change.failed")"
