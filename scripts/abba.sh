#!/bin/sh
# ABBA comparison of the repository's benchmark (cmd/bench) between a base
# commit and the working tree, the evidence a performance claim is made on.
#
#   make abba WL=serve_mix                  # BASE=HEAD, PAIRS=5
#   WL=wcycle PAIRS=4 BASE=HEAD~1 sh scripts/abba.sh
#
# BASE is checked out in a git worktree under a temporary directory. Each
# tree then runs `sh cmd/bench/run.sh --workload $WL --seed $SEED --trace
# $TRACE` PAIRS times, in A-B-B-A order: pair i runs the base first when i
# is odd and the working tree first when it is even, so a drift of the
# host's speed falls on both sides alike. The measuring window is the
# benchmark's own default, the same on both sides. Every run builds its
# tree's benchmark before its window opens; a run that fails stops the
# series. The result lines go to scripts/abbasum.go, which prints per metric
# the base -> change medians, the pairs the change won and, for the
# end-to-end metrics, whether the change stays inside BENCHMARK.json's bound.
set -eu
WL=${WL:-serve_mix}
BASE=${BASE:-HEAD}
PAIRS=${PAIRS:-5}
SEED=${SEED:-1}
TRACE=${TRACE:-0}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
base=$tmp/base
cleanup() {
	if [ -d "$base" ]; then
		git -C "$root" worktree remove --force "$base" || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git -C "$root" worktree add --detach --quiet "$base" "$BASE"
echo "abba: $WL, $PAIRS pairs, seed $SEED, trace $TRACE" >&2
echo "abba: A = $(git -C "$base" rev-parse --short HEAD) ($BASE), B = working tree ($root)" >&2

run() { # run <tree> <tag>
	if ! (cd "$1" && sh cmd/bench/run.sh --workload "$WL" --seed "$SEED" \
		--trace "$TRACE" >"$tmp/$2.out" 2>"$tmp/$2.log"); then
		echo "abba: run $2 failed:" >&2
		tail -n 20 "$tmp/$2.log" >&2
		exit 1
	fi
	tail -n 1 "$tmp/$2.out" >"$tmp/$2.json"
	echo "abba: $2 done" >&2
}

i=1
while [ "$i" -le "$PAIRS" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run "$base" "a$i"
		run "$root" "b$i"
	else
		run "$root" "b$i"
		run "$base" "a$i"
	fi
	i=$((i + 1))
done

cd "$root"
go run scripts/abbasum.go BENCHMARK.json "$tmp" "$PAIRS"
