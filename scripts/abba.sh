#!/bin/sh
# ABBA comparison of the repository's benchmark (cmd/bench) between a base
# commit and the working tree, the evidence a performance claim is made on.
#
#   make abba WL=serve_mix                  # BASE=HEAD, PAIRS=5
#   WL=wcycle PAIRS=4 BASE=HEAD~1 sh scripts/abba.sh
#   make abba WL=wcycle PAIRS=10 LAYOUT=2   # both code-layout parities
#
# BASE's committed tree is extracted (git archive) into a temporary
# directory; no worktree is registered, so an interrupted run leaves nothing
# in .git. Each tree then runs `sh cmd/bench/run.sh --workload $WL --seed
# $SEED --trace $TRACE` PAIRS times, in A-B-B-A order: pair i runs the base
# first when i is odd and the working tree first when it is even, so a drift
# of the host's speed falls on both sides alike. The measuring window is the
# benchmark's own default, the same on both sides. Every run builds its
# tree's benchmark before its window opens; a run that fails stops the
# series. The result lines go to scripts/abbasum.go, which prints per metric
# the base -> change medians, the base's interquartile range, the pairs the
# change won and, for the end-to-end metrics, whether the change stays
# inside BENCHMARK.json's bound.
#
# LAYOUT=2 measures each side at two code layouts. Both trees are also
# copied into the temporary directory (never into the working tree) with a
# pad generated into internal/geom: a one-instruction function and an init
# that may call it, which the linker keeps, so every function laid out
# after geom moves (Go aligns functions to 32 bytes, so hot loops flip
# between 0 and 32 modulo 64). Pair i then runs A B B' A' when i is odd and
# A' B' B A when it is even (primes: padded), and the summary prints every
# metric at each parity, plus the base against the padded base: the spread
# that layout alone makes. A claim must hold at both parities.
set -eu
WL=${WL:-serve_mix}
BASE=${BASE:-HEAD}
PAIRS=${PAIRS:-5}
SEED=${SEED:-1}
TRACE=${TRACE:-0}
LAYOUT=${LAYOUT:-1}
case $LAYOUT in
1 | 2) ;;
*)
	echo "abba: LAYOUT is 1 or 2, not $LAYOUT" >&2
	exit 2
	;;
esac

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
base=$tmp/base
mkdir "$base"
git -C "$root" archive "$BASE" | tar -x -C "$base"
echo "abba: $WL, $PAIRS pairs, seed $SEED, trace $TRACE, $LAYOUT layout(s)" >&2
echo "abba: A = $(git -C "$root" rev-parse --short "$BASE") ($BASE), B = working tree ($root)" >&2

# pad <tree> <copy>: copy tree, less .git and the benchmark's build
# directory, and generate the layout pad into the copy's internal/geom.
pad() {
	mkdir "$2"
	tar -C "$1" --exclude=./.git --exclude=./.bench_build -cf - . | tar -x -C "$2"
	cat >"$2/internal/geom/zz_layout_pad.go" <<'EOF'
package geom

// layoutPadOn is never set; the compiler cannot tell, so init keeps its
// call and the linker keeps layoutPad.
var layoutPadOn bool

//go:noinline
func layoutPad() {}

func init() {
	if layoutPadOn {
		layoutPad()
	}
}
EOF
}
if [ "$LAYOUT" = 2 ]; then
	pad "$base" "$tmp/base-pad"
	pad "$root" "$tmp/change-pad"
fi

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
		if [ "$LAYOUT" = 2 ]; then
			run "$tmp/change-pad" "pb$i"
			run "$tmp/base-pad" "pa$i"
		fi
	else
		if [ "$LAYOUT" = 2 ]; then
			run "$tmp/base-pad" "pa$i"
			run "$tmp/change-pad" "pb$i"
		fi
		run "$root" "b$i"
		run "$base" "a$i"
	fi
	i=$((i + 1))
done

cd "$root"
go run scripts/abbasum.go BENCHMARK.json "$tmp" "$PAIRS" "$LAYOUT"
