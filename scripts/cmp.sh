#!/bin/sh
# Bitwise CLI comparison of eul3d between a base commit and the working
# tree: the check a change to an engine, its constructor, the convergence
# loop, the FAS cycle or full-multigrid initialization is held to.
#
#   make cmp                      # BASE=HEAD
#   BASE=HEAD~1 sh scripts/cmp.sh
#
# BASE's committed tree is extracted (git archive) into a temporary
# directory; no worktree is registered, so an interrupted run leaves nothing
# in .git. Both trees build their eul3d and run the same fixed matrix on the
# 10x6x4 channel: -strategy single|v|w, each with and without -workers 2;
# -nproc 4; -nproc 3, whose processors split unevenly over two or more
# workers; the fault-injected chaos line; -scenario sod -adapt with and
# without -workers 2, and with the residual indicator; a W-cycle after
# -fmg 5; a V-cycle with -contours; and one -checkpoint -> -resume pair.
# Each row compares its -history, -save-solution and checkpoint files and
# its stdout, with the one part that varies run to run masked: the adaptive
# rebuild time. One line per row. Then, on side B alone, each -workers 2
# row's -history and -save-solution are compared with its row's without
# -workers (single, v, w, sod-adapt): the pooled engines are bitwise their
# sequential kinds. The exit status is 1 when any row differs or fails.
set -eu
BASE=${BASE:-HEAD}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/base"
git -C "$root" archive "$BASE" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/a.eul3d" ./cmd/eul3d)
(cd "$root" && go build -o "$tmp/b.eul3d" ./cmd/eul3d)
echo "cmp: A = $(git -C "$root" rev-parse --short "$BASE") ($BASE), B = working tree ($root)"

mesh="-nx 10 -ny 6 -nz 4 -mach 0.675 -alpha 0 -tol 0 -log-every 10"
files="-history h.csv -save-solution w.sol"
chaos="-faults seed=7,drop=2,dup=1,corrupt=1,delay=1,reorder=1,crash=2@12"
status=0

# wrote <side>: the files the current row's run on that side left, on one
# line, besides its raw stdout and stderr.
wrote() { (cd "$tmp/$name/$1" && ls | grep -v -x -e raw.out -e err.log | paste -s -d ' ' -); }

# row <name> <args...>: run both builds, each in its own directory under
# the row, and compare everything the run wrote.
row() {
	name=$1
	shift
	for side in a b; do
		d=$tmp/$name/$side
		mkdir -p "$d"
		if ! (cd "$d" && "$tmp/$side.eul3d" "$@" >>raw.out 2>err.log); then
			echo "$name: FAILED on $side: $(tail -n 1 "$d/err.log")"
			status=1
			return
		fi
		sed -E 's/rebuild [0-9.]+ms/rebuild _ms/' "$d/raw.out" >"$d/stdout"
	done
	files_a=$(wrote a)
	diffs=""
	[ "$files_a" = "$(wrote b)" ] || diffs=" (different files written)"
	for f in $files_a; do
		cmp -s "$tmp/$name/a/$f" "$tmp/$name/b/$f" || diffs="$diffs $f"
	done
	if [ -n "$diffs" ]; then
		echo "$name: DIFFERS:$diffs"
		status=1
	else
		echo "$name: identical ($files_a)"
	fi
}

for s in single v w; do
	row "$s" $mesh -levels 3 -strategy "$s" -cycles 30 $files
	row "$s-workers2" $mesh -levels 3 -strategy "$s" -workers 2 -cycles 30 $files
done
row nproc4 $mesh -levels 2 -strategy w -nproc 4 -cycles 30 $files
row nproc3 $mesh -levels 2 -strategy w -nproc 3 -cycles 30 $files
row chaos $mesh -strategy single -nproc 4 -cycles 30 $chaos -checkpoint run.ckpt -checkpoint-every 10 $files
row sod-adapt -scenario sod -adapt $files
row sod-adapt-workers2 -scenario sod -adapt -workers 2 $files
row sod-adapt-residual -scenario sod -adapt -adapt-indicator residual $files
row w-fmg $mesh -levels 3 -strategy w -fmg 5 -cycles 30 $files
row v-contours $mesh -levels 3 -strategy v -contours -cycles 30 $files

# The resume pair: the second leg resumes, in the same directory, from the
# first leg's checkpoint; both legs' stdout lands in one file.
for side in a b; do
	d=$tmp/resume/$side
	mkdir -p "$d"
	(cd "$d" && "$tmp/$side.eul3d" $mesh -levels 3 -strategy w -cycles 20 \
		-checkpoint leg1.ckpt -checkpoint-every 10 -history leg1.csv >raw.out 2>err.log) ||
		{ echo "resume: FAILED on $side's first leg"; status=1; }
done
row resume $mesh -levels 3 -strategy w -cycles 30 -resume leg1.ckpt $files

# The pooled rows against the sequential ones, on the working tree's build.
for s in single v w sod-adapt; do
	diffs=""
	for f in h.csv w.sol; do
		cmp -s "$tmp/$s/b/$f" "$tmp/$s-workers2/b/$f" || diffs="$diffs $f"
	done
	if [ -n "$diffs" ]; then
		echo "$s-workers2 vs $s on B: DIFFERS:$diffs"
		status=1
	else
		echo "$s-workers2 vs $s on B: identical (h.csv w.sol)"
	fi
done

exit $status
