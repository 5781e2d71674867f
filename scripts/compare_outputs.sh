#!/bin/sh
# Run a fixed set of CLI commands with the package of a git revision and
# with the package of this working tree, and require byte-identical results:
# output trees, stdout, stderr and exit codes.  Both sides read this working
# tree's config files, so only the package source differs.  The runs:
#
#   verify    perfbench/configs/sample.ini, 50 paths, the 16 reference seeds
#             k * 1,000,003 of perfbench/workloads.py (verify-1d)
#   simulate  perfbench/configs/simulate-2d.ini, 4 paths, seeds 0, 1,000,003
#             and 2,000,006 (simulate-2d)
#   verify    perfbench/configs/simulate-2d.ini, 3 paths
#   optimize  perfbench/configs/sample.ini, 1 path, seed 4,000,012
#             (optimize-1d)
#   optimize  sample_config.ini, 3 paths
#   converge  sample_config.ini
#   simulate  sample_config.ini, 2,000 paths
#   verify    sample_config.ini, 2,000 paths
#
# At sample_config.ini's low jump rate most of 2,000 paths share their jump
# history with another path, so the march solves each distinct history once
# and hands its states to every path that shares it (scheme._march); the two
# 2,000-path runs are where that sharing is widest.
#
#   usage: scripts/compare_outputs.sh REV
#
# Writes only under a new temporary directory, which it removes when every
# result matches and keeps (printing its path) when one differs.  A change
# that declares an output change fails this check by design, so it is a
# review aid rather than a CI step.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
tmp=$(mktemp -d)
mkdir -p "$tmp/base" "$tmp/base/runs/log" "$tmp/head/runs/log"
git -C "$root" archive "$rev" src | tar -x -C "$tmp/base"

run() {  # run SIDE NAME ARGS...: one CLI run with SIDE's package
    side=$1 name=$2
    shift 2
    src="$tmp/base/src"
    if [ "$side" = head ]; then src="$root/src"; fi
    code=0
    (cd "$tmp/$side/runs" && PYTHONPATH="$src" PYTHONDONTWRITEBYTECODE=1 \
        python -m plaplace_levy.cli "$@" --out "out/$name" \
        > "log/$name.stdout" 2> "log/$name.stderr") || code=$?
    echo "$code" > "$tmp/$side/runs/log/$name.code"
}

configs="$root/perfbench/configs"
for side in base head; do
    for k in 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15; do
        run $side "verify-1d-$k" verify --config "$configs/sample.ini" --paths 50 \
            --seed $((k * 1000003))
    done
    for k in 0 1 2; do
        run $side "simulate-2d-$k" simulate --config "$configs/simulate-2d.ini" --paths 4 \
            --seed $((k * 1000003))
    done
    run $side verify-2d verify --config "$configs/simulate-2d.ini" --paths 3
    run $side optimize-1d optimize --config "$configs/sample.ini" --paths 1 --seed 4000012
    run $side optimize-sample optimize --config "$root/sample_config.ini" --paths 3
    run $side converge-sample converge --config "$root/sample_config.ini"
    run $side simulate-sample-2000 simulate --config "$root/sample_config.ini" --paths 2000
    run $side verify-sample-2000 verify --config "$root/sample_config.ini" --paths 2000
done

runs=$(ls "$tmp/head/runs/log" | grep -c '\.code$')
if diff -r "$tmp/base/runs" "$tmp/head/runs"; then
    echo "$runs runs: output trees, stdout, stderr and exit codes identical to $rev"
    rm -rf "$tmp"
else
    echo "outputs differ from $rev; both sides kept under $tmp" >&2
    exit 1
fi
