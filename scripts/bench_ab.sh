#!/usr/bin/env bash
# A/B run of the repository benchmark: a git revision against the
# working tree, on one workload.
#
#   scripts/bench_ab.sh REV WORKLOAD [PAIRS=10] [SECONDS=20] [FIRST_SEED=1]
#
# Builds the benchmark package (crates/bench/src/bin/benchmark) twice
# from one source path, target/ab/src: first from a `git archive`
# export of REV, then, after emptying that directory, from a copy of
# the working tree's files (`git ls-files -co --exclude-standard`, so
# uncommitted and new files count and ignored ones do not). Each side
# has its own target directory. Cargo's package id for a path
# dependency includes its directory, so building the two sides in two
# directories gives identical source different code layouts; in-cache
# workloads (`sweep_l2`) read up to about 20% apart from that alone
# (EXPERIMENTS.md, "Job-server latency"). At one path, identical source
# gives identical binaries, and the script prints whether the two
# binaries are identical: `scripts/bench_ab.sh HEAD sweep_l2 1 5` on a
# clean tree must report them identical. Both binaries read
# BENCHMARK.json from target/ab/src at run time, which then holds the
# working tree's copy.
#
# Then runs PAIRS alternating pairs of untraced runs
# (`--trace 0 --out`): REV runs first in odd pairs and second in even
# pairs, and both runs of pair k (k = 1..PAIRS) use the seed
# FIRST_SEED + k - 1. Each run's report, stdout and stderr are kept in
# target/ab/runs/WORKLOAD/.
#
# For each side it prints the total failed/attempted operations and the
# counts of the stderr lines that mark a failed operation (`not
# admitted`, `served job ... failed`, `WRONG RESULT`), so a change that
# fails more operations than its parent shows before it is proposed.
# It exits with the status of `--compare` (REV as the parent set), or 1
# if any run exited non-zero. target/ab/src is removed on exit.
#
# Example, the working tree against main on the serving workload:
#
#   scripts/bench_ab.sh main serve_mixed 10 20 101
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
    echo "usage: scripts/bench_ab.sh REV WORKLOAD [PAIRS=10] [SECONDS=20] [FIRST_SEED=1]" >&2
    exit 2
fi
REV=$1
WORKLOAD=$2
PAIRS=${3:-10}
RUN_SECONDS=${4:-20}
FIRST_SEED=${5:-1}

MANIFEST=crates/bench/src/bin/benchmark/Cargo.toml
AB="$PWD/target/ab"
SRC="$AB/src"
RUNS="$AB/runs/$WORKLOAD"
REV_ID=$(git rev-parse --short --verify "$REV^{commit}")

cleanup() {
    rm -rf "$SRC"
}

# fresh_src: empties the shared source path. Extraction below sets
# every mtime to now (`tar -m`), so Cargo never takes a side's earlier
# build for fresh against older-dated source.
fresh_src() {
    rm -rf "$SRC"
    mkdir -p "$SRC"
}

trap cleanup EXIT

echo "==> building the benchmark at $REV ($REV_ID)"
fresh_src
git archive "$REV_ID" | tar -x -m -C "$SRC"
cargo build --release --offline -q --manifest-path "$SRC/$MANIFEST" --target-dir "$AB/target-rev"

echo "==> building the benchmark from the working tree"
fresh_src
git ls-files -z -co --exclude-standard |
    while IFS= read -r -d '' f; do
        # Tracked files deleted from the working tree are not copied.
        if [ -e "$f" ]; then printf '%s\0' "$f"; fi
    done |
    tar --null -T - -cf - | tar -x -m -C "$SRC"
cargo build --release --offline -q --manifest-path "$SRC/$MANIFEST" --target-dir "$AB/target-tree"
REV_BIN="$AB/target-rev/release/benchmark"
TREE_BIN="$AB/target-tree/release/benchmark"
if cmp -s "$REV_BIN" "$TREE_BIN"; then
    echo "==> binaries: identical"
else
    echo "==> binaries: differ"
fi

rm -rf "$RUNS"
mkdir -p "$RUNS"
bad_exit=0

# run SIDE BIN PAIR SEED
run() {
    local side=$1 bin=$2 pair=$3 seed=$4 status=0
    local tag
    tag="$RUNS/$(printf '%s-%02d' "$side" "$pair")"
    "$bin" --workload "$WORKLOAD" --seed "$seed" --seconds "$RUN_SECONDS" --trace 0 \
        --out "$tag.json" >"$tag.out" 2>"$tag.err" || status=$?
    echo "pair $pair seed $seed $side: exit $status"
    if [ "$status" -ne 0 ]; then
        bad_exit=1
    fi
}

for pair in $(seq 1 "$PAIRS"); do
    seed=$((FIRST_SEED + pair - 1))
    if [ $((pair % 2)) -eq 1 ]; then
        run rev "$REV_BIN" "$pair" "$seed"
        run tree "$TREE_BIN" "$pair" "$seed"
    else
        run tree "$TREE_BIN" "$pair" "$seed"
        run rev "$REV_BIN" "$pair" "$seed"
    fi
done

# field NAME FILE: NAME's integer in the result line a run printed last.
field() {
    tail -n 1 "$2" | grep -o "\"$1\":[0-9]*" | cut -d: -f2 || true
}

# count PATTERN SIDE: matching stderr lines over the side's runs.
count() {
    cat "$RUNS/$2"-*.err | grep -c -e "$1" || true
}

for side in rev tree; do
    failed=0
    attempted=0
    for out in "$RUNS/$side"-*.out; do
        failed=$((failed + $(field failed "$out" | grep . || echo 0)))
        attempted=$((attempted + $(field attempted "$out" | grep . || echo 0)))
    done
    echo "$side: failed $failed / attempted $attempted;" \
        "not admitted $(count 'not admitted' "$side")," \
        "served job failed $(count 'served job .* failed' "$side")," \
        "WRONG RESULT $(count 'WRONG RESULT' "$side")"
done

# reports SIDE: the side's report files, comma-separated.
reports() {
    local files=("$RUNS/$1"-*.json)
    local IFS=,
    echo "${files[*]}"
}

status=0
"$TREE_BIN" --compare "$(reports rev)" "$(reports tree)" || status=$?
if [ "$bad_exit" -ne 0 ]; then
    echo "a run exited non-zero; see $RUNS" >&2
    status=1
fi
exit "$status"
