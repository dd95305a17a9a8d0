#!/usr/bin/env bash
# A/B run of the repository benchmark: a git revision against the
# working tree, on one workload.
#
#   scripts/bench_ab.sh REV WORKLOAD [PAIRS=10] [SECONDS=20] [FIRST_SEED=1]
#
# Builds the benchmark package (crates/bench/src/bin/benchmark) at REV
# in a temporary git worktree under target/ab/, and from the working
# tree. Then runs PAIRS alternating pairs of untraced runs
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
# if any run exited non-zero. The worktree is removed on exit.
#
# The two sides build in different directories, and Cargo's package id
# for a path dependency includes its directory, so their code layouts
# differ even for identical source. In-cache workloads (`sweep_l2`) can
# read up to about 20% apart from that alone (EXPERIMENTS.md,
# "Job-server latency").
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
WT="$AB/rev"
RUNS="$AB/runs/$WORKLOAD"

cleanup() {
    git worktree remove --force "$WT" >/dev/null 2>&1 || rm -rf "$WT"
    git worktree prune
}

# A worktree left by an interrupted run would make `worktree add` fail.
cleanup
mkdir -p "$AB"
trap cleanup EXIT
git worktree add --quiet --detach "$WT" "$REV"

echo "==> building the benchmark at $REV ($(git -C "$WT" rev-parse --short HEAD))"
cargo build --release --offline -q --manifest-path "$WT/$MANIFEST" --target-dir "$AB/target-rev"
echo "==> building the benchmark from the working tree"
cargo build --release --offline -q --manifest-path "$MANIFEST" --target-dir "$AB/target-tree"
REV_BIN="$AB/target-rev/release/benchmark"
TREE_BIN="$AB/target-tree/release/benchmark"

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
