#!/usr/bin/env bash
# Hermetic-build verification: the workspace must build, test, and bench
# with zero network access and zero non-workspace crates in the
# dependency graph (DESIGN.md §6).
set -euo pipefail
cd "$(dirname "$0")/.."

WORKSPACE_CRATES="hstencil hstencil-testkit hstencil-core hstencil-serve hstencil-bench hstencil-conformance lx2-isa lx2-sim"

# The gates below change meaning with the host's ISA: the avx512
# conformance variants and bench group register only where avx512f
# exists, and check_bench_json skips width gates whose rows are absent.
# Print what this host has so a log line explains any skip notices.
host_features() {
    local flags have=""
    flags="$(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null || true)"
    for f in avx2 fma avx512f; do
        case " $flags " in
            *" $f "*) have="$have $f" ;;
            *) have="$have !$f" ;;
        esac
    done
    echo "$have"
}
# Which bodies of the temporally-vectorized wavefront family (DESIGN.md
# §15) this host can execute: the scalar body always runs; the avx2 and
# avx512 bodies (and their conformance twins) need the matching flags.
tempvec_variants() {
    local feats="$1" v="scalar"
    case "$feats" in *" avx2"*) case "$feats" in *" fma"*) v="$v avx2" ;; esac ;; esac
    case "$feats" in *" avx512f"*) v="$v avx512" ;; esac
    echo "$v"
}
FEATURES="$(host_features)"
echo "==> host CPU features:$FEATURES"
echo "==> tempvec bodies this host can run: $(tempvec_variants "$FEATURES")"

echo "==> formatting gate"
cargo fmt --check

echo "==> clippy gate (all targets, warnings are errors)"
cargo clippy -q --workspace --offline --all-targets -- -D warnings

echo "==> rustdoc gate (no-deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --offline

echo "==> offline release build"
cargo build --release --workspace --offline

echo "==> offline test suite"
cargo test -q --workspace --offline

echo "==> conformance matrix (fast tier; CONFORMANCE_EXHAUSTIVE=1 widens it)"
# Differential + metamorphic matrix over every registered variant,
# golden lx2-sim traces, fault-injection self-check.
cargo test -q -p hstencil-conformance --offline

echo "==> conformance coverage artifact"
COVERAGE_JSON="$PWD/target/CONFORMANCE.json"
rm -f "$COVERAGE_JSON"
cargo bench -p hstencil-conformance --bench coverage --offline -- "--out=$COVERAGE_JSON"
if [ ! -f "$COVERAGE_JSON" ]; then
    echo "ERROR: coverage run did not produce $COVERAGE_JSON" >&2
    exit 1
fi

echo "==> dependency-graph audit (workspace crates only)"
# Every node in the resolved graph must be one of ours; any external
# crate name here means the hermetic policy was broken.
tree="$(cargo tree --workspace --offline --edges normal,dev,build --prefix none --format '{p}')"
bad="$(echo "$tree" | awk 'NF {print $1}' | sort -u | grep -vxF -e ${WORKSPACE_CRATES// / -e } || true)"
if [ -n "$bad" ]; then
    echo "ERROR: non-workspace crates in the dependency graph:" >&2
    echo "$bad" >&2
    exit 1
fi
echo "    graph contains only: $(echo "$tree" | awk 'NF {print $1}' | sort -u | tr '\n' ' ')"

echo "==> native executor bench (smoke: 1 sample per config)"
# Smoke numbers are meaningless as a baseline, so write them to a
# scratch path: the repo-root BENCH_native.json is the recorded
# wall-clock trajectory and must only be replaced by real (non-smoke)
# runs committed deliberately.
SMOKE_JSON="$PWD/target/BENCH_native.smoke.json"
rm -f "$SMOKE_JSON"
cargo bench -p hstencil-bench --bench native --offline -- --smoke "--out=$SMOKE_JSON"
if [ ! -f "$SMOKE_JSON" ]; then
    echo "ERROR: bench did not produce $SMOKE_JSON" >&2
    exit 1
fi
# Parse the artifact with the testkit JSON reader and check every
# configuration carries median/p10/p90 + throughput fields. The smoke
# gates (temporal 2048² >= 0.91, hybrid 4096² >= 0.4) are deliberately
# loose — one sample on a noisy shared host. The hybrid bound is the
# loosest: its staged non-temporal store path swings with co-tenant
# DRAM traffic (measured 1.36-1.45x on a quiet bus, ~0.75x when
# neighbors saturate it — DESIGN.md §10), so 0.4 only catches the
# catastrophic regression class (e.g. write-combining thrash, ~0.1x).
# The threads gate is equally loose in smoke (4 lanes must merely not
# be catastrophically slower than 1 on one noisy sample) and skips
# automatically on hosts with fewer than 4 cores. The f32 gate asks
# only that one noisy f32 sample not be slower than f64 at the
# in-cache size; it skips with a notice if the artifact has no f32
# rows at 256². The tempvec gate asks only that one noisy 8-sweep
# wavefront sample at 2048² (in the L2/L3 shoulder) not collapse below
# 0.9x of the trapezoid pipeline; it skips with a notice where the
# native2d_tempvec group did not run.
cargo run -q --release --offline -p hstencil-bench --bin check_bench_json -- "$SMOKE_JSON" --gate-temporal=2048:0.91 --gate-hybrid=4096:0.4 --gate-threads=4096:4:0.5 --gate-f32=256:1.0 --gate-tempvec=2048:8:0.9
# The committed baseline must still exist, parse, and keep the recorded
# speedups on the out-of-cache acceptance cases: the temporal fusion
# gate (ISSUE 4 — re-pinned at the ISSUE-6 baseline refresh: the
# recorded ratio is 1.20x on today's quiet DRAM bus vs 1.55x under the
# bus contention the ISSUE-4 baseline was recorded under; the naive
# ping-pong side is the more DRAM-bound of the pair, so the ratio
# tracks bus pressure — verified unchanged-code at both readings), the
# hybrid 8x8 register-tile kernel gate (ISSUE 5, >= 1.10x over
# avx2+fma on single-sweep 4096² star2d5p), and the multi-core scaling
# gate (ISSUE 6, >= 1.6x at 4 threads vs 1 on the same case — strict
# only when the baseline was recorded on a host that actually has
# >= 4 cores; check_bench_json skips it otherwise). The f32 width gate
# (ISSUE 7) holds the recorded in-cache 256² star2d5p f32 throughput
# at >= 1.3x the f64 ratio in the same artifact; it skips with a
# notice on baselines recorded before the dtype axis existed. The
# tempvec gate (ISSUE 10) holds the recorded single-thread 8-sweep
# 4096² star2d5p time-skewed wavefront median at >= 1.05x the
# trapezoid pipeline's on the same point — the acceptance bound for
# temporal vectorization, where each loaded tile is advanced several
# time levels per DRAM round-trip.
if [ ! -f BENCH_native.json ]; then
    echo "ERROR: recorded baseline BENCH_native.json is missing" >&2
    exit 1
fi
cargo run -q --release --offline -p hstencil-bench --bin check_bench_json -- BENCH_native.json --gate-temporal=4096:1.15 --gate-hybrid=4096:1.10 --gate-threads=4096:4:1.6 --gate-f32=256:1.3 --gate-tempvec=4096:8:1.05

echo "==> serve load-generator bench (smoke tier)"
# Seeded open-loop scenario against the job server (ISSUE 8): the smoke
# tier offers a reduced job stream and gates only that every scenario's
# p99 stays under a deliberately loose 2000 ms — on this shared 1-core
# host a single bad scheduling quantum can cost tens of ms, so the
# smoke bound only catches the stall/deadlock regression class. Smoke
# numbers go to a scratch path for the same reason as the native bench:
# the repo-root BENCH_serve.json is the recorded latency baseline.
SERVE_SMOKE_JSON="$PWD/target/BENCH_serve.smoke.json"
rm -f "$SERVE_SMOKE_JSON"
cargo bench -p hstencil-bench --bench serve --offline -- --smoke "--out=$SERVE_SMOKE_JSON"
if [ ! -f "$SERVE_SMOKE_JSON" ]; then
    echo "ERROR: serve bench did not produce $SERVE_SMOKE_JSON" >&2
    exit 1
fi
cargo run -q --release --offline -p hstencil-bench --bin check_bench_json -- "$SERVE_SMOKE_JSON" --gate-latency=2000
# The committed latency baseline must exist, parse, and hold every
# scenario's p99 under 250 ms (recorded worst: ~12 ms for the uniform
# burst on a 1-core host — the 20x headroom absorbs co-tenant noise
# while still catching the real regression class: lost batching,
# executor stalls, or queueing collapse all push p99 past seconds).
if [ ! -f BENCH_serve.json ]; then
    echo "ERROR: recorded latency baseline BENCH_serve.json is missing" >&2
    exit 1
fi
cargo run -q --release --offline -p hstencil-bench --bin check_bench_json -- BENCH_serve.json --gate-latency=250

echo "==> perf diff vs committed baseline (report-only)"
# Smoke samples are too noisy to gate on; this is a human-readable
# trend line. Deliberate baseline refreshes can rerun with
# --fail-on-regression (see scripts/bench_diff.sh).
./scripts/bench_diff.sh BENCH_native.json "$SMOKE_JSON" || true

echo "==> OK: hermetic build verified"
