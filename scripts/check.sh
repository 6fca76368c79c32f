#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints and rustdoc (warnings are
# errors), and the full workspace test suite — which includes the
# failpoint-driven recovery proofs (corrupt-trace detection, origin
# retry, daemon shard supervision, snapshot ladder, failover routing):
# the failpoints are always compiled in, there is one build. Then the
# substrate and policy suites and the model-based differential harness
# once more with per-request invariant audits compiled in (`--features
# audit`, the workspace's only cargo feature; the test profile already
# builds with overflow-checks), the
# `tracegen` CLI against the golden trace checksums, the golden traces
# once more in the release build, the daemon chaos gate on
# the release binary, `experiments all` against every tracked
# results/*.tsv (in both directions; `fig6_chaos` carries its own calm
# gate), the env-knob census against README's knob table, the dependency
# cut (neither cdnd nor cdn-sim builds tdc; cdnd names neither scip nor
# cdn-policies as a direct dependency), cdn-trace naming no cache type,
# cdn-policies naming no standalone ghost list, the one byte-budget rule (no saturating fit test in the cache, policy
# or SCIP sources), every policy at capacity u64::MAX in the release
# build, and the
# benchmark's serving workloads, whose built-in ledger and tally checks
# gate the daemon end to end. Run from anywhere; always executes at the repo root.
# This is what CI should run on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> knob census: env vars read under crates/*/src and src/ == README knob table"
# Every environment variable a crate reads by literal name must have a
# row in README's knob table, every row must name a variable some crate
# reads, and README's stated count must be the number read. Test-only
# variables (PROPTEST_*, UPDATE_GOLDEN) and CARGO_MANIFEST_DIR are exempt.
exempt='^(PROPTEST_[A-Z_]*|UPDATE_GOLDEN|CARGO_MANIFEST_DIR)$'
read_vars="$(grep -rhoE '(scale_from_env|env::var|var_os)\("[A-Z_][A-Z0-9_]*"' crates/*/src src |
    sed -E 's/.*\("//; s/"$//' | grep -vE "$exempt" | sort -u)"
table_vars="$(sed -n 's/^| `\([A-Z_][A-Z0-9_]*\)` |.*/\1/p' README.md | grep -vE "$exempt" | sort -u)"
if [ "$read_vars" != "$table_vars" ]; then
    echo "FAIL: env vars read under crates/*/src and src/ (<) differ from README's knob table (>):"
    diff <(echo "$read_vars") <(echo "$table_vars") || true
    exit 1
fi
count="$(echo "$read_vars" | wc -l)"
if ! grep -q "^$count environment knobs are read" README.md; then
    echo "FAIL: README must state \"$count environment knobs are read ...\""
    exit 1
fi

echo "==> dependency cut: neither cdnd nor cdn-sim builds tdc; cdnd names no policy crate"
# The TDC deployment study is reached only through the root package's
# experiments; the daemon and the simulator must not compile it.
for p in cdnd cdn-sim; do
    if cargo tree --offline -e normal -p "$p" --prefix none | grep -q '^tdc '; then
        echo "FAIL: \`cargo tree -e normal -p $p\` lists tdc"
        exit 1
    fi
done
# The daemon serves whatever policy its factory builds; only its tests
# name a policy crate (cdn-sim's PolicyKind still builds them all).
direct="$(cargo tree --offline -e normal -p cdnd --depth 1 --prefix none)"
for d in scip cdn-policies; do
    if grep -q "^$d " <<<"$direct"; then
        echo "FAIL: \`cargo tree -e normal -p cdnd --depth 1\` lists $d"
        exit 1
    fi
done

echo "==> cdn-trace replays nothing: its sources and tests name no cache type"
# Labels come from a policy's outcome stream (cdn_trace::label::
# label_outcomes); every replay, the labeling one included, runs a
# cdn-policies policy through cdn-sim's loop. A cache type named under
# cdn-trace is a private replay creeping back.
if grep -rnwE 'LruQueue|MissRatio|CachePolicy' crates/cdn-trace/src crates/cdn-trace/tests; then
    echo "FAIL: crates/cdn-trace names LruQueue, MissRatio or CachePolicy (lines above)"
    exit 1
fi

echo "==> policies remember victims in their queue's index: cdn-policies names no GhostList"
# ARC, LeCaR, 2Q and CACHEUS keep each ghost list as a history of the
# LruQueue it shadows, so one probe classifies a key and each queue has
# one index. GhostList keeps an index of its own; it stays for users with
# no queue to key through (ScipBrain's hosts, tdc's stale store).
if grep -rnwE 'GhostList|GhostEntry' crates/cdn-policies/src; then
    echo "FAIL: crates/cdn-policies/src names GhostList or GhostEntry (lines above)"
    exit 1
fi

echo "==> one byte-budget rule: no saturating fit test in cdn-cache, cdn-policies, scip"
# `used.saturating_add(size) > capacity` never reports a shortfall at
# capacity u64::MAX; every fit test goes through cdn_cache::needs_eviction
# (`size > capacity - used`). Matched per statement, across line breaks.
if grep -rlPz 'saturating_add\([^;{}]*?\)\s*>=?\s*[^;{}]*?(capacity|budget)' \
    crates/cdn-cache/src crates/cdn-policies/src crates/scip/src; then
    echo "FAIL: the files above test fit with saturating_add; use cdn_cache::needs_eviction"
    exit 1
fi

echo "==> cargo clippy (-D warnings, every unsafe block documented)"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::undocumented_unsafe_blocks

echo "==> cargo doc (-D warnings: intra-doc links must resolve)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test"
cargo test --workspace -q

echo "==> junk snapshot files at the top of the epoch range, --release (wrapping arithmetic)"
# Test builds trap an epoch overflow; only a release build would wrap and
# prune the fresh epochs, so the regression test runs there too.
cargo test --release -q -p cdnd --test daemon top_of_range_epoch_files_are_not_fatal

echo "==> every policy at capacity u64::MAX, --release (wrapping arithmetic)"
# Same reason: a test build traps a byte-ledger overflow, a release build
# wraps it and keeps objects whose sizes sum past the capacity.
cargo test --release -q -p cdn-sim --test model_check every_policy_survives_u64_max_capacity

echo "==> cargo clippy --features audit (-D warnings)"
cargo clippy -p cdn-sim --all-targets --features audit -- -D warnings

echo "==> substrate and policy suites --features audit (every ghost-list mutation"
echo "    and every request of ARC, LeCaR, CACHEUS, 2Q audited, histories included)"
cargo test -q -p cdn-cache --features audit
cargo test -q -p cdn-policies --features audit

echo "==> model-based differential harness --features audit (includes the"
echo "    history-keeping LruQueue vs ModelLru + two ModelGhosts)"
cargo test -q -p cdn-sim --features audit --test model_check

echo "==> SCIP over the queue's history rings --features audit (per-request audits)"
cargo test -q -p scip --features audit

echo "==> golden outcome streams --features audit (bit-identical policies)"
cargo test -q -p cdn-sim --features audit --test golden_outcomes

echo "==> sharded-replay exactness --features audit (threaded==serial + goldens)"
cargo test -q -p cdn-sim --features audit --test shard_check

echo "==> default replay path --features audit (pipelined == straight loop, every request hinted)"
cargo test -q -p cdn-sim --features audit --test batched_identity
cargo test -q -p cdn-sim --features audit --lib runner::tests

echo "==> tracegen: in-RAM writer == streamed writer == golden checksum, through the CLI"
# crates/cdn-trace/tests/golden_traces.rs pins the POSIX cksum of these
# exact files as the library writes them; here both CLI paths must
# produce them too. (Not the whole-file CRC-32: every chunk ends in its
# own CRC-32, so that one is the same for every file of a given length.)
# CDN-W's core tables stay in L2; CDN-T's flash-crowd run covers the
# other side of the generator's staged rank resolution.
golden_cksum() {
    sed -n "s/^const $1: u32 = 0x\([0-9a-f_]*\);\$/\1/p" \
        crates/cdn-trace/tests/golden_traces.rs | tr -d _
}
cargo build --release -q -p cdn-sim --bin tracegen
tg="$(mktemp -d)"
for leg in "CDNW_100K_SEED42_FILE_CKSUM cdn-w" "CDNT_FLASH_100K_SEED42_FILE_CKSUM --flash-crowd cdn-t"; do
    read -r name args <<<"$leg"
    # shellcheck disable=SC2086 # $args is a flag list
    target/release/tracegen $args 100000 "$tg/ram.bin" 42 >/dev/null
    # shellcheck disable=SC2086
    target/release/tracegen --stream $args 100000 "$tg/stream.bin" 42 >/dev/null
    cmp "$tg/ram.bin" "$tg/stream.bin"
    want="$(golden_cksum "$name")"
    got="$(printf '%08x' "$(cksum <"$tg/ram.bin" | cut -d' ' -f1)")"
    if [ -z "$want" ] || [ "$got" != "$want" ]; then
        rm -rf "$tg"
        echo "FAIL: tracegen $args 100000 has cksum '$got', golden_traces.rs pins $name = '$want'"
        exit 1
    fi
done
rm -rf "$tg"

echo "==> golden traces in the optimised build (prefetch and staged rank resolution)"
cargo test --release -q -p cdn-trace --test golden_traces

echo "==> cdnd_chaos daemon gate (calm, calm-routed, calm-snap, kill, warm-restart,"
echo "    corruption ladder, flash-crowd x kill-2x failover; exits nonzero on any gate)"
# Twice back to back, regenerating results/cdnd_chaos.tsv: every kill
# schedule is an exact outage list realised by `cdnd::run_outages`, so
# not only the gates but every cell of the table is a function of trace
# and seed. A run that passes once and fails once, or a committed table
# that either run changes, is a bug, not noise.
for _ in 1 2; do
    REPRO_REQUESTS=60000 \
        cargo run --release -q -p cdnd --bin cdnd_chaos
    git diff --quiet -- results/cdnd_chaos.tsv
done

echo "==> experiments all (default scale) rewrites every tracked results/*.tsv"
# Every table is a function of (policy, cache size, trace, seed), so each
# must come out byte-identical to the committed one — except fig9/fig11,
# whose ns/req and TPS columns are wall clock: those two are compared on
# policy, miss ratio and peak MB only. The other direction too: a tracked
# table that no experiment writes is stale (cdnd_chaos.tsv is exempt: the
# daemon gate above rewrites and diffs it). `fig6_chaos` exits nonzero
# unless its calm replay equals the plain path. Outside cargo
# (CARGO_MANIFEST_DIR unset) the binary writes results/ under its cwd, a
# scratch directory.
cargo build --release -q -p scip-repro --bin experiments
root="$PWD"
ex="$(mktemp -d)"
(cd "$ex" && env -u CARGO_MANIFEST_DIR -u REPRO_REQUESTS -u REPRO_SEED \
    "$root/target/release/experiments" all >/dev/null)
for f in "$ex"/results/*.tsv; do
    name="$(basename "$f")"
    case "$name" in
        fig9.tsv | fig11.tsv) cmp <(cut -f1,2,4 "$f") <(cut -f1,2,4 "results/$name") ;;
        *) cmp "$f" "results/$name" ;;
    esac
done
for f in results/*.tsv; do
    name="$(basename "$f")"
    if [ "$name" != cdnd_chaos.tsv ] && [ ! -e "$ex/results/$name" ]; then
        echo "FAIL: tracked $f is not written by \`experiments all\`"
        exit 1
    fi
done
rm -rf "$ex"

# Entry-layout size budgets (hot node <= 32 B etc.) are const-asserted in
# cdn-cache (index.rs/queue.rs), so every build above already
# enforces them; a layout regression fails compilation, not this script.
echo "==> frozen benchmark builds and passes its own tests against this tree"
# benchmark/ compiles against ../crates/* and may not be edited by a PR
# that claims anything on it: an API break must fail here, not in the
# pipeline. (Same target directory as benchmark/run.sh, so the smoke
# below reuses this build.) Cargo rewrites benchmark/Cargo.lock on every
# offline build, run.sh's included: if (and only if) it was clean, put it
# back however the script exits.
git diff --quiet -- benchmark/Cargo.lock && lock=clean || lock=dirty
restore_lock() { [ "$lock" = dirty ] || git checkout -- benchmark/Cargo.lock; }
trap restore_lock EXIT
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir target
cargo test -q --offline --manifest-path benchmark/Cargo.toml --target-dir target

echo "==> out-of-core smoke: streamed peak RSS must undercut the in-RAM replay"
# Two scipbench workloads over the same 4 M-request CDN-W trace, each in
# its own process (VmHWM is per-process and monotone): replay_stream
# replays it off disk through the prefetch pipeline, replay_hit holds it
# in RAM. A streamed replay that kept the whole trace resident would show
# up here as rss_stream >= rss_inram.
if [ "$(nproc)" -lt 2 ]; then
    echo "rss smoke: scipbench needs 2 cores, comparison skipped (not fabricated)"
else
    peak_rss_mb() {
        benchmark/run.sh --workload "$1" --seed 42 --seconds 1 --trace 0 |
            tail -n 1 | sed -n 's/.*"peak_rss_mb": {"value": \([0-9.eE+-]*\),.*/\1/p'
    }
    rss_stream="$(peak_rss_mb replay_stream)"
    rss_inram="$(peak_rss_mb replay_hit)"
    if [ -z "$rss_stream" ] || [ -z "$rss_inram" ]; then
        echo "rss smoke: VmHWM unavailable, comparison skipped (not fabricated)"
    else
        echo "rss smoke: streamed $rss_stream MB vs in-RAM $rss_inram MB"
        if awk -v s="$rss_stream" -v r="$rss_inram" 'BEGIN { exit !(s + 0 >= r + 0) }'; then
            echo "FAIL: streamed replay peak RSS not below the in-RAM replay"
            exit 1
        fi
    fi
fi

echo "==> daemon smoke: shard ledger == library replay, client tally == DaemonStats"
# Both serving workloads check their own outputs on every pass: the
# shard's hit/miss/byte ledger against a library replay of the same
# trace, and the client's tally of submit outcomes against the daemon's
# counters. Any mismatch makes scipbench exit nonzero.
if [ "$(nproc)" -lt 2 ]; then
    echo "daemon smoke: scipbench needs 2 cores, skipped (not fabricated)"
else
    for w in serve_saturated serve_paced; do
        benchmark/run.sh --workload "$w" --seed 42 --seconds 1 --trace 0 >/dev/null
    done
fi

echo "==> frozen benchmark untouched (BENCHMARK.json, benchmark/)"
restore_lock
git diff --quiet HEAD -- BENCHMARK.json benchmark/

echo "OK"
