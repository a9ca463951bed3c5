#!/usr/bin/env bash
# CI gate for the sww workspace: tier-1 build+tests, doc and format checks.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release (tier-1)"
cargo build --release

echo "==> cargo test -q (tier-1)"
cargo test -q

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test --release --test concurrent_engine (engine stress)"
cargo test --release --test concurrent_engine -q

echo "==> cargo test --release --test chaos_resilience (fixed-seed chaos gate)"
cargo test --release --test chaos_resilience -q

echo "==> cargo test --release --test lifecycle (deadline/cancel/overload gate)"
cargo test --release --test lifecycle -q

echo "==> cargo test --release --test batch_equivalence (batched == sequential, bit for bit)"
cargo test --release --test batch_equivalence -q

echo "==> cargo test -p sww-genai --test proptest_kernel (tiled kernel bit-identity property suite)"
cargo test -p sww-genai --test proptest_kernel -q

echo "==> cargo test -p sww-genai --test proptest_noise (tabulated fbm == swept rows == hashed fbm, bit for bit)"
cargo test -p sww-genai --test proptest_noise -q
cargo test --release -p sww-genai --test proptest_noise -q

# One definition, two codegens (PR 20): the element-wise kernels are each
# compiled for the baseline and for AVX2 (crates/genai/src/lanes.rs) and a
# unit test beside each runs both and compares bits. Debug and release:
# two codegens of two instantiations. The first line says which copy this
# host dispatches to, so a green run says which one the goldens exercised.
echo "==> wide! kernels: which copy runs here, then baseline == AVX2 bit for bit (lanes, rng, diffusion, field, dct, codec)"
cargo test -p sww-genai --lib lanes::tests::host_reports -- --nocapture 2>&1 | grep -o "lanes: .*"
for profile in "" "--release"; do
    cargo test ${profile} -p sww-genai --lib -q -- lanes:: across_instantiations \
        smooth_field_is_the_per_cell_evaluation forward_is_the_triple_loop
done

# A 10-byte body must be an error, not a 34 GB allocation.
echo "==> cargo test -p sww-genai --lib a_header_promising (hostile SWIM header is Truncated before anything is allocated)"
cargo test -p sww-genai --lib a_header_promising -q

# One definition of a gaussian draw (PR 18): a fill is the scalar draws
# bit for bit; the in-crate ln/cos kernels stay within 2 ULP of std; and
# the first 65 536 draws of seed 42 hash to the recorded digest in both
# profiles, since the point is that optimisation cannot move a draw.
echo "==> cargo test -p sww-genai --test proptest_rng (fill_gaussian == repeated gaussian(), bit for bit)"
cargo test -p sww-genai --test proptest_rng -q
cargo test --release -p sww-genai --test proptest_rng -q
echo "==> cargo test -p sww-genai --lib rng::tests (kernels vs std + the gaussian stream golden)"
cargo test -p sww-genai --lib rng::tests -q
cargo test --release -p sww-genai --lib rng::tests -q

# The only gate that compares pixels *across commits*: every suite above
# compares two paths of one build, and the benchmark's oracle is computed
# by the build under test. Run in both profiles, since arithmetic changed.
# Its last rows are the wide witnesses: 1 030 images in one digest,
# recorded before the draws left libm, and 675 more over one-pixel axes,
# strip edges and partial codec blocks (pixels, bytes, decoded pixels),
# recorded before decode went line by line; the debug run takes ~18 s.
echo "==> cargo test -p sww-genai --test golden_pixels (pixels + encoded bytes pinned to recorded digests)"
cargo test -p sww-genai --test golden_pixels -q
cargo test --release -p sww-genai --test golden_pixels -q

# The same across-commit pin one layer up: what the server serves (naive
# and prompt-form pages, their headers, every /generated/ asset) for a
# fixture site under three server configs, recorded before PR 16.
echo "==> cargo test --test golden_responses (served bytes + headers pinned to recorded digests)"
cargo test --test golden_responses -q
cargo test --release --test golden_responses -q

# A page form is derived once (PR 17): the store's unit tests (derived
# once, reused byte for byte, nothing stored on failure, one form per
# page, the engine still asked on every hit), then its counter and its
# behaviour under the failpoints from outside the crate. The goldens
# above are what pin the reused bytes to the parent's.
echo "==> cargo test -p sww-core --lib server::tests (page-form store)"
cargo test -p sww-core --lib server::tests -q
echo "==> cargo test --test page_forms --test metrics_e2e (derived + reused == page requests; faults store nothing)"
cargo test --test page_forms --test metrics_e2e -q

echo "==> cargo test -p sww-core --lib edge::tests::hints (hint queue bounded by the replica-store budget)"
cargo test -p sww-core --lib edge::tests::hints -q

# A replica is read while its owner lives (PR 24): the seat lookup's unit
# tests, the seats property (pushes land where lookups ask), the sw trace
# on four small-cache nodes and E21's kill, by name. Both profiles: the
# lookup races a kill (chaos_resilience, run in both above), the races
# are timing, and timing is what optimisation changes.
echo "==> replica seats: edge::tests, proptest_ring, edge_cluster by name (debug + release)"
for profile in "" "--release"; do
    cargo test ${profile} -p sww-core --lib -q -- edge::tests::an_evicted edge::tests::a_dead_or_unusable \
        edge::tests::a_revalidation_reaches a_cloned_site_shares
    cargo test ${profile} -p sww-core --test proptest_ring -q pushes_land_on_the_seats
    cargo test ${profile} --test edge_cluster -q -- sw_trace_regenerates_less replicated_owner_kill
done

echo "==> cargo test --release -p sww-genai --test steady_state_alloc (zero-allocation hot path)"
cargo test --release -p sww-genai --test steady_state_alloc -q

echo "==> cargo test --test golden_tables (paper-table regression snapshots)"
cargo test --test golden_tables -q

# Perf gate: run the E17-E21 sweeps, emit the machine-readable report,
# and compare it against the checked-in baseline. Every rule the bench-*
# commands below enforce is a rule over report records, stated once in
# crates/bench/src/report.rs and listed in PERFORMANCE.md ("The rules and
# who evaluates them"): it reads deterministic columns only, so it fails
# on a real regression, never on host noise. bench-pr6 writes the report
# and then judges it by the same rules; its tables and any FAIL lines go
# to target/bench-pr6.log. Re-bless after an intentional change:
#   SWW_BLESS=1 ./ci.sh        (or: ./target/release/sww-cli bench-pr6 --out BENCH_PR6.json)
echo "==> bench-pr6 perf gate (target/BENCH_PR6.json vs checked-in baseline)"
./target/release/sww-cli bench-pr6 --out target/BENCH_PR6.json 2>target/bench-pr6.log ||
    { tail -n 20 target/bench-pr6.log >&2; exit 1; }
if [ "${SWW_BLESS:-0}" = "1" ]; then
    cp target/BENCH_PR6.json BENCH_PR6.json
    echo "    blessed: BENCH_PR6.json updated from this run"
fi
./target/release/sww-cli bench-compare BENCH_PR6.json target/BENCH_PR6.json --tolerance 0.10

# A misspelt option or a malformed value must stop the command (exit 2),
# not run it with the default: `--tolerence 0.5` used to gate at 0.10 and
# `--threads abc` used to run with 2.
must_exit_2() {
    local status=0
    "$@" >/dev/null 2>&1 || status=$?
    if [ "${status}" -ne 2 ]; then
        echo "FAIL: expected exit 2, got ${status}: $*" >&2
        exit 1
    fi
}
echo "==> sww-cli rejects unknown options and malformed values (exit 2)"
must_exit_2 ./target/release/sww-cli bench-compare BENCH_PR6.json target/BENCH_PR6.json --tolerence 0.5
must_exit_2 ./target/release/sww-cli bench-cluster --threads abc

# benchmark/ is a package outside the workspace, so nothing above compiles
# it: an API removal in crates/ could break it silently. The smoke run
# builds it (release, offline) and exits non-zero on a failed oracle or a
# missing metric.
echo "==> benchmark/run.sh --smoke (out-of-workspace benchmark still builds and runs)"
benchmark/run.sh --smoke >/dev/null

echo "==> cargo test -p sww-http2 --test proptest_hpack (HPACK property suite)"
cargo test -p sww-http2 --test proptest_hpack -q

echo "==> cargo test -p sww-http2 --test stream_table (stream table stays O(in-flight); ids never reused)"
cargo test -p sww-http2 --test stream_table -q

# The executor can be woken (PR 21): a waker ends block_on's wait and
# restarts its backoff, a source without one is still re-polled, and the
# h3 completion queue is the first source with one. Both profiles: the
# wake races are timing, and timing is what optimisation changes. The h3
# package also holds the handler-thread bound, the 500 on a panic and the
# two wire property suites (proptest_h3, proptest_h3_state). Since PR 23
# handlers run on the stub's blocking crew (spawn_blocking): its contract
# is in executor_wake too, a connection's view of it in the h3 package's
# handler_crew, and the keep-alive beside the crew, where cfg(test)
# shortens it.
echo "==> cargo test --test executor_wake, -p sww-http3, -p tokio (wake contract; h3 completions wake their connection; <= 64 handlers in flight; blocking crew: threads reused, no job behind a running one, clean after a panic, gone after the keep-alive)"
for profile in "" "--release"; do
    cargo test ${profile} --test executor_wake -q
    cargo test ${profile} -p sww-http3 -q
    cargo test ${profile} -p tokio -q
done

echo "==> cargo test --release --test transport_equivalence (h2 == h3, byte for byte)"
cargo test --release --test transport_equivalence -q

echo "==> cargo test --release --test transport_hol (E18 head-of-line + /metrics reconciliation)"
cargo test --release --test transport_hol -q

# E18 gate: the h2-vs-h3 page-load comparison through the real chaos
# registry, with the latency spec on the command line exactly as a user
# would run it. Exits non-zero if the per-recipe payloads diverge
# between transports.
echo "==> bench-transport --chaos (E18 h2-vs-h3 gate)"
./target/release/sww-cli bench-transport --pages 3 --recipes 4 --gen-latency-ms 20 \
    --chaos "seed=7,engine.generate=latency:1.0:20" >/dev/null

echo "==> cargo test -p sww-core --test proptest_ring (consistent-hash ring property suite)"
cargo test -p sww-core --test proptest_ring -q

echo "==> cargo test -p sww-core --test proptest_lru (shared LRU vs naive reference model)"
cargo test -p sww-core --test proptest_lru -q

echo "==> cargo test -p sww-core --test proptest_gossip (SWIM failure-detector property suite)"
cargo test -p sww-core --test proptest_gossip -q

echo "==> cargo test --release --test edge_cluster (E19/E21 exactly-once + kill/replication battery)"
cargo test --release --test edge_cluster -q

# E19+E21 gate: the edge-cluster sweep, node-kill chaos run, and the
# replication failover + gossip partition scenarios from the command
# line exactly as a user would run them; exits non-zero when their
# records break a report.rs rule. The second run lists the node counts
# descending: the rules sort by node count, so the order must not
# matter (it failed before PR 14).
echo "==> bench-cluster --chaos --replication 2 (E19+E21 edge gate)"
./target/release/sww-cli bench-cluster --nodes 1,2 --threads 2 --requests 5 \
    --replication 2 \
    --chaos "seed=7,engine.generate=latency:1.0:10" >/dev/null
echo "==> bench-cluster --nodes 2,1 (same gate, descending node list)"
./target/release/sww-cli bench-cluster --nodes 2,1 --threads 2 --requests 5 \
    --replication 2 >/dev/null

echo "==> cargo test -p sww-html --test proptest_gencontent (generated-content property suite)"
cargo test -p sww-html --test proptest_gencontent -q

echo "==> cargo test -p sww-workload --test proptest_smallworld (Watts-Strogatz property suite)"
cargo test -p sww-workload --test proptest_smallworld -q

echo "==> cargo test --release --test workload_replay (E20 seeded-replay determinism + /metrics reconciliation)"
cargo test --release --test workload_replay -q

# E20 gate: the small-world workload sweep and live replay from the
# command line exactly as a user would run it, under chaos; exits
# non-zero when its records break a report.rs rule. The determinism
# rule holds even under chaos: each server draws faults from its own
# seeded scope, so the fault schedule replays per instance (the PR 9
# waiver is gone).
echo "==> bench-workload --chaos (E20 workload gate)"
./target/release/sww-cli bench-workload --requests 20000 --live-requests 150 \
    --chaos "seed=9,engine.generate=latency:0.5:5" >/dev/null

# Ratchet: the workspace test count must never silently shrink. Raise the
# floor when a PR adds tests; a drop below it means tests were lost.
# (PR 22: 946 - 7 whose subjects were deleted + 2 new; PR 23: + 10, the
# blocking crew's contract and the FIN order; PR 24: + 7, the seat lookup
# and the shared site; CHANGES.md names them.)
TEST_FLOOR=958
echo "==> workspace test-count floor (>= ${TEST_FLOOR})"
TEST_COUNT=$(cargo test --workspace -- --list 2>/dev/null | grep -c ": test$")
echo "    ${TEST_COUNT} tests"
if [ "${TEST_COUNT}" -lt "${TEST_FLOOR}" ]; then
    echo "FAIL: workspace test count ${TEST_COUNT} fell below the floor ${TEST_FLOOR}" >&2
    exit 1
fi

# Informational, never gating: the line count simplicity PRs report
# (PR 12's method: non-blank, non-comment lines of each crates/*/src file
# up to its first #[cfg(test)]), so nobody re-derives it by hand.
echo "==> PR 12 line count per crate (informational)"
for crate in crates/*/; do
    find "${crate}src" -name '*.rs' -print0 | xargs -0 awk -v crate="${crate}" '
        FNR == 1 { tests = 0 }
        /#\[cfg\(test\)\]/ { tests = 1 }
        !tests { line = $0; sub(/^[ \t]+/, "", line); if (line != "" && line !~ /^\/\//) n++ }
        END { printf "    %6d %s\n", n, crate }' || true
done

echo "==> cargo clippy --workspace --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI green."
