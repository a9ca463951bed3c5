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

# sww-bench's unit tests assert what its experiments do under load (E19's
# kill, E20's replay): timing that optimisation changes, so release too.
echo "==> cargo test --release -p sww-bench --lib (experiment unit tests, optimised)"
cargo test --release -p sww-bench --lib -q

echo "==> cargo test --release --test concurrent_engine (engine stress)"
cargo test --release --test concurrent_engine -q

echo "==> cargo test --release --test chaos_resilience (fixed-seed chaos gate)"
cargo test --release --test chaos_resilience -q

echo "==> cargo test --release --test lifecycle (deadline/cancel/overload gate)"
cargo test --release --test lifecycle -q

# The pool is an admission gate, not threads (PR 25): a request runs on
# the thread that asked, and a waiter leaves the queue at its deadline.
# Both profiles: the gate's waits are timing, and timing is what
# optimisation changes.
echo "==> admission gate: workpool unit tests, a queued request leaves at its deadline, hostile deadline headers (debug + release)"
for profile in "" "--release"; do
    cargo test ${profile} -p sww-core --lib -q -- workpool::
    cargo test ${profile} --test lifecycle -q -- a_queued_request_leaves_at_its_deadline \
        hostile_deadline_headers_reach_the_wait_without_a_panic
done

# A node's faults are its own: a server, client or gossip layer draws
# from a stream compiled from the spec it was given, and nothing is
# process-wide. The recorded schedules (two client/server snapshots, the
# pooled == inline statuses) must replay exactly; an armed server leaves
# its neighbour unarmed; gossip.send reaches the gossip layer through its
# cluster's servers; a request without a stream cannot fault; a
# cache.get fault is a counted miss in the engine.
echo "==> owned fault streams: recorded schedules, neighbour isolation, gossip.send, unarmed ctx, cache.get (debug + release)"
for profile in "" "--release"; do
    cargo test ${profile} --test chaos_resilience -q -- chaos_runs_replay_bit_for_bit \
        pooled_and_inline_servers_draw_the_same_faults arming_one_server_leaves_its_neighbour_unarmed \
        gossip_send_faults_drop_probes_and_stop_convergence
    cargo test ${profile} -p sww-core --lib -q -- lifecycle::tests::only_a_ctx_with_a_stream_can_fault \
        engine::tests::a_cache_get_fault_is_a_counted_miss
done

# A node's metrics are its own: every series sww-core records lands in the
# registry of the server, router or client that counted it. The nodes'
# and the router's registries of a seeded cluster run sum to the golden
# recorded when they all shared one process registry; traffic on one
# server moves none of its neighbour's series; a scrape of one cluster
# node shows none of the other's.
echo "==> owned registries: the shared-registry golden, neighbour isolation, per-node scrapes (debug + release)"
for profile in "" "--release"; do
    cargo test ${profile} --test per_node_metrics --test metrics_e2e -q
done

# A count is kept once: the engine, server, fault stream, batcher and edge
# accessors read their owner's registry. The accessor values of a seeded
# cluster and a seeded chaos server, recorded when each kept a tally of
# its own, must still come back; and reading a series must not create it.
echo "==> one tally: recorded accessor values, a snapshot registers nothing (debug + release)"
for profile in "" "--release"; do
    cargo test ${profile} --test per_node_metrics -q -- accessors_read_what_they_read_before_the_tallies_went
    cargo test ${profile} -p sww-workload --lib -q -- scorecard::tests::a_snapshot_registers_nothing
done

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
# page, the engine still asked on every hit, one route for placement and
# counting) and the site's (the index, routing keys, what clones share),
# then its counter and its behaviour under the failpoints from outside
# the crate, in both profiles. The goldens above are what pin the reused
# bytes to the parent's.
echo "==> server::tests, site::tests, --test page_forms (page-form store; debug + release)"
for profile in "" "--release"; do
    cargo test ${profile} -p sww-core --lib -q -- server::tests site::tests
    cargo test ${profile} --test page_forms -q
done
echo "==> cargo test --test metrics_e2e (derived + reused == page requests)"
cargo test --test metrics_e2e -q

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

# The modelled numbers of E4, E8, E13 and E17-E20, exact, recorded at
# the commit before each table's test was added (tests/golden/). Both
# profiles: E17's serving rows are exact only while every batch closes
# full, which is timing; the full-scale E20 rows take ~12 s in debug.
echo "==> cargo test --test golden_tables (modelled tables pinned to recorded snapshots, debug + release)"
cargo test --test golden_tables -q
cargo test --release --test golden_tables -q

# A misspelt option or a malformed value must stop the command (exit 2),
# not run it with the default: `--replicaton 2` used to run without
# replicas and `--threads abc` used to run with 2.
must_exit_2() {
    local status=0
    "$@" >/dev/null 2>&1 || status=$?
    if [ "${status}" -ne 2 ]; then
        echo "FAIL: expected exit 2, got ${status}: $*" >&2
        exit 1
    fi
}
echo "==> sww-cli rejects unknown options and malformed values (exit 2)"
must_exit_2 ./target/release/sww-cli bench-cluster --replicaton 2
must_exit_2 ./target/release/sww-cli bench-cluster --threads abc

# benchmark/ is a package outside the workspace, so nothing above compiles
# it: an API removal in crates/ could break it silently. The smoke run
# builds it (release, offline) and exits non-zero on a failed oracle or a
# missing metric.
echo "==> benchmark/run.sh --smoke (out-of-workspace benchmark still builds and runs)"
benchmark/run.sh --smoke >/dev/null

echo "==> cargo test -p sww-http2 --test proptest_hpack (HPACK property suite)"
cargo test -p sww-http2 --test proptest_hpack -q

# One header path (PR 38): the table-driven Huffman decoder is held to the
# bit-by-bit trie walk it replaced and the static-table index to the scans
# it replaced; seeded edits of valid HPACK and QPACK blocks and of h3
# request and response streams decode or fail without a panic; a QPACK
# section past 1 MiB is an error that ends only its own connection; and
# the HPACK, QPACK and h3 octets of the 2 048-page site still hash to the
# digests recorded before the rewrite. Both profiles: the decoders' bit
# and index arithmetic is what optimisation changes.
echo "==> header path: Huffman table == trie oracle, static index == scans, mutated blocks and streams, the QPACK bound, golden header blocks (debug + release)"
for profile in "" "--release"; do
    cargo test ${profile} -p sww-http2 --lib -q -- hpack::huffman::tests:: hpack::table::tests::
    cargo test ${profile} -p sww-http2 --test proptest_hpack -q -- mutated_blocks_decode_or_fail_without_panicking
    cargo test ${profile} -p sww-http3 --lib -q -- qpack::tests:: \
        frame::tests::a_payload_written_in_place_frames_like_a_copied_one \
        connection::tests::mutated_message_streams_decode_or_fail_without_panicking \
        connection::tests::a_body_split_over_data_frames_is_joined \
        connection::tests::a_control_frame_on_a_request_stream_is_refused \
        server::tests::a_field_section_bomb_ends_its_connection_and_the_next_is_answered
    cargo test ${profile} -p sww-http3 --test proptest_h3 -q -- mutated_qpack_blocks_decode_or_fail_without_panicking
    cargo test ${profile} --test golden_header_blocks -q
done

echo "==> cargo test -p sww-http2 --test stream_table (stream table stays O(in-flight); ids never reused)"
cargo test -p sww-http2 --test stream_table -q

# The executor can be woken (PR 21): a waker ends block_on's wait and
# restarts its backoff, a source without one is still re-polled, and a
# join handle is the source with one. Both profiles: the
# wake races are timing, and timing is what optimisation changes. The h3
# package also holds the handler-thread bound, the 500 on a panic and the
# two wire property suites (proptest_h3, proptest_h3_state). Since PR 23
# handlers run on the stub's blocking crew (spawn_blocking): its contract
# is in executor_wake too, a connection's view of it in the h3 package's
# handler_crew, and the keep-alive beside the crew, where cfg(test)
# shortens it. A finished job wakes its JoinHandle from its seat, and a
# round that a wake started or a join ended is polled again at once: an
# h3 response reaches its client with no timed wait. Only a stream that
# may block takes the crew: h3_crew_split counts which do, and the h3
# package holds that an immediate reply is not held behind a blocking one
# and that its panic answers 500.
echo "==> cargo test --test executor_wake --test h3_crew_split, -p sww-http3, -p tokio (wake contract; a woken or joining round is polled again; h3 completions wake their connection and reach its client in one round; only streams that may block take the crew; <= 64 replies in flight; blocking crew: sequential jobs on one thread, no job behind a running one, clean after a panic, gone after the keep-alive)"
for profile in "" "--release"; do
    cargo test ${profile} --test executor_wake --test h3_crew_split -q
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
# line exactly as a user would run them; exits non-zero when an outcome
# breaks its rule (crates/bench/src/experiments/{edge,resilience}.rs).
# The second run lists the node counts descending: the hit-rate rule
# sorts by node count, so the order must not matter (an older build
# failed it).
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
# non-zero when its rows or its witness break a rule
# (crates/bench/src/experiments/workload.rs). The determinism rule holds
# even under chaos: each server draws faults from a seeded stream of its
# own, so the fault schedule replays per instance.
echo "==> bench-workload --chaos (E20 workload gate)"
./target/release/sww-cli bench-workload --requests 20000 --live-requests 150 \
    --chaos "seed=9,engine.generate=latency:0.5:5" >/dev/null

# The product code of Rust files, one `file:line:text` per line. A file
# is cut where its test module starts — a column-0 #[cfg(test)] whose
# next line opens a `mod`, the attribute included — not at the first
# #[cfg(test)]: a test-only item in the middle of a file (lanes.rs) must
# not hide what follows. The thread gate and the line count both read
# this, and the gate first proves it on a file with such an item.
product_lines() {
    awk '
        FNR == 1 { tests = 0; held = 0 }
        tests { next }
        held && /^(pub(\([a-z]+\))? )?mod / { tests = 1; next }
        held { print FILENAME ":" FNR - 1 ":" attr; held = 0 }
        /^#\[cfg\(test\)\]/ { held = 1; attr = $0; next }
        { print FILENAME ":" FNR ":" $0 }' "$@"
}

# One place starts threads: the blocking crew in vendor/tokio/src/task.rs.
# The non-test code of every crate but the load generators (bench, workload)
# may not spawn, build or scope a thread.
thread_spawners() {
    product_lines "$@" | grep -E 'thread::(spawn|Builder|scope)' |
        grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' | sed 's/^/    /' || true
}
echo "==> thread gate: no thread::spawn / thread::Builder / thread::scope in product code"
mkdir -p target
printf '%s\n' '#[cfg(test)]' 'fn probe() {}' 'fn hidden() { std::thread::spawn(|| ()); }' \
    '#[cfg(test)]' 'mod tests { fn t() { std::thread::spawn(|| ()); } }' >target/thread-gate-probe.rs
if [ "$(thread_spawners target/thread-gate-probe.rs | wc -l)" -ne 1 ]; then
    echo "FAIL: the thread gate missed a spawn after a mid-file #[cfg(test)] or read into a test module" >&2
    exit 1
fi
mapfile -d '' PRODUCT_FILES < <(find src crates/*/src -name '*.rs' \
    -not -path 'crates/bench/*' -not -path 'crates/workload/*' -print0)
SPAWNERS=$(thread_spawners "${PRODUCT_FILES[@]}")
if [ -n "${SPAWNERS}" ]; then
    echo "FAIL: product code starts threads outside the blocking crew:" >&2
    echo "${SPAWNERS}" >&2
    exit 1
fi

# sww-core records into its owners' registries only: its product code may
# not reach the process registry (sww_obs::counter / gauge / histogram /
# render, by path or by import, or Registry::global). Checked first on a
# probe with a mid-file test-only item, an import and a comment.
core_registry_calls() {
    product_lines "$@" |
        grep -E 'sww_obs::(\{[^}]*)?\b(counter|gauge|histogram|render)\b|Registry::global' |
        grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' | sed 's/^/    /' || true
}
echo "==> registry gate: no process-registry call in sww-core product code"
printf '%s\n' '#[cfg(test)]' 'fn probe() {}' 'use sww_obs::{gauge, Registry};' \
    '// sww_obs::render() in a comment' 'fn hidden() { sww_obs::counter("x", &[]).inc(); }' \
    '#[cfg(test)]' 'mod tests { fn t() { sww_obs::render(); } }' >target/registry-gate-probe.rs
if [ "$(core_registry_calls target/registry-gate-probe.rs | wc -l)" -ne 2 ]; then
    echo "FAIL: the registry gate missed a call or an import, or read a comment or a test module" >&2
    exit 1
fi
mapfile -d '' CORE_FILES < <(find crates/core/src -name '*.rs' -print0)
REGISTRY_CALLS=$(core_registry_calls "${CORE_FILES[@]}")
if [ -n "${REGISTRY_CALLS}" ]; then
    echo "FAIL: sww-core product code records into the process registry:" >&2
    echo "${REGISTRY_CALLS}" >&2
    exit 1
fi

# A crate's public surface is what its callers use: in the eight crates
# below every module is private and the root re-exports what callers
# outside the crate name, so rustc's dead_code lint (clippy -D warnings,
# below) reports whatever nothing calls. The only `pub mod` lines left
# are the modules the out-of-workspace benchmark/ names by path. Checked
# first on a copy of a lib.rs with one more `pub mod`.
SURFACE_LIBS=(crates/{core,extras,genai,workload,http2,http3,html,energy}/src/lib.rs)
extra_pub_mods() {
    grep -HE '^[[:space:]]*pub mod ' "$@" |
        grep -vE '^crates/(core/src/lib.rs:pub mod (cache|edge|mediagen)|genai/src/lib.rs:pub mod rng|html/src/lib.rs:pub mod gencontent|http2/src/lib.rs:pub mod (frame|hpack)|http3/src/lib.rs:pub mod (frame|qpack)|workload/src/lib.rs:pub mod (arrival|graph|session));$' |
        sed 's/^/    /' || true
}
echo "==> pub mod gate: in ${#SURFACE_LIBS[@]} crates only the modules benchmark/ names are public"
PROBE_DIR=target/pub-mod-gate-probe
mkdir -p "${PROBE_DIR}/crates/http2/src"
{ cat crates/http2/src/lib.rs; echo 'pub mod client;'; } >"${PROBE_DIR}/crates/http2/src/lib.rs"
if [ "$(cd "${PROBE_DIR}" && extra_pub_mods crates/http2/src/lib.rs | wc -l)" -ne 1 ]; then
    echo "FAIL: the pub mod gate missed an extra pub mod or flagged one benchmark/ names" >&2
    exit 1
fi
EXTRA_PUB_MODS=$(extra_pub_mods "${SURFACE_LIBS[@]}")
if [ -n "${EXTRA_PUB_MODS}" ]; then
    echo "FAIL: a module no out-of-workspace caller names is public (re-export its items at the crate root):" >&2
    echo "${EXTRA_PUB_MODS}" >&2
    exit 1
fi

# Ratchet: the workspace test count must never silently shrink. Raise the
# floor when a PR adds tests; a drop below it means tests were lost.
# (PR 22: 946 - 7 whose subjects were deleted + 2 new; PR 23: + 10, the
# blocking crew's contract and the FIN order; PR 24: + 7, the seat lookup
# and the shared site; PR 25: + 4, the queue deadline, hostile headers,
# pooled == inline faults and each released permit admits a waiter;
# then + 4 for owned fault streams, − 2 whose subjects were deleted;
# then + 6 for owned registries and the h3 reassembly cap, − 2 whose
# subjects were deleted; then + 2 for one tally: the recorded accessors
# and a snapshot that registers nothing; then + 4 for the join waker, the
# woken and joining re-polls and the one-round h3 completion, − 1 whose
# subject was deleted (the h3 reply's drop guard); then + 4 for E13's
# golden and its model's ported unit tests, − 10 whose subjects were
# deleted (the CDN simulator, the renewable knob, negotiate::models_for);
# then + 6 for the h3 placement split: an immediate reply not held behind
# a blocking one, its panic answering 500, and four crew counts; then
# − 10 whose subjects were deleted when the crates' modules went private,
# + 2 for a greased h3 request stream and a peer's RST_STREAM; then
# − 13 whose subject was deleted (BENCH_PR6.json's records, compare and
# gate), + 4 for three modelled goldens and report's unknown --exp id;
# nine rule tests moved from report.rs to the experiments, 9 − 9;
# CHANGES.md names them; then + 16 for the header path: the Huffman
# table against its trie oracle, the static index against the scans,
# mutated HPACK/QPACK blocks and h3 streams, the QPACK bound, in-place
# framing and the golden header blocks; then − 2 whose subjects were
# deleted (Converter::convert_site, Cms::generatable), + 3 for a hex
# signature with a multi-byte character, segment URL aliases and a zero
# segment length; then + 4 for the site split: one route for placement
# and counting, what a site's clones share, the first page keeping a
# shared image name, and a wake that lands between a timed-out wait and
# the next poll.)
TEST_FLOOR=989
echo "==> workspace test-count floor (>= ${TEST_FLOOR})"
TEST_COUNT=$(cargo test --workspace -- --list 2>/dev/null | grep -c ": test$")
echo "    ${TEST_COUNT} tests"
if [ "${TEST_COUNT}" -lt "${TEST_FLOOR}" ]; then
    echo "FAIL: workspace test count ${TEST_COUNT} fell below the floor ${TEST_FLOOR}" >&2
    exit 1
fi

# Informational, never gating: the line count simplicity PRs report
# (non-blank, non-comment product lines of each crates/*/src file and of
# the tokio and bytes stubs, cut as product_lines cuts — an older count
# cut at the first #[cfg(test)] and read low), so nobody re-derives it
# by hand.
echo "==> line count per crate (informational)"
for crate in crates/*/ vendor/tokio/ vendor/bytes/; do
    mapfile -d '' CRATE_FILES < <(find "${crate}src" -name '*.rs' -print0)
    product_lines "${CRATE_FILES[@]}" | awk -v crate="${crate}" '
        { sub(/^[^:]*:[0-9]+:[ \t]*/, ""); if ($0 != "" && $0 !~ /^\/\//) n++ }
        END { printf "    %6d %s\n", n, crate }'
done

echo "==> cargo clippy --workspace --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI green."
