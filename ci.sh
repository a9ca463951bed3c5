#!/usr/bin/env bash
# CI gate for the sww workspace: the release build, every test in both
# profiles, the source gates, the test floor, lint, doc and format
# checks.
set -euo pipefail
cd "$(dirname "$0")"

# Tier-1's `cargo build --release` is the root package of this build.
echo "==> cargo build --workspace --release"
cargo build --workspace --release

# One rule: every test runs in both profiles, once in each. The debug
# pass holds tier-1's `cargo test -q` (the root package). The release
# pass is the build that `report` and benchmark/ run: optimisation
# changes timing (E19's kill, E17's full batches, the executor's wake
# races, the pool's deadlines) and codegen (the kernels' two
# instantiations, the pixel, draw and header goldens), and a test run
# only in debug cannot see either.
echo "==> cargo test -q --workspace (debug)"
cargo test -q --workspace
echo "==> cargo test -q --workspace --release"
cargo test -q --workspace --release

# Informational: which copy of the wide! kernels this host dispatches to
# (crates/genai/src/lanes.rs), so a green run says which one the goldens
# exercised.
echo "==> wide! kernels: which copy runs here"
cargo test -p sww-genai --lib lanes::tests::host_reports -- --nocapture 2>&1 | grep -o "lanes: .*"

# benchmark/ is a package outside the workspace, so nothing above compiles
# it: an API removal in crates/ could break it silently. The smoke run
# builds it (release, offline) and exits non-zero on a failed oracle or a
# missing metric.
echo "==> benchmark/run.sh --smoke (out-of-workspace benchmark still builds and runs)"
benchmark/run.sh --smoke >/dev/null

# The product code of Rust files, one `file:line:text` per line. A
# column-0 #[cfg(test)] drops the item after it (a test module, or a
# test-only fn, static or thread_local! in mid-file, as in lanes.rs)
# through its closing brace, or through its `;` if it opens none; braces
# in strings, char literals and `//` comments are not counted. The
# source gates and the line count both read this.
product_lines() {
    awk '
        function strip(s) {
            gsub(/"([^"\\]|\\.)*"|\047([^\047\\]|\\.)\047/, "", s)
            sub(/\/\/.*/, "", s)
            return s
        }
        FNR == 1 { skip = 0 }
        skip {
            s = strip($0)
            t = s; depth += gsub(/\{/, "", t)
            t = s; depth -= gsub(/\}/, "", t)
            if (s ~ /\{/) opened = 1
            if (opened ? depth <= 0 : s ~ /;[[:space:]]*$/) skip = 0
            next
        }
        /^#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        { print FILENAME ":" FNR ":" $0 }' "$@"
}

# A source gate: the product lines of FILES that match PATTERN, `//`
# comments aside, must be none. Each gate first reads the probe below,
# where it must flag exactly WANT lines: the product lines between a
# multi-line test-only fn and a test module, each of which hides a
# match, as does a comment.
cat >target/gate-probe.rs <<'EOF'
#[cfg(test)]
fn hidden() {
    let _ = '{';
    std::thread::spawn(|| ());
    sww_obs::counter("x", &[]).inc();
    thread_local! { static T: u8 = 0; }
}
// thread::spawn, sww_obs::render() and thread_local! in a comment
fn spawns() { std::thread::spawn(|| ()); }
use sww_obs::{gauge, Registry};
fn records() { sww_obs::counter("x", &[]).inc(); }
thread_local! { static P: u8 = 0; }
#[cfg(test)]
mod tests { fn t() { std::thread::spawn(|| ()); sww_obs::render(); thread_local! { static T: u8 = 0; } } }
EOF
product_matches() {
    local pattern=$1
    shift
    product_lines "$@" | grep -E "${pattern}" |
        grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' | sed 's/^/    /' || true
}
gate() {
    local what=$1 pattern=$2 want=$3 hits
    shift 3
    if [ "$(product_matches "${pattern}" target/gate-probe.rs | wc -l)" -ne "${want}" ]; then
        echo "FAIL: the gate for ${what} misread its probe: a test-only item, a test module or a comment" >&2
        exit 1
    fi
    hits=$(product_matches "${pattern}" "$@")
    if [ -n "${hits}" ]; then
        echo "FAIL: ${what}:" >&2
        echo "${hits}" >&2
        exit 1
    fi
}

# One place starts threads: the blocking crew in vendor/tokio/src/task.rs;
# only the load generators (bench, workload) may spawn, build or scope a
# thread. sww-core records into its owners' registries only, never the
# process registry (by path or by import). And it keeps no per-thread
# state: what a server, router or site holds is a value its threads share.
echo "==> source gates: threads outside the crew; the process registry and thread_local! in sww-core"
mapfile -d '' PRODUCT_FILES < <(find src crates/*/src -name '*.rs' \
    -not -path 'crates/bench/*' -not -path 'crates/workload/*' -print0)
mapfile -d '' CORE_FILES < <(find crates/core/src -name '*.rs' -print0)
gate "product code starts threads outside the blocking crew" \
    'thread::(spawn|Builder|scope)' 1 "${PRODUCT_FILES[@]}"
gate "sww-core product code records into the process registry" \
    'sww_obs::(\{[^}]*)?\b(counter|gauge|histogram|render)\b|Registry::global' 2 "${CORE_FILES[@]}"
gate "sww-core product code keeps per-thread state" '\bthread_local!' 1 "${CORE_FILES[@]}"

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
# CHANGES.md lists each PR's test deltas.
TEST_FLOOR=987
echo "==> workspace test-count floor (>= ${TEST_FLOOR})"
TEST_COUNT=$(cargo test --workspace -- --list 2>/dev/null | grep -c ": test$")
echo "    ${TEST_COUNT} tests"
if [ "${TEST_COUNT}" -lt "${TEST_FLOOR}" ]; then
    echo "FAIL: workspace test count ${TEST_COUNT} fell below the floor ${TEST_FLOOR}" >&2
    exit 1
fi

# Informational, never gating: the line count simplicity PRs report
# (non-blank, non-comment product lines of each crates/*/src file and of
# the tokio and bytes stubs, cut as product_lines cuts), so nobody
# re-derives it by hand.
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
