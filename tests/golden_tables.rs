//! Golden regression tests for the paper tables.
//!
//! The §6 numbers the repo reproduces — Table 1 (model profiles, bench
//! experiment E4) and Table 2 (compression ratios, E8) — are fully
//! deterministic: modelled generation times, procedural generation, and
//! stable float formatting. These tests snapshot the rendered tables
//! under `tests/golden/` so a perf or refactor PR cannot silently shift
//! an evaluation number: any drift is a test failure showing the diff.
//!
//! To intentionally re-bless after a deliberate change:
//!
//! ```text
//! SWW_BLESS=1 cargo test --test golden_tables
//! ```
//!
//! then review and commit the updated snapshots like any other diff.

use std::path::Path;
use sww_bench::experiments::{compression, edge, models, video_cdn, workload};

/// Compare `rendered` against `tests/golden/<name>`, or rewrite the
/// snapshot when `SWW_BLESS=1` is set.
fn assert_matches_golden(name: &str, rendered: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("SWW_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with SWW_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "{name} drifted from its golden snapshot; if the change is \
         intentional, re-bless with SWW_BLESS=1 and commit the diff"
    );
}

/// E4 / paper Table 1: the model-profile table (per-model resolution,
/// steps, modelled latency and energy).
#[test]
fn e4_model_profile_table_matches_golden() {
    let rows = models::table1();
    let rendered = models::table1_table(&rows).render();
    assert_matches_golden("e4_table1.txt", &rendered);
}

/// E8 / paper Table 2: compression ratios per workload page.
#[test]
fn e8_compression_table_matches_golden() {
    let rows = compression::run();
    let rendered = compression::table(&rows).render();
    assert_matches_golden("e8_table2.txt", &rendered);
}

/// E13 / paper §2.2: the CDN deployment table — storage, egress and
/// edge generation energy of three modes over a fixed request trace.
/// Pure arithmetic over the trace, so the table is bit-stable across
/// hosts and build profiles.
#[test]
fn e13_cdn_table_matches_golden() {
    let rendered = video_cdn::cdn_table(&video_cdn::cdn()).render();
    assert_matches_golden("e13_cdn.txt", &rendered);
}

/// E19: the modelled edge-cluster scaling table — ring ownership and the
/// deterministic cost model only, no wall clocks, so it is bit-stable
/// across hosts. Pins both the consistent-hash placement (a ring change
/// silently remapping recipes shows up here) and the hit-rate/throughput
/// scaling story.
#[test]
fn e19_edge_cluster_modelled_table_matches_golden() {
    let cfg = edge::EdgeClusterConfig::default();
    let rendered = edge::modelled_table(&cfg).render();
    assert_matches_golden("e19_edge_cluster.txt", &rendered);
}

/// E20: the modelled small-world workload scorecard — graph metrics,
/// bounded-LRU hit rates, and queueing percentiles are all pure
/// functions of the seed, so the table is bit-stable across hosts. Pins
/// the clustering→hit-rate story the compare gate enforces: a change to
/// the graph generator, the Zipf sampler, the walk, or the SLO model
/// shows up here as a diff.
#[test]
fn e20_workload_scorecard_matches_golden() {
    let cfg = workload::E20Config::quick();
    let rows = workload::modelled_sweep(&cfg);
    let rendered = workload::modelled_table(&cfg, &rows).render();
    assert_matches_golden("e20_workload.txt", &rendered);
}

/// The comparer itself must be deterministic: rendering twice in one
/// process yields identical bytes (guards against accidental map-order
/// or timing dependence sneaking into the table code).
#[test]
fn golden_targets_render_deterministically() {
    assert_eq!(
        models::table1_table(&models::table1()).render(),
        models::table1_table(&models::table1()).render()
    );
    assert_eq!(
        compression::table(&compression::run()).render(),
        compression::table(&compression::run()).render()
    );
    let ecfg = edge::EdgeClusterConfig::default();
    assert_eq!(
        edge::modelled_table(&ecfg).render(),
        edge::modelled_table(&ecfg).render()
    );
    let wcfg = workload::E20Config::quick();
    assert_eq!(
        workload::modelled_table(&wcfg, &workload::modelled_sweep(&wcfg)).render(),
        workload::modelled_table(&wcfg, &workload::modelled_sweep(&wcfg)).render()
    );
}
