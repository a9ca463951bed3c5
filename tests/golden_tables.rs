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
use std::sync::{Mutex, MutexGuard};
use sww_bench::experiments::{compression, edge, kernel, models, transport, video_cdn, workload};
use sww_bench::Table;

/// The acceptance floor on the three modelled headline speedups:
/// the tiled kernel and the batched server at 8 lanes, and h3 over h2.
const SPEEDUP_FLOOR: f64 = 1.5;

/// The sweeps that drive real servers run one at a time: E17's serving
/// rows are exact only while every batch closes full, and a neighbour
/// holding both cores could hold a request past the batch wait.
static HEAVY: Mutex<()> = Mutex::new(());

fn heavy() -> MutexGuard<'static, ()> {
    HEAVY.lock().unwrap_or_else(|e| e.into_inner())
}

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
    let rendered = edge::modelled_table().render();
    assert_matches_golden("e19_edge_cluster.txt", &rendered);
}

/// E20: the modelled small-world workload scorecard — graph metrics,
/// bounded-LRU hit rates, and queueing percentiles are all pure
/// functions of the seed, so the table is bit-stable across hosts. Pins
/// the clustering→hit-rate story `workload::slo_violations` states: a change to
/// the graph generator, the Zipf sampler, the walk, or the SLO model
/// shows up here as a diff.
#[test]
fn e20_workload_scorecard_matches_golden() {
    let cfg = workload::E20Config::quick();
    let rows = workload::modelled_sweep(&cfg);
    let rendered = workload::modelled_table(&cfg, &rows).render();
    assert_matches_golden("e20_workload.txt", &rendered);
}

/// E17: the modelled columns of the tiled-kernel sweep (lanes 1/2/4/8)
/// and of the batched-serving sweep (kernel tiles 1/8), as `report`
/// runs them. Images per modelled device-second come from the cost model,
/// so every cell is exact; the wall columns are `report --exp e17`'s.
#[test]
fn e17_kernel_modelled_rows_match_golden() {
    let _heavy = heavy();
    let raw = kernel::kernel_sweep();
    let served = kernel::serving_sweep();
    let mut t = Table::new(
        "E17 (modelled) — tiled kernel (batch 8, 64x64, 15 steps) and batched \
         serving (8 threads x 4 rounds)",
        &["Sweep", "Lanes", "ModelImg/s", "Speedup", "MeanBatch"],
    );
    for s in &raw {
        t.row([
            "kernel".to_string(),
            s.tiles.to_string(),
            format!("{:.3}", s.modelled_rate),
            format!("{:.3}x", s.speedup),
            "-".to_string(),
        ]);
    }
    for s in &served {
        t.row([
            "serving".to_string(),
            s.kernel_tiles.to_string(),
            format!("{:.3}", s.modelled_rate),
            format!("{:.3}x", s.speedup),
            format!("{:.1}", s.mean_batch),
        ]);
    }
    for (sweep, widest) in [("kernel", raw[3].speedup), ("serving", served[1].speedup)] {
        assert!(
            widest >= SPEEDUP_FLOOR,
            "{sweep}: 8-lane modelled speedup {widest:.3}x under the {SPEEDUP_FLOOR}x floor"
        );
    }
    assert_matches_golden("e17_kernel.txt", &t.render());
}

/// E18: the modelled page rates over h2 and h3 at `report`'s config —
/// `1000/(K·W)` against `1000/W`, exact — and the server's request
/// count behind each.
#[test]
fn e18_transport_modelled_rows_match_golden() {
    let _heavy = heavy();
    let run = transport::run(4);
    let mut t = Table::new(
        "E18 (modelled) — page load by transport (5 pages x 4 recipes, 25 ms per generation)",
        &["Transport", "Modelled pages/s", "Requests"],
    );
    for s in [&run.h2, &run.h3] {
        t.row([
            s.transport.label().to_string(),
            format!("{:.3}", s.modelled_qps),
            s.requests.to_string(),
        ]);
    }
    let speedup = run.modelled_speedup();
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "h3 over h2 modelled {speedup:.3}x under the {SPEEDUP_FLOOR}x floor"
    );
    assert_matches_golden("e18_transport.txt", &t.render());
}

/// E20 at full scale (`E20Config::default()`, a million requests per
/// β): the same scorecard as the quick snapshot above, at the volume
/// `report --exp e20` runs, held to the SLO rules there too.
#[test]
fn e20_workload_full_scale_matches_golden() {
    let _heavy = heavy();
    let cfg = workload::E20Config::default();
    let rows = workload::modelled_sweep(&cfg);
    assert_eq!(workload::slo_violations(&rows), Vec::<String>::new());
    let rendered = workload::modelled_table(&cfg, &rows).render();
    assert_matches_golden("e20_workload_full.txt", &rendered);
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
    assert_eq!(
        edge::modelled_table().render(),
        edge::modelled_table().render()
    );
    let wcfg = workload::E20Config::quick();
    assert_eq!(
        workload::modelled_table(&wcfg, &workload::modelled_sweep(&wcfg)).render(),
        workload::modelled_table(&wcfg, &workload::modelled_sweep(&wcfg)).render()
    );
}
