//! Property tests for the Watts–Strogatz site-graph generator
//! (`sww_workload::graph`) — the structural invariants the E20 workload
//! sweep rests on, checked for *arbitrary* sizes, rewiring
//! probabilities, and seeds rather than the unit tests' hand-picked
//! ones.
//!
//! * **Connectivity**: rewiring never disconnects the site — every page
//!   stays reachable from every other, at any β.
//! * **Edge conservation**: rewiring moves endpoints but never adds or
//!   drops links; the graph keeps exactly `nodes·k/2` edges.
//! * **Lattice regularity**: at β = 0 the generator emits the pure ring
//!   lattice — every node has degree exactly `k` and the clustering
//!   coefficient equals the closed form `3(k−2)/(4(k−1))`.
//! * **Small-world transition**: as β rises the clustering coefficient
//!   strictly falls and the mean shortest path shortens — the
//!   paper's locality knob really is a locality knob.
//! * **Determinism**: equal seeds produce bit-identical graphs and
//!   traces, both within a process and across two independently
//!   spawned processes.

use proptest::prelude::*;
use std::process::Command;
use sww_workload::graph::{SiteGraph, SmallWorldConfig};
use sww_workload::{Trace, WorkloadConfig};

fn graph(nodes: usize, k: usize, beta: f64, seed: u64) -> SiteGraph {
    SiteGraph::generate(SmallWorldConfig {
        nodes,
        k,
        beta,
        seed,
    })
}

/// The workload driven over a probe graph by the determinism checks.
fn probe_workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        graph: SmallWorldConfig {
            nodes: 96,
            k: 8,
            beta: 0.3,
            seed,
        },
        requests: 400,
        seed,
        ..WorkloadConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rewiring_preserves_connectivity_and_edge_count(
        nodes in 24usize..=96,
        k_idx in 0usize..3,
        beta_milli in 0u32..=1000,
        seed in 0u64..=u64::MAX,
    ) {
        let k = [4, 6, 8][k_idx];
        let beta = f64::from(beta_milli) / 1000.0;
        let g = graph(nodes, k, beta, seed);
        prop_assert_eq!(g.len(), nodes);
        prop_assert!(
            g.is_connected(),
            "β={beta:.3} disconnected a {nodes}-node k={k} graph (seed {seed})"
        );
        prop_assert_eq!(g.edge_count(), nodes * k / 2);
    }

    #[test]
    fn the_unrewired_lattice_is_degree_regular(
        nodes in 32usize..=96,
        k_idx in 0usize..3,
        seed in 0u64..=u64::MAX,
    ) {
        let k = [4, 6, 8][k_idx];
        let g = graph(nodes, k, 0.0, seed);
        for (node, degree) in g.degrees().into_iter().enumerate() {
            prop_assert_eq!(degree, k, "node {} of the lattice", node);
        }
        // Ring-lattice closed form: C(0) = 3(k−2) / 4(k−1).
        let expected = 3.0 * (k as f64 - 2.0) / (4.0 * (k as f64 - 1.0));
        let got = g.clustering_coefficient();
        prop_assert!(
            (got - expected).abs() < 1e-9,
            "lattice clustering {got} != closed form {expected} (k={k})"
        );
    }

    #[test]
    fn clustering_falls_and_paths_shorten_as_beta_rises(
        seed in 0u64..=u64::MAX,
    ) {
        let probe = |beta: f64| {
            let g = graph(128, 8, beta, seed);
            (g.clustering_coefficient(), g.mean_path_length())
        };
        let (c_lattice, p_lattice) = probe(0.0);
        let (c_mid, p_mid) = probe(0.2);
        let (c_random, p_random) = probe(1.0);
        prop_assert!(
            c_lattice > c_mid && c_mid > c_random,
            "clustering must strictly fall with β: {c_lattice:.4} / {c_mid:.4} / {c_random:.4}"
        );
        prop_assert!(
            p_lattice > p_mid && p_mid > p_random,
            "paths must shorten with β: {p_lattice:.3} / {p_mid:.3} / {p_random:.3}"
        );
    }

    #[test]
    fn equal_seeds_generate_bit_identical_graphs_and_traces(
        beta_milli in 0u32..=1000,
        seed in 0u64..=u64::MAX,
    ) {
        let beta = f64::from(beta_milli) / 1000.0;
        let a = graph(64, 6, beta, seed);
        let b = graph(64, 6, beta, seed);
        prop_assert_eq!(a.digest(), b.digest());
        for node in 0..a.len() {
            prop_assert_eq!(a.neighbors(node), b.neighbors(node), "node {}", node);
        }
        let cfg = WorkloadConfig {
            graph: a.config(),
            requests: 300,
            seed,
            ..WorkloadConfig::default()
        };
        let ta = Trace::generate(&cfg);
        let tb = Trace::generate(&cfg);
        prop_assert_eq!(ta.digest(), tb.digest());
        prop_assert_eq!(ta.events(), tb.events());
    }
}

/// Seed handed to the out-of-process probe below; when set, this binary
/// prints the digests instead of asserting anything.
const PROBE_ENV: &str = "SWW_SMALLWORLD_PROBE_SEED";

fn probe_line(seed: u64) -> String {
    let cfg = probe_workload(seed);
    let g = cfg.site_graph();
    format!(
        "probe-digest graph={} trace={}",
        g.digest(),
        Trace::generate(&cfg).digest()
    )
}

/// Probe mode: re-invoked by `generation_is_bit_identical_across_processes`
/// in a fresh process. A no-op in a normal test run.
#[test]
fn digest_probe() {
    if let Ok(seed) = std::env::var(PROBE_ENV) {
        println!("{}", probe_line(seed.parse().expect("probe seed")));
    }
}

#[test]
fn generation_is_bit_identical_across_processes() {
    let seed = 1234u64;
    let exe = std::env::current_exe().expect("test binary path");
    let spawn = || {
        let out = Command::new(&exe)
            .args([
                "digest_probe",
                "--exact",
                "--nocapture",
                "--test-threads",
                "1",
            ])
            .env(PROBE_ENV, seed.to_string())
            .output()
            .expect("spawn probe process");
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(out.status.success(), "probe process failed:\n{stdout}");
        // The harness prints its own `test digest_probe ...` prefix on
        // the same line, so locate the marker rather than the line start.
        let at = stdout.find("probe-digest").expect("probe output");
        stdout[at..]
            .lines()
            .next()
            .expect("probe line")
            .trim()
            .to_string()
    };
    let first = spawn();
    let second = spawn();
    assert_eq!(first, second, "two fresh processes disagreed");
    assert_eq!(
        first,
        probe_line(seed),
        "spawned processes disagree with the in-process construction"
    );
}
