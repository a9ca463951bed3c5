//! E20 — small-world traffic: SLO scorecard vs graph clustering, plus a
//! deterministic-replay gate across transports and the edge tier.
//!
//! The sweep generates one Watts–Strogatz workload per rewiring
//! probability `β` (same nodes, same seed — only the topology changes)
//! and runs the modelled discrete-event simulator over each trace at
//! large request counts. Because clustered graphs keep random-walk
//! sessions inside tight neighbourhoods, a bounded per-node LRU page
//! cache re-serves their revisits: the **cache hit rate must rise
//! monotonically with the clustering coefficient**, and the modelled p99
//! sojourn must stay under the SLO deadline. Both quantities are pure
//! functions of the seed, so `tests/golden_tables.rs` pins them exactly
//! and [`slo_violations`] states both rules — wall-clock columns from
//! the live replays are printed, never compared, as in E17–E19.
//!
//! The live half replays a smaller trace through the real stack three
//! ways — in-process single node, the HTTP/3 framing path, and a
//! consistent-hash edge cluster — and re-runs the single-node target on
//! a fresh server to witness replay determinism: same seed, same trace
//! digest, same response digest, and payloads byte-identical across
//! topologies.

use crate::table::Table;
use sww_core::ChaosSpec;
use sww_workload::arrival::DiurnalModel;
use sww_workload::session::WalkConfig;
use sww_workload::{
    modelled_slo, ModelledSlo, ReplayConfig, ReplayEngine, ReplayOutcome, ReplayTarget,
};
use sww_workload::{SmallWorldConfig, WorkloadConfig};

/// E20 sweep configuration: one workload per `β`, modelled and live
/// request volumes, and the SLO bound the modelled p99 is held under.
#[derive(Debug, Clone)]
pub struct E20Config {
    /// Watts–Strogatz rewiring probabilities to sweep (clustering falls
    /// as `β` rises, so the hit-rate rule reads these back in
    /// clustering-ascending order).
    pub betas: Vec<f64>,
    /// Pages in the site graph.
    pub graph_nodes: usize,
    /// Ring-lattice degree before rewiring.
    pub k: usize,
    /// Zipf popularity exponent.
    pub zipf_exponent: f64,
    /// Random-walk restart probability (PageRank-style teleport).
    pub restart: f64,
    /// Mean pages per session.
    pub mean_session: f64,
    /// Mean session arrivals per virtual second. Sized so the modelled
    /// per-node utilisation stays below one — the p99-vs-deadline rule
    /// reads a stationary queue, not a saturated one.
    pub arrival_rate: f64,
    /// Per-node LRU page-cache capacity in the modelled simulator.
    pub cache_capacity: usize,
    /// Cluster width for the modelled simulator and the live edge replay.
    pub cluster_nodes: usize,
    /// SLO deadline the modelled p99 sojourn must stay under, ms.
    pub deadline_ms: f64,
    /// Requests per `β` in the modelled sweep.
    pub modelled_requests: usize,
    /// Requests in each live replay.
    pub live_requests: usize,
    /// The `β` the live replays run at (the clustered regime).
    pub live_beta: f64,
    /// Client threads for the sync live targets.
    pub threads: usize,
    /// Master seed for graph, popularity, arrivals, and walks.
    pub seed: u64,
}

impl Default for E20Config {
    fn default() -> E20Config {
        E20Config {
            betas: vec![0.02, 0.2, 1.0],
            graph_nodes: 192,
            k: 8,
            zipf_exponent: 1.1,
            restart: 0.10,
            mean_session: 16.0,
            arrival_rate: 3.0,
            cache_capacity: 32,
            cluster_nodes: 4,
            deadline_ms: 2_500.0,
            modelled_requests: 1_000_000,
            live_requests: 600,
            live_beta: 0.02,
            threads: 4,
            seed: 42,
        }
    }
}

impl E20Config {
    /// A small preset for debug-mode tests and the golden snapshot:
    /// same graph and walk shape, far fewer requests.
    pub fn quick() -> E20Config {
        E20Config {
            modelled_requests: 20_000,
            live_requests: 150,
            ..E20Config::default()
        }
    }

    /// The workload config for one `β` at a given request volume. Only
    /// the rewiring probability varies across the sweep — every other
    /// knob (seed included) is shared, so differences between rows are
    /// attributable to topology alone.
    pub fn workload(&self, beta: f64, requests: usize) -> WorkloadConfig {
        WorkloadConfig {
            graph: SmallWorldConfig {
                nodes: self.graph_nodes,
                k: self.k,
                beta,
                seed: self.seed,
            },
            zipf_exponent: self.zipf_exponent,
            walk: WalkConfig {
                restart: self.restart,
                mean_len: self.mean_session,
            },
            diurnal: DiurnalModel {
                base_rate: self.arrival_rate,
                ..DiurnalModel::default()
            },
            requests,
            seed: self.seed,
            ..WorkloadConfig::default()
        }
    }
}

/// One modelled sweep row: the workload at one `β`.
#[derive(Debug, Clone)]
pub struct WorkloadRow {
    /// Rewiring probability.
    pub beta: f64,
    /// Clustering coefficient of the generated graph.
    pub clustering: f64,
    /// Mean shortest-path length of the generated graph.
    pub mean_path: f64,
    /// The modelled SLO numbers for this workload.
    pub slo: ModelledSlo,
}

/// Run the modelled sweep: one row per `β`, each a pure function of the
/// config (these are the golden numbers).
pub fn modelled_sweep(cfg: &E20Config) -> Vec<WorkloadRow> {
    cfg.betas
        .iter()
        .map(|&beta| {
            let wl = cfg.workload(beta, cfg.modelled_requests);
            let graph = wl.site_graph();
            WorkloadRow {
                beta,
                clustering: graph.clustering_coefficient(),
                mean_path: graph.mean_path_length(),
                slo: modelled_slo(&wl, cfg.cluster_nodes, cfg.cache_capacity),
            }
        })
        .collect()
}

/// The E20 rules over the modelled rows. The hit rate strictly
/// increases with graph clustering, read in clustering order whatever
/// order the rows come in: clustered neighbourhoods keep random-walk
/// revisits inside the bounded LRU, and a flat step means the cache
/// stopped converting locality into hits. Every modelled p99 stays
/// under `cfg.deadline_ms`. One line per flat step or late row.
pub fn slo_violations(cfg: &E20Config, rows: &[WorkloadRow]) -> Vec<String> {
    let points = rows
        .iter()
        .map(|r| (r.clustering, r.slo.hit_rate))
        .collect();
    let mut out: Vec<String> = super::flat_steps(points, |c| format!("C {c:.3}"))
        .into_iter()
        .map(|step| {
            format!("smallworld_modelled: hit rate must strictly increase with clustering ({step})")
        })
        .collect();
    for r in rows.iter().filter(|r| r.slo.p99_ms > cfg.deadline_ms) {
        out.push(format!(
            "smallworld_modelled @ C {:.3}: modelled p99 {:.3} ms over the {:.0} ms deadline",
            r.clustering, r.slo.p99_ms, cfg.deadline_ms
        ));
    }
    out
}

/// One live replay outcome, flattened for tables.
#[derive(Debug, Clone)]
pub struct LiveSample {
    /// Target label (`single` / `h2` / `h3` / `edgeN`).
    pub target: String,
    /// Serving nodes behind the target.
    pub nodes: usize,
    /// The raw replay outcome (scorecard + digests).
    pub outcome: ReplayOutcome,
}

/// The live targets E20 replays through, in run order.
pub fn live_targets(cfg: &E20Config) -> Vec<ReplayTarget> {
    vec![
        ReplayTarget::Single,
        ReplayTarget::H3,
        ReplayTarget::Cluster(cfg.cluster_nodes),
    ]
}

fn target_nodes(target: ReplayTarget) -> usize {
    match target {
        ReplayTarget::Cluster(n) => n,
        _ => 1,
    }
}

/// Replay the live trace through each target on a fresh stack whose
/// servers are armed with `chaos`.
pub fn live_sweep(
    cfg: &E20Config,
    targets: &[ReplayTarget],
    chaos: Option<&ChaosSpec>,
) -> Vec<LiveSample> {
    let engine = ReplayEngine::from_config(&cfg.workload(cfg.live_beta, cfg.live_requests));
    targets
        .iter()
        .map(|&target| {
            let rcfg = ReplayConfig {
                target,
                threads: cfg.threads,
                chaos: chaos.cloned(),
            };
            LiveSample {
                target: target.label(),
                nodes: target_nodes(target),
                outcome: engine.run(&rcfg),
            }
        })
        .collect()
}

/// The replay-determinism witness: what two independent runs agreed on.
#[derive(Debug, Clone, Copy)]
pub struct DeterminismOutcome {
    /// Both runs replayed bit-identical traces.
    pub trace_match: bool,
    /// Both runs produced the same `(seq, status, body)` digest.
    pub response_match: bool,
    /// The single-node and edge-cluster payload digests agree — bytes
    /// must not depend on topology.
    pub cross_target_identical: bool,
}

impl DeterminismOutcome {
    /// The E20 determinism rule: replay is a pure function of the seed.
    /// One line per witness that diverged.
    pub fn violations(&self) -> Vec<String> {
        [
            (self.trace_match, "trace digests"),
            (self.response_match, "response digests"),
            (self.cross_target_identical, "cross-topology payloads"),
        ]
        .into_iter()
        .filter(|(held, _)| !held)
        .map(|(_, what)| format!("workload_determinism: {what} diverged"))
        .collect()
    }
}

/// Re-derive the whole pipeline twice — trace generation included — and
/// replay each copy on a fresh single-node stack armed with `chaos`;
/// then compare the single-node payload digest against the edge replay
/// from `live`.
///
/// The response digests are compared unconditionally, chaos or not: each
/// server draws faults from a [`sww_core::FaultStream`] of its own that
/// starts at offset zero, so two independent runs see identical fault
/// schedules and must produce identical `(seq, status, body)` digests.
pub fn determinism_check(
    cfg: &E20Config,
    live: &[LiveSample],
    chaos: Option<&ChaosSpec>,
) -> DeterminismOutcome {
    let wl = cfg.workload(cfg.live_beta, cfg.live_requests);
    let rcfg = ReplayConfig {
        target: ReplayTarget::Single,
        threads: cfg.threads,
        chaos: chaos.cloned(),
    };
    let a = ReplayEngine::from_config(&wl).run(&rcfg);
    let b = ReplayEngine::from_config(&wl).run(&rcfg);
    let single = live.iter().find(|s| s.target == "single");
    let edge = live.iter().find(|s| s.target.starts_with("edge"));
    DeterminismOutcome {
        trace_match: a.trace_digest == b.trace_digest,
        response_match: a.response_digest == b.response_digest,
        cross_target_identical: match (single, edge) {
            (Some(s), Some(e)) => s.outcome.response_digest == e.outcome.response_digest,
            _ => true,
        },
    }
}

/// Render the modelled sweep (the golden surface: every cell is a pure
/// function of the seed).
pub fn modelled_table(cfg: &E20Config, rows: &[WorkloadRow]) -> Table {
    let mut t = Table::new(
        format!(
            "E20 (modelled) — small-world workload ({} pages, k={}, {} reqs/beta, \
             LRU {}/node x {} nodes)",
            cfg.graph_nodes, cfg.k, cfg.modelled_requests, cfg.cache_capacity, cfg.cluster_nodes
        ),
        &[
            "Beta",
            "Clustering",
            "Mean path",
            "Unique pages",
            "Hit rate",
            "Offered qps",
            "p99 ms",
            "Mean ms",
        ],
    );
    for r in rows {
        t.row([
            format!("{:.2}", r.beta),
            format!("{:.4}", r.clustering),
            format!("{:.3}", r.mean_path),
            format!("{}", r.slo.unique_pages),
            format!("{:.4}", r.slo.hit_rate),
            format!("{:.3}", r.slo.offered_qps),
            format!("{:.3}", r.slo.p99_ms),
            format!("{:.3}", r.slo.mean_ms),
        ]);
    }
    t
}

/// Render the live replay scorecards (wall-clock columns — recorded,
/// never golden).
pub fn live_table(cfg: &E20Config, samples: &[LiveSample]) -> Table {
    let mut t = Table::new(
        format!(
            "E20 (live) — trace replay (beta {}, {} reqs, {} threads)",
            cfg.live_beta, cfg.live_requests, cfg.threads
        ),
        &[
            "Target",
            "Nodes",
            "Requests",
            "OK",
            "Shed",
            "504",
            "Err",
            "Retries",
            "Gen",
            "Coalesced",
            "Hit rate",
            "Wall qps",
            "p50 ms",
            "p99 ms",
        ],
    );
    for s in samples {
        let card = &s.outcome.scorecard;
        t.row([
            s.target.clone(),
            format!("{}", s.nodes),
            format!("{}", card.requests),
            format!("{}", card.ok),
            format!("{}", card.shed),
            format!("{}", card.deadline),
            format!("{}", card.errors),
            format!("{}", card.retries),
            format!("{}", s.outcome.generations),
            format!("{}", s.outcome.coalesced),
            format!("{:.3}", s.outcome.hit_rate),
            format!("{:.1}", card.qps()),
            format!("{:.3}", card.p50_ms()),
            format!("{:.3}", card.p99_ms()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::super::alloc_serial;
    use super::*;

    /// Full-size graph (the hit-rate separation needs pages ≫ cache),
    /// small request volume — debug-test speed.
    fn tiny_modelled() -> E20Config {
        E20Config {
            modelled_requests: 4_000,
            ..E20Config::default()
        }
    }

    /// Small graph for the live replays (debug-mode server fetches are
    /// the expensive part; the live rules don't read clustering).
    fn tiny_live() -> E20Config {
        E20Config {
            graph_nodes: 48,
            k: 6,
            live_requests: 90,
            ..E20Config::default()
        }
    }

    /// A modelled row with only the fields the E20 rules read.
    fn row(clustering: f64, hit_rate: f64, p99_ms: f64) -> WorkloadRow {
        WorkloadRow {
            beta: 0.0,
            clustering,
            mean_path: 3.0,
            slo: sww_workload::ModelledSlo {
                requests: 20_000,
                unique_pages: 192,
                hit_rate,
                offered_qps: 48.0,
                p99_ms,
                mean_ms: 60.0,
            },
        }
    }

    #[test]
    fn modelled_sweep_is_deterministic_and_monotone() {
        let cfg = tiny_modelled();
        let a = modelled_sweep(&cfg);
        let b = modelled_sweep(&cfg);
        assert_eq!(a.len(), cfg.betas.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.slo, y.slo, "modelled rows must be pure in the seed");
        }
        // Clustering falls along the sweep (betas ascend), so the hit
        // rate must fall too: the rule reads the rows in clustering order.
        assert_eq!(slo_violations(&cfg, &a), Vec::<String>::new());
        for pair in a.windows(2) {
            assert!(pair[0].clustering > pair[1].clustering);
        }
    }

    /// The live replays and the determinism witness at the default
    /// config, the one `report --exp e20` runs.
    #[test]
    fn live_sweep_and_determinism_pass_the_gates() {
        let _guard = alloc_serial();
        let cfg = E20Config::default();
        let live = live_sweep(&cfg, &live_targets(&cfg), None);
        assert_eq!(live.len(), 3);
        for s in &live {
            assert_eq!(
                s.outcome.scorecard.ok, s.outcome.scorecard.requests,
                "{}: every replayed request must serve",
                s.target
            );
        }
        let det = determinism_check(&cfg, &live, None);
        assert_eq!(det.violations(), Vec::<String>::new(), "{det:?}");
    }

    /// Under chaos, two independent replays must *still* agree on
    /// response digests: each server draws from a fault stream of its
    /// own, at offset zero per instance.
    #[test]
    fn determinism_holds_under_chaos_with_scoped_fault_streams() {
        let _guard = alloc_serial();
        let cfg = tiny_live();
        let spec = ChaosSpec::parse("seed=29,engine.generate=error:0.3").expect("error spec");
        let det = determinism_check(&cfg, &[], Some(&spec));
        assert!(det.trace_match, "{det:?}");
        assert!(
            det.response_match,
            "owned fault streams must replay identically under chaos: {det:?}"
        );
    }

    /// The clustered graph no better than the mid one: the bounded cache
    /// stopped converting locality into hits. The rule reads clustering
    /// order, so the sweep's β order (clustering descending) and its
    /// reverse give the same verdict.
    #[test]
    fn a_flat_hit_rate_step_breaks_the_e20_rule_in_either_order() {
        let cfg = E20Config::default();
        let mut rows = vec![
            row(0.614, 0.744, 1300.0),
            row(0.367, 0.744, 1800.0),
            row(0.034, 0.730, 1990.0),
        ];
        for _ in 0..2 {
            assert_eq!(
                slo_violations(&cfg, &rows),
                [
                    "smallworld_modelled: hit rate must strictly increase with clustering \
                  (C 0.367: 0.744 -> C 0.614: 0.744)"
                ]
            );
            rows.reverse();
        }
        rows[0].slo.hit_rate = 0.780;
        assert_eq!(slo_violations(&cfg, &rows), Vec::<String>::new());
    }

    #[test]
    fn a_p99_over_the_deadline_breaks_the_e20_rule() {
        let cfg = E20Config::default();
        let rows = [
            row(0.614, 0.780, 1300.0),
            row(0.367, 0.744, 1800.0),
            row(0.034, 0.730, cfg.deadline_ms + 0.5),
        ];
        assert_eq!(
            slo_violations(&cfg, &rows),
            ["smallworld_modelled @ C 0.034: modelled p99 2500.500 ms over the 2500 ms deadline"]
        );
    }

    #[test]
    fn broken_witness_bits_break_the_determinism_rule() {
        let det = DeterminismOutcome {
            trace_match: true,
            response_match: false,
            cross_target_identical: false,
        };
        assert_eq!(
            det.violations(),
            [
                "workload_determinism: response digests diverged",
                "workload_determinism: cross-topology payloads diverged",
            ]
        );
    }

    #[test]
    fn tables_render_one_row_per_entry() {
        let cfg = tiny_modelled();
        let rows = modelled_sweep(&cfg);
        assert_eq!(modelled_table(&cfg, &rows).len(), rows.len());
    }

    /// The E20 gate under a spec given as text, the way a command line
    /// gives one: the modelled rows hold the SLO rules and the live
    /// replays on every target, all armed, replay identically.
    #[test]
    fn the_e20_gate_holds_under_a_parsed_chaos_spec() {
        let _guard = alloc_serial();
        let cfg = E20Config {
            modelled_requests: 20_000,
            live_requests: 150,
            ..E20Config::default()
        };
        let spec = ChaosSpec::parse("seed=9,engine.generate=latency:0.5:5").expect("spec");
        let rows = modelled_sweep(&cfg);
        let live = live_sweep(&cfg, &live_targets(&cfg), Some(&spec));
        let mut violations = slo_violations(&cfg, &rows);
        violations.extend(determinism_check(&cfg, &live, Some(&spec)).violations());
        assert_eq!(violations, Vec::<String>::new());
    }
}
