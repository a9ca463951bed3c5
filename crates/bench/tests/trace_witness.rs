//! The bit-identity witness for the small-world trace: a SHA-256 over
//! every event's fields, each widened to `u64`, for the four traces the
//! out-of-workspace benchmark replays and for E20's quick sweep. A change
//! to how a trace is built or stored may change neither its order nor a
//! single field, so these digests never move and are never re-blessed.
//! SHA-256 rather than the crate's own FNV-style `Trace::digest`, so a
//! fix to that mixer cannot move the witness.

use sww_bench::experiments::workload::E20Config;
use sww_energy::DeviceKind;
use sww_workload::arrival::DiurnalModel;
use sww_workload::session::{ProfileMix, WalkConfig};
use sww_workload::{SiteGraph, SmallWorldConfig, Trace, WorkloadConfig};

/// SHA-256 (hex) over `seq, vtime_ms, user, node, device` of every event,
/// each as a little-endian `u64`; the device is its declaration index.
fn witness(trace: &Trace) -> String {
    let mut bytes = Vec::with_capacity(trace.events().len() * 40);
    for e in trace.events() {
        let device: u64 = match e.device {
            DeviceKind::Laptop => 0,
            DeviceKind::Workstation => 1,
            DeviceKind::Mobile => 2,
        };
        for word in [
            u64::from(e.seq),
            e.vtime_ms,
            u64::from(e.user),
            e.node as u64,
            device,
        ] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    sww_hash::to_hex(&sww_hash::sha256(&bytes))
}

/// The traffic of `benchmark/src/workload.rs`, restated: site seed 20,
/// traffic seed 20, k 8, β 0.02, Zipf 1.1, walk 0.10 / 16, 3 sessions a
/// second, 15 s think time.
fn benchmark_trace(nodes: usize, requests: usize, mix: ProfileMix) -> Trace {
    let graph = SiteGraph::generate(SmallWorldConfig {
        nodes,
        k: 8,
        beta: 0.02,
        seed: 20,
    });
    let cfg = WorkloadConfig {
        graph: graph.config(),
        zipf_exponent: 1.1,
        mix,
        walk: WalkConfig {
            restart: 0.10,
            mean_len: 16.0,
        },
        diurnal: DiurnalModel {
            base_rate: 3.0,
            ..DiurnalModel::default()
        },
        think_mean: 15.0,
        requests,
        seed: 20,
    };
    Trace::generate_on(&cfg, &graph)
}

#[test]
fn the_benchmark_traces_are_bit_identical_to_their_recorded_digests() {
    let mixed = ProfileMix {
        laptop: 0.45,
        workstation: 0.25,
        mobile: 0.30,
    };
    let mobile = ProfileMix {
        laptop: 0.0,
        workstation: 0.0,
        mobile: 1.0,
    };
    let capable = ProfileMix {
        laptop: 0.45,
        workstation: 0.25,
        mobile: 0.0,
    };
    let got = [
        witness(&benchmark_trace(2048, 120_000, mixed)),
        witness(&benchmark_trace(256, 200_000, mobile)),
        witness(&benchmark_trace(2048, 40_000, capable)),
        witness(&benchmark_trace(2048, 20_000, capable)),
    ];
    assert_eq!(
        got,
        [
            "42667d192d9a3948b4f4db68922900f6e372ca73e548e2261cfe6b769a8a2f3d",
            "518add480cd018c84b522855adcdf68a8d4cda8c1d2e88c040ae5473b6bd371c",
            "1c3e14db2efb789b434712842cbaa42c39296afb594e38a97ca8dad6a8f13955",
            "305ed4246d4dd2e7502376a091d4e50693ceeb508b582e047253db762b62ed41",
        ]
    );
}

#[test]
fn the_e20_quick_traces_are_bit_identical_to_their_recorded_digests() {
    let cfg = E20Config::quick();
    let got: Vec<String> = cfg
        .modelled_workloads()
        .iter()
        .map(|wl| witness(&Trace::generate(wl)))
        .collect();
    assert_eq!(
        got,
        [
            "0cc751708724609f323f5494851a9976603e844ffe27ae25ff40931958eb6836",
            "6abbf20cf9e6966568420dcf7de7153c0e33057a5e70f13a81659d6a158c7780",
            "18e5b4e3b70c1f1f785e073020ca88cd0d903d1d1fbc60694d0a6c1e9405df44",
        ]
    );
}
