//! `report` — regenerates every table and figure of the paper and prints
//! paper-vs-measured values. Run all experiments with no arguments, or a
//! subset with `--exp e2,e4`; an id not in `IDS` exits 2 naming it,
//! before anything runs.
//!
//! E18–E21 judge their outcomes by the rules stated beside them in
//! `sww_bench::experiments` (`transport`, `edge`, `workload`,
//! `resilience`): after every table is printed, one `FAIL:` line per
//! violation on stderr and exit status 1 when there is any.

use sww_bench::experiments::{
    ablations, article, batching, compression, concurrency, edge, energy, fig1, kernel, mobile,
    models, negotiation, resilience, transport, video_cdn, wikimedia, workload,
};

/// Every id `--exp` accepts, in run order.
const IDS: &str =
    "fig1 e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15 e16 e17 e18 e19 e20 e21 ablations";

fn known(id: &str) -> bool {
    IDS.split(' ').any(|known| known == id)
}

fn wants(filter: &Option<Vec<String>>, id: &str) -> bool {
    debug_assert!(known(id), "{id} is missing from IDS");
    match filter {
        None => true,
        Some(list) => list.iter().any(|x| x == id),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let filter: Option<Vec<String>> = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(|x| x.trim().to_lowercase()).collect());
    if let Some(unknown) = filter.iter().flatten().find(|id| !known(id)) {
        eprintln!("unknown experiment {unknown:?} (known: {IDS})");
        std::process::exit(2);
    }

    println!("SWW paper reproduction report — every §6 table/figure plus §2.2/§3.2/§7 claims\n");

    if wants(&filter, "fig1") {
        println!("{}", fig1::render(&fig1::run()));
    }
    if wants(&filter, "e1") {
        let scenarios = tokio::runtime::block_on(negotiation::run());
        println!("{}", negotiation::table(&scenarios).render());
    }
    let mut measured_image_ratio = 157.0;
    if wants(&filter, "e2") {
        eprintln!("[building the 49-image Wikimedia workload ...]");
        let page = sww_workload::landscape_search_page();
        let r = tokio::runtime::block_on(wikimedia::run(&page));
        measured_image_ratio = r.compression_ratio;
        println!("{}", wikimedia::table(&r).render());
    }
    if wants(&filter, "e3") {
        println!("{}", article::table(&article::run()).render());
    }
    if wants(&filter, "e4") {
        println!("{}", models::table1_table(&models::table1()).render());
    }
    if wants(&filter, "e5") {
        println!(
            "{}",
            models::step_sweep_table(&models::step_sweep()).render()
        );
    }
    if wants(&filter, "e6") {
        println!(
            "{}",
            models::size_sweep_table(&models::size_sweep()).render()
        );
    }
    if wants(&filter, "e7") {
        println!(
            "{}",
            models::text_models_table(&models::text_models(40)).render()
        );
    }
    if wants(&filter, "e8") {
        println!("{}", compression::table(&compression::run()).render());
    }
    if wants(&filter, "e9") {
        println!(
            "{}",
            energy::energy_table(&energy::energy_compare()).render()
        );
    }
    if wants(&filter, "e10") {
        println!(
            "{}",
            energy::carbon_table(&energy::carbon(measured_image_ratio)).render()
        );
    }
    if wants(&filter, "e11") {
        println!("{}", video_cdn::video_table(&video_cdn::video()).render());
    }
    if wants(&filter, "e12") {
        println!(
            "{}",
            energy::projection_table(&energy::projection(measured_image_ratio)).render()
        );
    }
    if wants(&filter, "e13") {
        println!("{}", video_cdn::cdn_table(&video_cdn::cdn()).render());
    }
    if wants(&filter, "e14") {
        println!("{}", mobile::table(&mobile::run()).render());
    }
    if wants(&filter, "e15") {
        println!("{}", concurrency::table(&concurrency::run()).render());
    }
    if wants(&filter, "e16") {
        println!("{}", batching::table(&batching::run()).render());
    }
    if wants(&filter, "e17") {
        println!("{}", kernel::kernel_table(&kernel::kernel_sweep()).render());
        println!(
            "{}",
            kernel::serving_table(&kernel::serving_sweep()).render()
        );
    }
    let mut violations = Vec::new();
    if wants(&filter, "e18") {
        let cfg = transport::TransportConfig::default();
        let run = transport::run_with_latency(cfg);
        println!("{}", transport::table(cfg, &run).render());
        println!(
            "modelled h3 speedup: {:.2}x, measured p99 speedup: {:.2}x\n",
            run.modelled_speedup(),
            run.measured_p99_speedup()
        );
        violations.extend(run.violations());
    }
    if wants(&filter, "e19") {
        let samples = edge::run(None);
        println!("{}", edge::table(&samples).render());
        println!("{}", edge::modelled_table().render());
        let chaos = edge::chaos_kill_with_latency();
        println!("{}", edge::chaos_table(&chaos).render());
        violations.extend(edge::sweep_violations(&samples));
        violations.extend(chaos.violations());
    }
    if wants(&filter, "e20") {
        let cfg = workload::E20Config::default();
        let rows = workload::modelled_sweep(&cfg);
        println!("{}", workload::modelled_table(&cfg, &rows).render());
        let live = workload::live_sweep(&cfg, &workload::live_targets(&cfg), None);
        println!("{}", workload::live_table(&cfg, &live).render());
        violations.extend(workload::slo_violations(&cfg, &rows));
        violations.extend(workload::determinism_check(&cfg, &live, None).violations());
    }
    if wants(&filter, "e21") {
        let failover = resilience::failover_sweep();
        println!("{}", resilience::failover_table(&failover).render());
        let partition = resilience::partition_heal();
        println!("{}", resilience::partition_table(&partition).render());
        violations.extend(failover.iter().flat_map(|o| o.violations()));
        violations.extend(partition.violations());
    }
    if wants(&filter, "ablations") {
        let pre = ablations::preload(4);
        let huff = ablations::huffman();
        let up = ablations::upscale_vs_ship();
        println!("{}", ablations::table(&pre, &huff, &up).render());
    }

    // Metrics appendix: the process registry — what the run above
    // recorded below sww-core (generation stages, buffer pools, HTTP/2
    // framing, workload tallies); every server and client the
    // experiments built kept its series in a registry of its own. In
    // Prometheus text form, on stderr, so stdout (the report proper)
    // stays byte-identical whether or not anyone reads the appendix.
    let metrics = sww_obs::render();
    if !metrics.is_empty() {
        eprintln!("\n=== metrics appendix: process registry (see OBSERVABILITY.md) ===\n{metrics}");
    }
    for line in &violations {
        eprintln!("FAIL: {line}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
