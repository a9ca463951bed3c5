//! `report` — regenerates every table and figure of the paper and prints
//! paper-vs-measured values. Run all experiments with no arguments, or a
//! subset with `--exp e2,e4`; an id not in `IDS` exits 2 naming it,
//! before anything runs.

use sww_bench::experiments::{
    ablations, article, batching, compression, concurrency, energy, fig1, kernel, mobile, models,
    negotiation, video_cdn, wikimedia,
};

/// Every id `--exp` accepts, in run order.
const IDS: &str = "fig1 e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15 e16 e17 ablations";

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

    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .enable_all()
        .build()
        .expect("tokio runtime");

    println!("SWW paper reproduction report — every §6 table/figure plus §2.2/§3.2/§7 claims\n");

    if wants(&filter, "fig1") {
        println!("{}", fig1::render(&fig1::run()));
    }
    if wants(&filter, "e1") {
        let scenarios = rt.block_on(negotiation::run());
        println!("{}", negotiation::table(&scenarios).render());
    }
    let mut measured_image_ratio = 157.0;
    if wants(&filter, "e2") {
        eprintln!("[building the 49-image Wikimedia workload ...]");
        let page = sww_workload::landscape_search_page();
        let r = rt.block_on(wikimedia::run(&page));
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
        let cfg = concurrency::ConcurrencyConfig::default();
        let samples = concurrency::run(cfg, &[0, 1, 2, 4, 8], None);
        println!("{}", concurrency::table(cfg, &samples).render());
    }
    if wants(&filter, "e16") {
        let cfg = batching::BatchingConfig::default();
        let samples = batching::run(cfg, &[1, 2, 4, 8]);
        println!("{}", batching::table(cfg, &samples).render());
    }
    if wants(&filter, "e17") {
        let kcfg = kernel::KernelConfig::default();
        let raw = kernel::kernel_sweep(kcfg, &[1, 2, 4, 8]);
        println!("{}", kernel::kernel_table(kcfg, &raw).render());
        let scfg = kernel::ServingConfig::default();
        let served = kernel::serving_sweep(scfg, &[1, 8]);
        println!("{}", kernel::serving_table(scfg, &served).render());
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
}
