//! `sww` — command-line front end to the SWW stack.
//!
//! ```text
//! sww serve  [--addr 127.0.0.1:0] [--site blog|wikimedia] [--naive]
//!            [--transport h2|h3|both] [--h3-addr 127.0.0.1:0]
//!            [--cluster N] [--replicas N] [--replication N]
//!            [--gossip-interval-ms MS]
//!            [--workers N] [--shards N] [--queue N] [--chaos SPEC]
//!            [--batch-max N] [--batch-wait MS] [--kernel-tiles N]
//!            [--deadline-ms MS]
//!            [--breaker-threshold N] [--breaker-cooldown-ms MS]
//!            [--drain-after SECONDS]
//! sww fetch  <addr> <path> [--device laptop|workstation|mobile] [--naive] [--render] [--out DIR]
//! sww generate <prompt...> [--model sd21|sd3|sd35|dalle3|flux] [--steps N] [--out FILE]
//! sww expand <bullet;bullet;...> [--model llama|r1-1.5b|r1-8b|r1-14b]
//! sww convert <html-file> [--out FILE]
//! sww stock [category]
//! sww stats [addr] [--device laptop|workstation|mobile]
//! sww bench-concurrent [--threads 8] [--requests 100] [--prompts 10] [--workers 1,2,4,8]
//!                      [--batch-max N] [--batch-wait MS] [--kernel-tiles N]
//!                      [--chaos SPEC]
//!                      [--deadline-ms MS] [--breaker-threshold N]
//!                      [--breaker-cooldown-ms MS]
//! sww bench-pr6 [--tiles 1,2,4,8] [--out FILE]
//! sww bench-transport [--pages 5] [--recipes 4] [--gen-latency-ms 25]
//!                     [--chaos SPEC]
//! sww bench-cluster [--nodes 1,2,4] [--threads 2] [--requests 10]
//!                   [--prompts 10] [--replicas 64] [--chaos SPEC]
//!                   [--replication N]
//! sww bench-workload [--betas 0.02,0.2,1.0] [--pages 192] [--k 8]
//!                    [--requests 1000000] [--live-requests 600]
//!                    [--transport h2|h3] [--cluster 4] [--cache 32]
//!                    [--deadline-ms 2500] [--threads 4] [--seed 42]
//!                    [--chaos SPEC]
//! sww bench-compare <baseline.json> <current.json> [--tolerance 0.10]
//! ```
//!
//! `--batch-max N` (N > 1) turns on continuous batching: compatible
//! concurrent generations share one denoising pass, bit-identical per
//! image to the unbatched path, with `--batch-wait` bounding how long an
//! open batch may wait for company (milliseconds, default 2).
//! `--kernel-tiles N` (N > 1) additionally tiles each batched pass across
//! N data-parallel kernel lanes on a dedicated worker pool — still
//! bit-identical per image (see DESIGN.md "Kernel & memory model").
//!
//! `bench-pr6` runs the E17 tiled-kernel sweeps, the E18 transport
//! shoot-out, the E19 edge-cluster sweep, the E20 small-world workload
//! sweep, and the E21 edge-resilience scenarios, and emits the
//! machine-readable `BENCH_PR6.json` report (schema `sww-bench-pr6/5`,
//! documented in PERFORMANCE.md); tables go to stderr so `--out -`-less
//! stdout stays parseable. `bench-compare` gates a fresh report against
//! a checked-in baseline. Every gate a `bench-*` command enforces is a
//! rule over report records, stated once in `sww_bench::report` (the
//! numbered list in its module docs): `bench-compare` evaluates all of
//! them plus the baseline checks, and `bench-pr6`, `bench-cluster` and
//! `bench-workload` evaluate the same rules over the records of the
//! experiments they ran — one `ok:` line per rule that held, one
//! `FAIL:` line and exit status 1 per rule that did not.
//!
//! A malformed option value (`--threads abc`, `--nodes 1,x`), an unknown
//! `--option`, or a value option with nothing after it is an error: one
//! line naming the flag, exit status 2, before any work starts.
//!
//! `--deadline-ms MS` gives every request that carries no
//! `x-sww-deadline-ms` header a deadline budget: expiry answers `504`,
//! and a request whose predicted queue wait already exceeds its budget is
//! shed `503` at admission. `--breaker-threshold N` enables the per-model
//! circuit breaker (open after N consecutive generation failures,
//! half-open probe after `--breaker-cooldown-ms`, default 30000).
//! `--drain-after SECONDS` makes `sww serve` drain gracefully after that
//! long: stop admitting, finish in-flight requests, GOAWAY connections,
//! then exit — the knob that makes graceful shutdown scriptable.
//!
//! `sww stats` scrapes the Prometheus-text `/metrics` endpoint of a
//! running server when given an address; with no address it runs a small
//! in-process demo fetch and dumps this process's own metrics registry.
//! Every series it prints is documented in OBSERVABILITY.md.
//!
//! `--cluster N` turns `sww serve` into an N-node generative edge
//! cluster behind one listener: each node wraps a full server over the
//! same prompt-form site, recipes consistent-hash onto owner nodes
//! (`--replicas` vnodes each), and connections round-robin across entry
//! nodes with peer cache-fill on miss (DESIGN.md "Edge tier").
//! `--replication N` (N ≥ 2) turns on hot-key replication: each owner
//! pushes entries that cross the hot threshold to its N−1 ring
//! successors, so an owner death serves hot keys from replicas with
//! zero regeneration. `--gossip-interval-ms MS` sets the cadence of the
//! SWIM failure-detector rounds the cluster ticks in the background
//! (default 200; membership health feeds the successor walk).
//! `bench-cluster` is the E19 harness: aggregate throughput and global
//! hit rate vs node count (in any `--nodes` order), plus a chaos
//! node-kill scenario; with `--replication N` it also runs the E21
//! failover scenario at 1 and N copies and the gossip partition heal.
//!
//! `bench-workload` is the E20 harness: it generates one seeded
//! Watts–Strogatz workload per `--betas` entry (Zipf popularity,
//! random-walk sessions with restart, diurnal arrivals, the E14 device
//! mix), runs the modelled discrete-event simulator over each at
//! `--requests` scale, and replays a `--live-requests` trace through the
//! real stack — in-process single node, HTTP/3, and a `--cluster N` edge
//! ring (or just the one target named by `--transport`). Its
//! determinism rule holds chaos installed or not: every server draws
//! faults from its own seeded scope, so the schedule replays per
//! instance.
//!
//! `--transport h3` serves over the HTTP/3 framing (QUIC-lite stream
//! mux) instead of HTTP/2; `--transport both` binds two listeners (the
//! h3 one on `--h3-addr`, default ephemeral). Both transports drive the
//! same request core, so responses are byte-identical — h3 additionally
//! avoids head-of-line blocking across a page's generation streams (see
//! DESIGN.md "Transports" and experiment E18).
//!
//! `--chaos SPEC` installs the deterministic fault-injection layer
//! (`sww_core::faults`) for the lifetime of the process. The spec grammar
//! is `seed=<u64>,<site>=<kind>:<prob>[:<param>],…` — e.g.
//! `seed=42,engine.generate=error:0.1,pool.enqueue=error:0.05` — and is
//! documented in DESIGN.md ("Failure model").

mod args;

use args::Args;
use sww_core::cms::Cms;
use sww_core::convert::Converter;
use sww_core::{GenAbility, GenerativeClient, GenerativeServer, ServerConfig, SiteContent};
use sww_energy::device::{profile, DeviceKind};
use sww_genai::diffusion::{DiffusionModel, ImageModelKind};
use sww_genai::image::codec;
use sww_genai::text::{TextModel, TextModelKind};

fn device_from(name: &str) -> DeviceKind {
    match name {
        "workstation" | "ws" => DeviceKind::Workstation,
        "mobile" => DeviceKind::Mobile,
        _ => DeviceKind::Laptop,
    }
}

fn image_model_from(name: &str) -> ImageModelKind {
    match name {
        "sd21" => ImageModelKind::Sd21Base,
        "sd35" => ImageModelKind::Sd35Medium,
        "dalle3" => ImageModelKind::Dalle3,
        "flux" => ImageModelKind::FluxFast,
        _ => ImageModelKind::Sd3Medium,
    }
}

fn text_model_from(name: &str) -> TextModelKind {
    match name {
        "llama" => TextModelKind::Llama32,
        "r1-1.5b" => TextModelKind::DeepSeekR1_1_5B,
        "r1-14b" => TextModelKind::DeepSeekR1_14B,
        _ => TextModelKind::DeepSeekR1_8B,
    }
}

/// What every command returns: `Err` is the one line `main` prints
/// before exiting 2 (a malformed flag, a bad spec).
type Outcome = Result<(), String>;

type Command = fn(&Args) -> Outcome;

/// Every command: the one table both dispatch and `usage()` read.
const COMMANDS: [(&str, Command); 13] = [
    ("serve", |args| block_on(cmd_serve(args))),
    ("fetch", |args| block_on(cmd_fetch(args))),
    ("generate", cmd_generate),
    ("expand", cmd_expand),
    ("convert", cmd_convert),
    ("stock", cmd_stock),
    ("stats", |args| block_on(cmd_stats(args))),
    ("bench-concurrent", cmd_bench_concurrent),
    ("bench-pr6", cmd_bench_pr6),
    ("bench-cluster", cmd_bench_cluster),
    ("bench-transport", cmd_bench_transport),
    ("bench-workload", cmd_bench_workload),
    ("bench-compare", cmd_bench_compare),
];

fn usage_text() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: sww <{}> [options]\nsee crate docs for the full option list",
        names.join("|")
    )
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2)
}

/// Install the chaos spec from `--chaos`, if given; a malformed spec is
/// an error (before any server or bench work starts).
fn install_chaos(args: &Args) -> Outcome {
    let Some(spec) = args.options.get("chaos") else {
        return Ok(());
    };
    let spec =
        sww_core::ChaosSpec::parse(spec).map_err(|err| format!("bad --chaos spec: {err}"))?;
    println!(
        "chaos: seed={} rules={} (deterministic; same seed replays the run)",
        spec.seed,
        spec.rules.len()
    );
    sww_core::faults::install(&spec);
    Ok(())
}

fn block_on<F: std::future::Future>(future: F) -> F::Output {
    tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .enable_all()
        .build()
        .expect("tokio runtime")
        .block_on(future)
}

fn main() {
    let run = |args: Args| match COMMANDS.iter().find(|(name, _)| *name == args.command) {
        Some((_, command)) => command(&args),
        None => usage(),
    };
    if let Err(message) = Args::parse(std::env::args().skip(1)).and_then(run) {
        eprintln!("{message}");
        std::process::exit(2);
    }
}

/// Exit 1 with one `FAIL:` line per broken rule; otherwise hand back
/// the `ok` lines of a `sww_bench::report` verdict.
fn passed(verdict: Result<Vec<String>, Vec<String>>) -> Vec<String> {
    verdict.unwrap_or_else(|failures| {
        for line in failures {
            eprintln!("FAIL: {line}");
        }
        std::process::exit(1)
    })
}

/// Translate `sww serve` / `bench-concurrent` flags into the library's
/// [`ServerConfig`] — the CLI builds the exact struct the library
/// consumes, so the two can never drift apart.
fn server_config_from(args: &Args) -> Result<ServerConfig, String> {
    let site: SiteContent = match args.opt("site", "blog") {
        "wikimedia" => {
            eprintln!("building the 49-image Wikimedia workload …");
            let page = sww_workload::wikimedia::landscape_search_page();
            let mut s = SiteContent::new();
            s.add_page("/wiki/landscape", page.sww_html);
            s
        }
        _ => sww_workload::blog::travel_blog(),
    };
    let (batch_max, batch_wait_ms) = batch_options(args)?;
    Ok(ServerConfig {
        site,
        ability: if args.has_flag("naive") {
            GenAbility::none()
        } else {
            GenAbility::full()
        },
        workers: args.value("workers")?.unwrap_or(0),
        cache_shards: args.value("shards")?.unwrap_or(8),
        queue_capacity: args.value("queue")?.unwrap_or(64),
        batch_max,
        batch_wait: std::time::Duration::from_millis(batch_wait_ms),
        kernel_tiles: kernel_tiles_option(args)?,
        default_deadline: args
            .value("deadline-ms")?
            .map(std::time::Duration::from_millis),
        breaker: breaker_option(args)?,
        ..ServerConfig::default()
    })
}

async fn cmd_serve(args: &Args) -> Outcome {
    install_chaos(args)?;
    if let Some(nodes) = args.value("cluster")? {
        return cmd_serve_cluster(args, nodes).await;
    }
    let drain_after: Option<u64> = args.value("drain-after")?;
    let config = server_config_from(args)?;
    let ability = config.ability;
    let (batch_max, batch_wait_ms) = (config.batch_max, config.batch_wait.as_millis());
    let (kernel_tiles, queue, shards) = (
        config.kernel_tiles,
        config.queue_capacity,
        config.cache_shards,
    );
    if let Some(deadline) = config.default_deadline {
        println!("default deadline: {} ms", deadline.as_millis());
    }
    if let Some(cfg) = config.breaker {
        println!(
            "circuit breaker: open after {} consecutive failures, {} ms cooldown",
            cfg.failure_threshold,
            cfg.cooldown.as_millis()
        );
    }
    let server = GenerativeServer::from_config(config);
    let transport = args.opt("transport", "h2");
    let addr_opt = args.opt("addr", "127.0.0.1:0");
    match transport {
        "h3" => {
            let addr = server.spawn_tcp_h3(addr_opt).await.expect("bind h3");
            println!("serving h3 on {addr} (ability: {:?})", ability.bits());
        }
        "both" => {
            let h2 = server.spawn_tcp(addr_opt).await.expect("bind h2");
            let h3 = server
                .spawn_tcp_h3(args.opt("h3-addr", "127.0.0.1:0"))
                .await
                .expect("bind h3");
            println!(
                "serving h2 on {h2}, h3 on {h3} (ability: {:?})",
                ability.bits()
            );
        }
        "h2" => {
            let addr = server.spawn_tcp(addr_opt).await.expect("bind h2");
            println!("serving h2 on {addr} (ability: {:?})", ability.bits());
        }
        other => {
            return Err(format!(
                "bad --transport {other:?}: expected h2, h3 or both"
            ))
        }
    }
    match server.worker_count() {
        Some(n) => println!("worker pool: {n} workers, queue {queue}, {shards} cache shards"),
        None => println!("inline handling (no worker pool), {shards} cache shards"),
    }
    if batch_max > 1 {
        println!("continuous batching: up to {batch_max} per pass, {batch_wait_ms} ms deadline");
        if kernel_tiles > 1 {
            println!("tiled kernel: {kernel_tiles} data-parallel lanes per batched pass");
        }
    }
    println!("stored {} B (prompt form)", server.stored_bytes());
    // Serve until interrupted — or until --drain-after fires a graceful
    // shutdown (stop admitting, finish in-flight, GOAWAY, exit 0).
    if let Some(secs) = drain_after {
        tokio::time::sleep(std::time::Duration::from_secs(secs)).await;
        println!("draining …");
        let report = server.drain();
        println!(
            "drained: {} in-flight at start, waited {:.3} s",
            report.inflight_at_start,
            report.waited.as_secs_f64()
        );
        return Ok(());
    }
    loop {
        tokio::time::sleep(std::time::Duration::from_secs(3600)).await;
    }
}

/// `sww serve --cluster N`: one listener in front of an N-node edge
/// cluster. Every per-node knob (`--workers`, `--batch-max`, …) applies
/// to each node; connections round-robin across entry nodes.
async fn cmd_serve_cluster(args: &Args, nodes: usize) -> Outcome {
    let nodes = nodes.max(1);
    let replicas: usize = args
        .value("replicas")?
        .unwrap_or(sww_core::edge::DEFAULT_VNODES)
        .max(1);
    let replication: usize = args.value("replication")?.unwrap_or(1).max(1);
    let gossip_interval_ms: u64 = args.value("gossip-interval-ms")?.unwrap_or(200).max(1);
    // Freeze the per-node knobs out of the template config: ServerConfig
    // itself is not Clone (it owns the site), so the factory rebuilds it
    // per node from these plain values.
    let template = server_config_from(args)?;
    let site = template.site.clone();
    let ability = template.ability;
    let (workers, queue_capacity, cache_shards) = (
        template.workers,
        template.queue_capacity,
        template.cache_shards,
    );
    let (batch_max, batch_wait, kernel_tiles) = (
        template.batch_max,
        template.batch_wait,
        template.kernel_tiles,
    );
    let (default_deadline, breaker) = (template.default_deadline, template.breaker);
    let router = sww_core::EdgeRouter::new(
        sww_core::EdgeConfig {
            nodes,
            replicas,
            replication,
            gossip: sww_core::GossipConfig {
                interval_ms: gossip_interval_ms,
                ..sww_core::GossipConfig::default()
            },
            ..sww_core::EdgeConfig::default()
        },
        site,
        move |site| {
            GenerativeServer::from_config(ServerConfig {
                site,
                ability,
                workers,
                queue_capacity,
                cache_shards,
                batch_max,
                batch_wait,
                kernel_tiles,
                default_deadline,
                breaker,
                ..ServerConfig::default()
            })
        },
    );
    let addr = router
        .spawn_tcp(args.opt("addr", "127.0.0.1:0"))
        .await
        .expect("bind cluster");
    println!(
        "serving edge cluster on {addr}: {} nodes [{}], {replicas} vnodes each (ability: {:?})",
        router.node_count(),
        router.node_ids().join(", "),
        ability.bits()
    );
    if replication > 1 {
        println!("hot-key replication: {replication} copies per hot key (owner included)");
    }
    println!("gossip: SWIM rounds every {gossip_interval_ms} ms");
    // Background failure detector: one virtual-clock round per interval.
    // Membership health feeds the successor walk (suspect/dead peers are
    // skipped proactively) and delivers parked hinted-handoff pushes
    // when a replica rejoins.
    let ticker = router.clone();
    tokio::spawn(async move {
        loop {
            tokio::time::sleep(std::time::Duration::from_millis(gossip_interval_ms)).await;
            ticker.tick_gossip(1);
        }
    });
    loop {
        tokio::time::sleep(std::time::Duration::from_secs(3600)).await;
    }
}

async fn cmd_fetch(args: &Args) -> Outcome {
    let (Some(addr), Some(path)) = (args.positionals.first(), args.positionals.get(1)) else {
        usage();
    };
    let ability = if args.has_flag("naive") {
        GenAbility::none()
    } else {
        GenAbility::full()
    };
    let device = profile(device_from(args.opt("device", "laptop")));
    let sock = tokio::net::TcpStream::connect(addr).await.expect("connect");
    let mut client = GenerativeClient::connect(sock, ability, device)
        .await
        .expect("handshake");
    println!(
        "negotiated: generate={}",
        client.negotiated_ability().can_generate()
    );
    let (page, stats) = client.fetch_page(path).await.expect("fetch");
    println!(
        "generated {} items, fetched {}, wire {} B, traditional {} B ({:.1}x)",
        stats.items_generated,
        stats.items_fetched,
        stats.wire_bytes,
        stats.traditional_bytes,
        stats.compression_ratio()
    );
    println!(
        "modelled generation: {:.1} s, {:.3} Wh",
        stats.generation_time_s,
        stats.generation_energy.wh()
    );
    if args.has_flag("render") {
        println!("\n{}\n", page.to_text());
    }
    if let Some(dir) = args.options.get("out") {
        let files = page.dump_ppm(std::path::Path::new(dir)).expect("dump");
        println!("wrote {} PPM files to {dir}", files.len());
    }
    let _ = client.close().await;
    Ok(())
}

async fn cmd_stats(args: &Args) -> Outcome {
    match args.positionals.first() {
        // Remote: scrape a running server's /metrics route over HTTP/2.
        Some(addr) => {
            let sock = tokio::net::TcpStream::connect(addr).await.expect("connect");
            let mut conn = sww_http2::ClientConnection::handshake(sock, GenAbility::none())
                .await
                .expect("handshake");
            let resp = conn
                .send_request(&sww_http2::Request::get("/metrics"))
                .await
                .expect("GET /metrics");
            if resp.status != 200 {
                eprintln!("GET /metrics returned status {}", resp.status);
                std::process::exit(1);
            }
            print!("{}", String::from_utf8_lossy(&resp.body));
            let _ = conn.close().await;
        }
        // Local: run a demo fetch in-process (server and client share this
        // process's registry), then dump every series it produced.
        None => {
            let server = GenerativeServer::from_config(ServerConfig {
                site: sww_workload::blog::travel_blog(),
                ability: GenAbility::full(),
                ..ServerConfig::default()
            });
            let (a, b) = tokio::io::duplex(1 << 20);
            tokio::spawn(async move {
                let _ = server.serve_stream(b).await;
            });
            let device = profile(device_from(args.opt("device", "laptop")));
            let mut client = GenerativeClient::connect(a, GenAbility::full(), device)
                .await
                .expect("handshake");
            let (_page, stats) = client
                .fetch_page("/blog/gherdeina-ridge")
                .await
                .expect("fetch");
            let _ = client.close().await;
            eprintln!(
                "demo fetch: {} generated, {} fetched, {} B wire\n",
                stats.items_generated, stats.items_fetched, stats.wire_bytes
            );
            print!("{}", sww_obs::render());
        }
    }
    Ok(())
}

fn cmd_generate(args: &Args) -> Outcome {
    if args.positionals.is_empty() {
        usage();
    }
    let prompt = args.positionals.join(" ");
    let model = DiffusionModel::new(image_model_from(args.opt("model", "sd3")));
    let steps: u32 = args.value("steps")?.unwrap_or(15);
    let img = model.generate(&prompt, 256, 256, steps);
    let encoded = codec::encode(&img, 55);
    println!(
        "generated 256x256 with {} at {steps} steps: {} B encoded",
        model.profile().name,
        encoded.len()
    );
    let out = args.opt("out", "generated.ppm").to_string();
    std::fs::write(&out, img.to_ppm()).expect("write output");
    println!("wrote {out}");
    Ok(())
}

fn cmd_expand(args: &Args) -> Outcome {
    let Some(joined) = args.positionals.first() else {
        usage();
    };
    let bullets: Vec<String> = joined.split(';').map(|s| s.trim().to_string()).collect();
    let model = TextModel::new(text_model_from(args.opt("model", "r1-8b")));
    let text = model.expand(&bullets, 150);
    println!("{text}");
    Ok(())
}

fn cmd_convert(args: &Args) -> Outcome {
    let Some(file) = args.positionals.first() else {
        usage();
    };
    let html = std::fs::read_to_string(file).expect("read input html");
    let cms = Cms::new();
    let report = Converter::new(&cms).convert_page(&html, |_| None);
    println!(
        "converted {} items (skipped {}), {:.1}x over converted items",
        report.items.len(),
        report.skipped,
        report.compression_ratio()
    );
    let out = args.opt("out", "converted.html").to_string();
    std::fs::write(&out, report.html).expect("write output");
    println!("wrote {out}");
    Ok(())
}

fn cmd_stock(args: &Args) -> Outcome {
    let items: Vec<_> = match args.positionals.first() {
        Some(cat) => sww_workload::stock::by_category(cat),
        None => sww_workload::stock::CATALOG.iter().collect(),
    };
    for p in items {
        println!(
            "{:<14} [{:?}] {}x{}  {}",
            p.id, p.licence, p.size.0, p.size.1, p.prompt
        );
    }
    Ok(())
}

/// `--batch-max` / `--batch-wait` (shared by `serve` and
/// `bench-concurrent`).
fn batch_options(args: &Args) -> Result<(usize, u64), String> {
    Ok((
        args.value("batch-max")?.unwrap_or(1),
        args.value("batch-wait")?.unwrap_or(2),
    ))
}

/// `--kernel-tiles` (shared by `serve` and `bench-concurrent`): data-
/// parallel lanes per batched denoise pass, 1 = scalar kernel.
fn kernel_tiles_option(args: &Args) -> Result<usize, String> {
    Ok(args.value::<usize>("kernel-tiles")?.unwrap_or(1).max(1))
}

/// `--breaker-threshold` / `--breaker-cooldown-ms` (shared by `serve`
/// and `bench-concurrent`). The breaker stays off unless a threshold is
/// given; the cooldown defaults to the library's 30 s.
fn breaker_option(args: &Args) -> Result<Option<sww_core::BreakerConfig>, String> {
    let Some(threshold) = args.value::<u32>("breaker-threshold")? else {
        return Ok(None);
    };
    let mut cfg = sww_core::BreakerConfig {
        failure_threshold: threshold.max(1),
        ..sww_core::BreakerConfig::default()
    };
    if let Some(ms) = args.value("breaker-cooldown-ms")? {
        cfg.cooldown = std::time::Duration::from_millis(ms);
    }
    Ok(Some(cfg))
}

/// Stress the concurrent serving engine in-process: naive sessions drive
/// server-side generation from many threads, sweeping the worker count.
///
/// This is the E15 harness (`sww_bench::experiments::concurrency`)
/// behind a CLI: the sweep loop lives in one place, so the command and
/// `bench-report` cannot drift apart — in particular both inherit the
/// per-sample (delta, never cumulative) counter accounting.
fn cmd_bench_concurrent(args: &Args) -> Outcome {
    use sww_bench::experiments::concurrency;
    install_chaos(args)?;
    let (batch_max, batch_wait_ms) = batch_options(args)?;
    let cfg = concurrency::ConcurrencyConfig {
        threads: args.value("threads")?.unwrap_or(8),
        requests: args.value("requests")?.unwrap_or(100),
        prompts: args.value::<usize>("prompts")?.unwrap_or(10).max(1),
        batch_max,
        batch_wait_ms,
        deadline_ms: args.value("deadline-ms")?,
        breaker: breaker_option(args)?
            .map(|c| (c.failure_threshold, c.cooldown.as_millis() as u64)),
        kernel_tiles: kernel_tiles_option(args)?,
    };
    let worker_counts: Vec<usize> = args.list("workers", "1,2,4,8")?;
    let samples = concurrency::run(cfg, &worker_counts);
    println!("{}", concurrency::table(cfg, &samples).render());
    Ok(())
}

/// Run the E17–E21 sweeps and emit the `BENCH_PR6.json` report.
///
/// Human-readable tables go to **stderr**; the JSON report goes to
/// stdout, or to `--out FILE` so `ci.sh` can archive and gate it. The
/// report is written first; a run that breaks one of its own rules then
/// exits 1.
fn cmd_bench_pr6(args: &Args) -> Outcome {
    use sww_bench::experiments::{edge, kernel, resilience, transport, workload};
    use sww_bench::report;
    let tiles: Vec<usize> = args.list("tiles", "1,2,4,8")?;
    let widest = tiles.iter().copied().max().unwrap_or(1);
    let mut records = Vec::new();
    let kcfg = kernel::KernelConfig::default();
    let kernel_samples = kernel::kernel_sweep(kcfg, &tiles);
    eprintln!("{}", kernel::kernel_table(kcfg, &kernel_samples).render());
    records.extend(
        kernel_samples
            .iter()
            .map(|s| report::kernel_record(kcfg, s)),
    );
    // The serving sweep is the expensive end-to-end pass, so it compares
    // just the scalar kernel against the widest requested lane count.
    let scfg = kernel::ServingConfig::default();
    let serving_tiles: Vec<usize> = if widest > 1 { vec![1, widest] } else { vec![1] };
    let serving_samples = kernel::serving_sweep(scfg, &serving_tiles);
    eprintln!("{}", kernel::serving_table(scfg, &serving_samples).render());
    records.extend(
        serving_samples
            .iter()
            .map(|s| report::serving_record(scfg, s)),
    );
    // E18 last: its latency chaos spec is process-global, so it must not
    // overlap the kernel sweeps (run_with_latency installs and clears it).
    let tcfg = transport::TransportConfig::default();
    let trun = transport::run_with_latency(tcfg);
    eprintln!("{}", transport::table(tcfg, &trun).render());
    records.extend([&trun.h2, &trun.h3].map(|s| report::transport_record(tcfg, s)));
    // E19: the edge-cluster sweep (no chaos — the gated numbers are the
    // deterministic modelled ones), then the chaos node-kill under a
    // deterministic generation latency that widens the kill window.
    let ecfg = edge::EdgeClusterConfig::default();
    let edge_samples = edge::run(&ecfg);
    eprintln!("{}", edge::table(&ecfg, &edge_samples).render());
    records.extend(edge_samples.iter().map(|s| report::edge_record(&ecfg, s)));
    let chaos = edge::chaos_kill_with_latency(&ecfg);
    eprintln!("{}", edge::chaos_table(&chaos).render());
    records.push(report::chaos_record(&chaos));
    // E20: the small-world workload sweep — modelled rows at full scale,
    // live replays through single node / h3 / the edge ring, and the
    // replay-determinism witness.
    let wcfg = workload::E20Config::default();
    let rows = workload::modelled_sweep(&wcfg);
    eprintln!("{}", workload::modelled_table(&wcfg, &rows).render());
    records.extend(rows.iter().map(|r| report::workload_record(&wcfg, r)));
    let live = workload::live_sweep(&wcfg, &workload::live_targets(&wcfg));
    eprintln!("{}", workload::live_table(&wcfg, &live).render());
    let live_clustering = wcfg
        .workload(wcfg.live_beta, wcfg.live_requests)
        .site_graph()
        .clustering_coefficient();
    records.extend(
        live.iter()
            .map(|s| report::replay_record(live_clustering, s)),
    );
    let determinism = workload::determinism_check(&wcfg, &live);
    records.push(report::determinism_record(&determinism));
    // E21: the owner-kill failover at every replication level, then the
    // gossip partition-heal witness — fully deterministic, no chaos spec
    // needed (the kill and the partition are the faults).
    let rcfg = resilience::ResilienceConfig::default();
    records.extend(resilience_records(&rcfg, |table| eprintln!("{table}")));
    let verdict = report::gate(&records);
    let text = report::render(&report::pr6_report(records));
    match args.options.get("out") {
        Some(path) => {
            std::fs::write(path, &text).expect("write report");
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    eprintln!("{} report rules hold", passed(verdict).len());
    Ok(())
}

/// Run both E21 scenarios, hand each rendered table to `show`, and
/// return their records (`bench-pr6` keeps stdout for the report, so
/// the caller picks the stream).
fn resilience_records(
    rcfg: &sww_bench::experiments::resilience::ResilienceConfig,
    show: fn(String),
) -> Vec<sww_json::Value> {
    use sww_bench::experiments::resilience;
    use sww_bench::report;
    let failover = resilience::failover_sweep(rcfg);
    show(resilience::failover_table(rcfg, &failover).render());
    let partition = resilience::partition_heal(rcfg);
    show(resilience::partition_table(&partition).render());
    let mut records: Vec<_> = failover.iter().map(report::resilience_record).collect();
    records.push(report::partition_record(&partition));
    records
}

/// Run the E19 edge-cluster sweep on its own: aggregate throughput and
/// global hit rate vs node count, then the chaos node-kill scenario.
/// With `--chaos` the caller's spec drives the fault layer for the whole
/// run; otherwise the kill scenario installs its own deterministic
/// generation latency. With `--replication N` (N ≥ 2) the E21 failover
/// and partition scenarios run too. Exits non-zero when the records
/// break a `sww_bench::report::gate` rule.
fn cmd_bench_cluster(args: &Args) -> Outcome {
    use sww_bench::experiments::{edge, resilience};
    use sww_bench::report;
    let cfg = edge::EdgeClusterConfig {
        node_counts: args.list("nodes", "1,2,4")?,
        threads_per_node: args.value::<usize>("threads")?.unwrap_or(2).max(1),
        requests_per_thread: args.value::<usize>("requests")?.unwrap_or(10).max(1),
        prompts: args.value::<usize>("prompts")?.unwrap_or(10).max(1),
        replicas: args.value::<usize>("replicas")?.unwrap_or(64).max(1),
    };
    let replication: usize = args.value("replication")?.unwrap_or(1).max(1);
    install_chaos(args)?;
    let samples = edge::run(&cfg);
    println!("{}", edge::table(&cfg, &samples).render());
    println!("{}", edge::modelled_table(&cfg).render());
    let chaos = if args.options.contains_key("chaos") {
        let chaos = edge::chaos_kill(&cfg);
        sww_core::faults::clear();
        chaos
    } else {
        edge::chaos_kill_with_latency(&cfg)
    };
    println!("{}", edge::chaos_table(&chaos).render());
    let mut records: Vec<_> = samples
        .iter()
        .map(|s| report::edge_record(&cfg, s))
        .collect();
    records.push(report::chaos_record(&chaos));
    // E21, opt-in via --replication N (N ≥ 2): hot-key replication
    // failover at 1 and N copies, plus the gossip partition heal.
    if replication > 1 {
        let rcfg = resilience::ResilienceConfig {
            prompts: cfg.prompts,
            replicas: cfg.replicas,
            replication_levels: vec![1, replication],
            ..resilience::ResilienceConfig::default()
        };
        records.extend(resilience_records(&rcfg, |table| println!("{table}")));
    }
    for line in passed(report::gate(&records)) {
        println!("ok: {line}");
    }
    println!("edge gates passed (node-kill took out {})", chaos.killed);
    Ok(())
}

/// Run the E18 transport shoot-out on its own: h2 vs h3 page loads with
/// a slow generation behind every recipe. With `--chaos` the caller's
/// spec drives the slowness; otherwise the experiment installs its own
/// deterministic `engine.generate` latency. Exits non-zero if the h3
/// payloads are not byte-identical to the h2 ones.
fn cmd_bench_transport(args: &Args) -> Outcome {
    use sww_bench::experiments::transport;
    let cfg = transport::TransportConfig {
        pages: args.value::<usize>("pages")?.unwrap_or(5).max(1),
        recipes: args.value::<usize>("recipes")?.unwrap_or(4).max(1),
        gen_latency_ms: args.value("gen-latency-ms")?.unwrap_or(25),
        ..transport::TransportConfig::default()
    };
    let run = if args.options.contains_key("chaos") {
        install_chaos(args)?;
        transport::run(cfg)
    } else {
        println!("chaos: {} (default E18 spec)", transport::latency_spec(cfg));
        transport::run_with_latency(cfg)
    };
    println!("{}", transport::table(cfg, &run).render());
    println!(
        "modelled h3 speedup: {:.2}x, measured p99 speedup: {:.2}x",
        run.modelled_speedup(),
        run.measured_p99_speedup()
    );
    if !run.byte_identical {
        eprintln!("FAIL: per-recipe payloads differ between h2 and h3");
        std::process::exit(1);
    }
    println!("payloads byte-identical across transports");
    Ok(())
}

/// Translate `bench-workload` flags into an E20 sweep config.
fn e20_config_from(args: &Args) -> Result<sww_bench::experiments::workload::E20Config, String> {
    use sww_bench::experiments::workload::E20Config;
    let d = E20Config::default();
    Ok(E20Config {
        betas: args.list("betas", "0.02,0.2,1.0")?,
        graph_nodes: args.value("pages")?.unwrap_or(d.graph_nodes),
        k: args.value("k")?.unwrap_or(d.k),
        cache_capacity: args.value("cache")?.unwrap_or(d.cache_capacity),
        cluster_nodes: args.value("cluster")?.unwrap_or(d.cluster_nodes).max(1),
        deadline_ms: args.value("deadline-ms")?.unwrap_or(d.deadline_ms),
        modelled_requests: args.value("requests")?.unwrap_or(d.modelled_requests),
        live_requests: args.value("live-requests")?.unwrap_or(d.live_requests),
        threads: args.value("threads")?.unwrap_or(d.threads).max(1),
        seed: args.value("seed")?.unwrap_or(d.seed),
        ..d
    })
}

/// Run the E20 small-world workload harness: the modelled sweep over
/// every `--betas` entry, the live trace replays, and the
/// replay-determinism check. Exits non-zero when the records break a
/// `sww_bench::report::gate` rule.
fn cmd_bench_workload(args: &Args) -> Outcome {
    use sww_bench::experiments::workload;
    use sww_bench::report;
    use sww_workload::replay::ReplayTarget;
    let cfg = e20_config_from(args)?;
    // --transport narrows the live run to one framing path; --cluster
    // always adds the edge ring unless a single transport was asked for.
    let targets = match args.options.get("transport").map(String::as_str) {
        Some("h2") => vec![ReplayTarget::H2],
        Some("h3") => vec![ReplayTarget::H3],
        Some("single") => vec![ReplayTarget::Single],
        Some(other) => {
            return Err(format!(
                "bad --transport {other:?}: expected single, h2 or h3"
            ))
        }
        None => workload::live_targets(&cfg),
    };
    install_chaos(args)?;
    let rows = workload::modelled_sweep(&cfg);
    println!("{}", workload::modelled_table(&cfg, &rows).render());
    let live = workload::live_sweep(&cfg, &targets);
    println!("{}", workload::live_table(&cfg, &live).render());
    let det = workload::determinism_check(&cfg, &live);
    let mut records: Vec<_> = rows
        .iter()
        .map(|r| report::workload_record(&cfg, r))
        .collect();
    records.push(report::determinism_record(&det));
    for line in passed(report::gate(&records)) {
        println!("ok: {line}");
    }
    println!(
        "workload SLO gates passed ({} modelled rows, {} live replays)",
        rows.len(),
        live.len()
    );
    Ok(())
}

/// Gate a fresh `BENCH_PR6.json` against the checked-in baseline; exits
/// non-zero when `sww_bench::report::compare` reports failures.
fn cmd_bench_compare(args: &Args) -> Outcome {
    let (Some(base_path), Some(cur_path)) = (args.positionals.first(), args.positionals.get(1))
    else {
        usage();
    };
    let tolerance: f64 = args.value("tolerance")?.unwrap_or(0.10);
    let load = |path: &str| -> sww_json::Value {
        let text = std::fs::read_to_string(path).unwrap_or_else(|err| panic!("read {path}: {err}"));
        sww_json::parse(&text).unwrap_or_else(|err| panic!("parse {path}: {err:?}"))
    };
    let verdict = sww_bench::report::compare(&load(base_path), &load(cur_path), tolerance);
    for line in passed(verdict) {
        println!("ok: {line}");
    }
    println!("bench gate passed ({cur_path} vs {base_path})");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_dispatched_command() {
        let expected = [
            "serve",
            "fetch",
            "generate",
            "expand",
            "convert",
            "stock",
            "stats",
            "bench-concurrent",
            "bench-pr6",
            "bench-cluster",
            "bench-transport",
            "bench-workload",
            "bench-compare",
        ];
        let dispatched: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
        assert_eq!(dispatched, expected, "the table is the command set");
        let listed = usage_text();
        let listed: Vec<&str> = listed
            .split(['<', '>'])
            .nth(1)
            .expect("usage names the commands between <>")
            .split('|')
            .collect();
        assert_eq!(listed, expected, "usage must name every command");
    }

    #[test]
    fn device_names_map() {
        assert_eq!(device_from("laptop"), DeviceKind::Laptop);
        assert_eq!(device_from("workstation"), DeviceKind::Workstation);
        assert_eq!(device_from("ws"), DeviceKind::Workstation);
        assert_eq!(device_from("mobile"), DeviceKind::Mobile);
        assert_eq!(device_from("unknown"), DeviceKind::Laptop, "default");
    }

    #[test]
    fn image_model_names_map() {
        assert_eq!(image_model_from("sd21"), ImageModelKind::Sd21Base);
        assert_eq!(image_model_from("sd3"), ImageModelKind::Sd3Medium);
        assert_eq!(image_model_from("sd35"), ImageModelKind::Sd35Medium);
        assert_eq!(image_model_from("dalle3"), ImageModelKind::Dalle3);
        assert_eq!(image_model_from("flux"), ImageModelKind::FluxFast);
        assert_eq!(image_model_from("?"), ImageModelKind::Sd3Medium, "default");
    }

    #[test]
    fn text_model_names_map() {
        assert_eq!(text_model_from("llama"), TextModelKind::Llama32);
        assert_eq!(text_model_from("r1-1.5b"), TextModelKind::DeepSeekR1_1_5B);
        assert_eq!(text_model_from("r1-8b"), TextModelKind::DeepSeekR1_8B);
        assert_eq!(text_model_from("r1-14b"), TextModelKind::DeepSeekR1_14B);
        assert_eq!(
            text_model_from("?"),
            TextModelKind::DeepSeekR1_8B,
            "default"
        );
    }
}
