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
//! ```
//!
//! The paper's tables (E1–E21) are the `report` binary's job
//! (`sww-bench`), not this one's.
//!
//! `--batch-max N` (N > 1) turns on continuous batching: compatible
//! concurrent generations share one denoising pass, bit-identical per
//! image to the unbatched path, with `--batch-wait` bounding how long an
//! open batch may wait for company (milliseconds, default 2).
//! `--kernel-tiles N` (N > 1) additionally tiles each batched pass across
//! N data-parallel kernel lanes on the blocking crew — still
//! bit-identical per image (see DESIGN.md "Kernel & memory model").
//!
//! A malformed option value (`--workers abc`), an unknown `--option`, an
//! option the command does not read (`stock --workers 9`), or a value
//! option with nothing after it is an error: one line naming the flag,
//! exit status 2, before any work starts.
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
//! in-process demo fetch and dumps the demo server's registry, the demo
//! client's and the process registry.
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
//! (default 200; membership health feeds the successor walk). The
//! cluster listens on h2 and runs until interrupted, so `--transport`,
//! `--h3-addr` and `--drain-after` with `--cluster` exit 2.
//!
//! `--transport h3` serves over the HTTP/3 framing (QUIC-lite stream
//! mux) instead of HTTP/2; `--transport both` binds two listeners (the
//! h3 one on `--h3-addr`, default ephemeral). Both transports drive the
//! same request core, so responses are byte-identical — h3 additionally
//! avoids head-of-line blocking across a page's generation streams (see
//! DESIGN.md "Transports" and experiment E18).
//!
//! `--chaos SPEC` arms the deterministic fault-injection layer
//! (`sww_core::faults`) on every server `sww serve` builds
//! (`ServerConfig::chaos`), and with `--cluster` on the gossip layer of
//! its edge cluster; nothing else draws from it. The spec grammar is
//! `seed=<u64>,<site>=<kind>:<prob>[:<param>],…` — e.g.
//! `seed=42,engine.generate=error:0.1,pool.enqueue=error:0.05` — and is
//! documented in DESIGN.md ("Failure model").

mod args;

use args::Args;
use sww_core::{
    Converter, GenAbility, GenerativeClient, GenerativeServer, ServerConfig, SiteContent,
};
use sww_energy::{profile, DeviceKind};
use sww_genai::{codec, DiffusionModel, ImageModelKind, TextModel, TextModelKind};

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

/// Every command with the options it reads: the one table dispatch,
/// `usage()` and [`Args::parse`] read.
const COMMANDS: [(&str, &[&str], Command); 7] = [
    (
        "serve",
        &[
            "addr",
            "site",
            "naive",
            "transport",
            "h3-addr",
            "cluster",
            "replicas",
            "replication",
            "gossip-interval-ms",
            "workers",
            "shards",
            "queue",
            "chaos",
            "batch-max",
            "batch-wait",
            "kernel-tiles",
            "deadline-ms",
            "breaker-threshold",
            "breaker-cooldown-ms",
            "drain-after",
        ],
        |args| tokio::runtime::block_on(cmd_serve(args)),
    ),
    ("fetch", &["device", "naive", "render", "out"], |args| {
        tokio::runtime::block_on(cmd_fetch(args))
    }),
    ("generate", &["model", "steps", "out"], cmd_generate),
    ("expand", &["model"], cmd_expand),
    ("convert", &["out"], cmd_convert),
    ("stock", &[], cmd_stock),
    ("stats", &["device"], |args| {
        tokio::runtime::block_on(cmd_stats(args))
    }),
];

/// The options `command` reads; `None` for a command that is not in
/// [`COMMANDS`].
fn options_of(command: &str) -> Option<&'static [&'static str]> {
    COMMANDS
        .iter()
        .find(|(name, ..)| *name == command)
        .map(|(_, options, _)| *options)
}

fn usage_text() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|(name, ..)| *name).collect();
    format!(
        "usage: sww <{}> [options]\nsee crate docs for the full option list",
        names.join("|")
    )
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2)
}

/// The chaos spec from `--chaos`, if given; a malformed spec is an
/// error (before any server starts).
fn chaos_option(args: &Args) -> Result<Option<sww_core::ChaosSpec>, String> {
    let Some(spec) = args.options.get("chaos") else {
        return Ok(None);
    };
    let spec =
        sww_core::ChaosSpec::parse(spec).map_err(|err| format!("bad --chaos spec: {err}"))?;
    println!(
        "chaos: seed={} rules={} (deterministic; same seed replays the run)",
        spec.seed,
        spec.rules.len()
    );
    Ok(Some(spec))
}

fn main() {
    let run = |args: Args| match COMMANDS.iter().find(|(name, ..)| *name == args.command) {
        Some((.., command)) => command(&args),
        None => usage(),
    };
    if let Err(message) = Args::parse(std::env::args().skip(1), options_of).and_then(run) {
        eprintln!("{message}");
        std::process::exit(2);
    }
}

/// Translate `sww serve` flags into the library's [`ServerConfig`] — the
/// CLI builds the exact struct the library consumes, so the two can
/// never drift apart.
fn server_config_from(args: &Args) -> Result<ServerConfig, String> {
    let site: SiteContent = match args.opt("site", "blog") {
        "wikimedia" => {
            eprintln!("building the 49-image Wikimedia workload …");
            let page = sww_workload::landscape_search_page();
            let mut s = SiteContent::new();
            s.add_page("/wiki/landscape", page.sww_html);
            s
        }
        _ => sww_workload::travel_blog(),
    };
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
        batch_max: args.value("batch-max")?.unwrap_or(1),
        batch_wait: std::time::Duration::from_millis(args.value("batch-wait")?.unwrap_or(2)),
        kernel_tiles: args.value::<usize>("kernel-tiles")?.unwrap_or(1).max(1),
        default_deadline: args
            .value("deadline-ms")?
            .map(std::time::Duration::from_millis),
        breaker: breaker_option(args)?,
        chaos: chaos_option(args)?,
        ..ServerConfig::default()
    })
}

async fn cmd_serve(args: &Args) -> Outcome {
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
    // The cluster listens on h2 only and never drains.
    if let Some(key) = ["transport", "h3-addr", "drain-after"]
        .into_iter()
        .find(|key| args.options.contains_key(*key))
    {
        return Err(format!("--{key} is not an option of \"serve --cluster\""));
    }
    let nodes = nodes.max(1);
    let replicas: usize = args
        .value("replicas")?
        .unwrap_or(sww_core::edge::DEFAULT_VNODES)
        .max(1);
    let replication: usize = args.value("replication")?.unwrap_or(1).max(1);
    let gossip_interval_ms: u64 = args.value("gossip-interval-ms")?.unwrap_or(200).max(1);
    // Every node is built from one template: a clone shares its site.
    let template = server_config_from(args)?;
    let (site, ability) = (template.site.clone(), template.ability);
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
                ..template.clone()
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
        // Local: run a demo fetch in-process, then dump every series it
        // produced: the server's, the client's and the process registry.
        None => {
            let server = GenerativeServer::from_config(ServerConfig {
                site: sww_workload::travel_blog(),
                ability: GenAbility::full(),
                ..ServerConfig::default()
            });
            let (a, b) = tokio::io::duplex(1 << 20);
            let serving = server.clone();
            tokio::spawn(async move {
                let _ = serving.serve_stream(b).await;
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
            print!("{}", sww_obs::expose(&[server.metrics(), client.metrics()]));
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
    let report = Converter::new().convert_page(&html, |_| None);
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
        Some(cat) => sww_workload::by_category(cat),
        None => sww_workload::CATALOG.iter().collect(),
    };
    for p in items {
        println!(
            "{:<14} [{:?}] {}x{}  {}",
            p.id, p.licence, p.size.0, p.size.1, p.prompt
        );
    }
    Ok(())
}

/// `--breaker-threshold` / `--breaker-cooldown-ms`. The breaker stays
/// off unless a threshold is given; the cooldown defaults to the
/// library's 30 s.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_dispatched_command() {
        let expected = [
            "serve", "fetch", "generate", "expand", "convert", "stock", "stats",
        ];
        let dispatched: Vec<&str> = COMMANDS.iter().map(|(name, ..)| *name).collect();
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
