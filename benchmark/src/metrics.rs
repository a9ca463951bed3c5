//! The metric names and units this binary emits. `BENCHMARK.json` lists
//! the same names with their direction and bound; `run.sh --smoke`
//! checks that the two agree.

/// End-to-end metrics, printed by `--trace 0` runs on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("page_loads_per_s", "loads/s"),
    ("slo_ok_share", "share"),
    ("generation_free_share", "share"),
    ("wire_bytes_per_load", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by `--trace 1` runs. The driver's contract
/// wants every name on every workload, so a metric whose layer is not on
/// the workload's request path reads 0 there (the probes, being cheap,
/// are measured everywhere).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Demoted from the end-to-end list: exactly 0 on some workloads.
    ("generations_per_kload", "count"),
    ("failed_share", "share"),
    // Demoted: did not repeat within 0.10 (README.md, "Steadiness").
    ("service_p50_ms", "ms"),
    ("cpu_ms_per_load", "ms"),
    ("latency_p99_ms", "ms"),
    // The harness itself.
    ("gen.late_p99_us", "us"),
    ("gen.late_max_us", "us"),
    ("trace.overhead_share", "share"),
    ("workload.trace_gen_s", "s"),
    ("workload.site_build_s", "s"),
    ("workload.oracle_s", "s"),
    // server: `Session::handle` / `EdgeRouter::handle` spans by class.
    ("server.prompt_us_p50", "us"),
    ("server.asset_us_p50", "us"),
    ("server.naive_hit_us_p50", "us"),
    ("server.naive_cold_us_p50", "us"),
    ("server.class_share.prompt", "share"),
    ("server.class_share.naive_hit", "share"),
    ("server.class_share.naive_cold", "share"),
    ("server.class_share.asset", "share"),
    ("server.unattributed_share", "share"),
    // engine: counter deltas over the closed phase, then cache probes.
    ("engine.generations", "count"),
    ("engine.coalesced", "count"),
    ("engine.cache_hits", "count"),
    ("engine.hit_ratio", "share"),
    ("engine.cache_get_us", "us"),
    ("engine.cache_put_us", "us"),
    // genai
    ("genai.denoise_ms_64x15", "ms"),
    ("genai.batch8_tiles1_ms", "ms"),
    ("genai.batch8_tiles2_ms", "ms"),
    ("genai.codec_encode_us", "us"),
    // html, hash, obs, workpool
    ("html.parse_us", "us"),
    ("html.extract_us", "us"),
    ("html.serialize_us", "us"),
    ("hash.sha256_us", "us"),
    ("obs.counter_inc_ns", "ns"),
    ("obs.render_us", "us"),
    ("obs.series", "count"),
    ("workpool.run_us", "us"),
    // http2 / http3
    ("http2.hpack_encode_us", "us"),
    ("http2.hpack_decode_us", "us"),
    ("http2.frame_roundtrip_us", "us"),
    ("http2.req_us_p50", "us"),
    ("http2.wait_share", "share"),
    ("http3.qpack_encode_us", "us"),
    ("http3.qpack_decode_us", "us"),
    ("http3.frame_roundtrip_us", "us"),
    ("http3.op_us_p50", "us"),
    ("http3.wait_share", "share"),
    // edge + gossip
    ("edge.ring_owner_ns", "ns"),
    ("edge.handle_overhead_us", "us"),
    ("edge.peer_serves", "count"),
    ("edge.fills", "count"),
    ("edge.fill_hits", "count"),
    ("edge.replica_pushes", "count"),
    ("edge.replica_hits", "count"),
    ("edge.failovers", "count"),
    ("edge.fill_hit_ratio", "share"),
    ("gossip.tick_us", "us"),
    // allocator, traced pass
    ("alloc.count_per_load", "count"),
    ("alloc.bytes_per_load", "bytes"),
];
