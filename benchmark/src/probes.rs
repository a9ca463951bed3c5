//! The probe pass: inputs captured from the workload, replayed through
//! each layer's public entry point under a span named for the layer.
//!
//! The probes are the same on every workload (they are cheap), so every
//! per-layer name always has a measured value; which of them the
//! workload's own requests pay for is README.md's interaction table.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Inputs, Stack};
use bytes::{Bytes, BytesMut};
use std::hint::black_box;
use std::time::{Duration, Instant};
use sww_core::cache::Recipe;
use sww_core::mediagen::DEFAULT_CODEC_QUALITY;
use sww_core::{GenAbility, Gossip, GossipConfig, HashRing, ShardedGenerationCache, WorkerPool};
use sww_genai::{codec, DiffusionModel, ImageModelKind, PromptFeatures, StepCancel, Tiling};
use sww_html::gencontent;
use sww_http2::frame::{DataFrame, Frame, FrameHeader, HeadersFrame, FRAME_HEADER_LEN};
use sww_http2::hpack::{Decoder, Encoder};
use sww_http3::frame::H3Frame;
use sww_http3::qpack;

/// Time spent on one probe once it has its minimum of batches.
const BUDGET: Duration = Duration::from_millis(25);
/// A batch repeats the call until it lasts about this long, so the two
/// clock reads around it are noise.
const BATCH: Duration = Duration::from_micros(200);

/// Time `f` over inputs that `make` builds outside the span; one span
/// per batch. Returns the median time per call in nanoseconds.
fn probe_each<I, T>(
    tr: &mut Tracer,
    name: &'static str,
    mut make: impl FnMut() -> I,
    mut f: impl FnMut(I) -> T,
) -> f64 {
    let input = make();
    let t0 = Instant::now();
    black_box(f(input));
    let one = t0.elapsed().as_nanos().max(1);
    let batch = (BATCH.as_nanos() / one).clamp(1, 10_000) as usize;
    let started = Instant::now();
    let mut batches = 0;
    while batches < 5 || (started.elapsed() < BUDGET && batches < 200) {
        let inputs: Vec<I> = (0..batch).map(|_| make()).collect();
        let span = tr.begin(0);
        for input in inputs {
            black_box(f(input));
        }
        tr.end_batch(span, name, batch as u32);
        batches += 1;
    }
    median(&tr.durations_ns(name))
}

fn probe<T>(tr: &mut Tracer, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
    probe_each(tr, name, || (), |()| f())
}

fn h2_roundtrip(frame: &Frame) -> Frame {
    let mut wire = BytesMut::new();
    frame.encode(&mut wire);
    let wire = wire.freeze();
    let header: &[u8; FRAME_HEADER_LEN] = wire[..FRAME_HEADER_LEN]
        .try_into()
        .expect("an encoded frame starts with its header");
    Frame::parse(FrameHeader::parse(header), wire.slice(FRAME_HEADER_LEN..))
        .expect("a frame this crate encoded parses")
}

fn h3_roundtrip(frame: &H3Frame) -> H3Frame {
    let mut wire = Vec::new();
    frame.encode(&mut wire);
    H3Frame::decode(&wire, &mut 0).expect("a frame this crate encoded decodes")
}

/// What the probe pass measured.
pub struct Probed {
    /// `(per-layer metric, value)` pairs, each in the metric's own unit.
    pub metrics: Vec<(&'static str, f64)>,
    /// `Session::handle` of a prompt-form page, called directly.
    pub server_prompt_us: f64,
    /// Sum of the naive hit path's probes: parse, extract, cache get,
    /// codec encode, serialize, sha256.
    pub hit_path_us: f64,
    /// One h2 request's work outside the executor: the server call plus
    /// HPACK and framing, both directions.
    pub h2_request_work_us: f64,
    /// The same for one h3 request, with QPACK.
    pub h3_request_work_us: f64,
}

/// Run every probe. `tr` must be on.
pub fn run(tr: &mut Tracer, inputs: &Inputs, stack: &Stack) -> Probed {
    let mut out = Vec::new();
    let us = |ns: f64| ns / 1e3;
    let ms = |ns: f64| ns / 1e6;

    // Inputs: the first timed load's page, and what the program makes of it.
    let node = inputs.loads[0][inputs.warm[0]].node as usize;
    let request = &inputs.pages[node].page;
    let page_html = inputs.graph.page_spec(node).html();
    let doc = sww_html::parse(&page_html);
    let items = gencontent::extract(&doc);
    let prompt = items[0].prompt().to_owned();
    let model = DiffusionModel::new(ImageModelKind::Sd3Medium);
    let image = model.generate(&prompt, 64, 64, 15);
    let mut naive_doc = sww_html::parse(&page_html);
    gencontent::replace_with_image(
        &mut naive_doc,
        items[0].node,
        "/generated/probe.jpg",
        64,
        64,
    );
    let server = &stack.servers()[0];
    let full_session = server.accept(GenAbility::full());
    let response = full_session.handle(request);
    assert_eq!(response.status, 200, "probe page");

    // server: the prompt path called directly, the floor under every
    // transport and the edge router.
    let direct_prompt = probe(tr, "probe.server.prompt", || full_session.handle(request));

    // genai
    let denoise = probe(tr, "probe.genai.denoise_64x15", || {
        model.generate(&prompt, 64, 64, 15)
    });
    out.push(("genai.denoise_ms_64x15", ms(denoise)));
    let features: Vec<PromptFeatures> = (0..8)
        .map(|i| {
            let n = inputs.loads[0][inputs.warm[0] + i].node as usize;
            PromptFeatures::analyze(&format!("{prompt} variant {n}"))
        })
        .collect();
    let runner = WorkerPool::new(1, 8);
    for (tiles, span, metric) in [
        (1, "probe.genai.batch8_tiles1", "genai.batch8_tiles1_ms"),
        (2, "probe.genai.batch8_tiles2", "genai.batch8_tiles2_ms"),
    ] {
        let t = probe(tr, span, || {
            model.try_generate_batch_on(
                &features,
                64,
                64,
                15,
                &StepCancel::never(),
                Tiling::new(&runner, tiles),
            )
        });
        out.push((metric, ms(t)));
    }
    let encode = probe(tr, "probe.genai.codec_encode", || {
        codec::encode(&image, DEFAULT_CODEC_QUALITY)
    });
    out.push(("genai.codec_encode_us", us(encode)));

    // html + hash: the rest of the naive hit path.
    let parse = probe(tr, "probe.html.parse", || sww_html::parse(&page_html));
    let extract = probe(tr, "probe.html.extract", || gencontent::extract(&doc));
    let serialize = probe(tr, "probe.html.serialize", || {
        sww_html::serialize(&naive_doc)
    });
    let sha = probe(tr, "probe.hash.sha256", || {
        sww_hash::sha256(page_html.as_bytes())
    });
    out.push(("html.parse_us", us(parse)));
    out.push(("html.extract_us", us(extract)));
    out.push(("html.serialize_us", us(serialize)));
    out.push(("hash.sha256_us", us(sha)));

    // engine: a full cache, so every put evicts.
    let cache = ShardedGenerationCache::new(8, 512 * 64 * 64);
    let recipe = |i: usize| Recipe {
        prompt: format!("{prompt} #{i}"),
        model: ImageModelKind::Sd3Medium,
        width: 64,
        height: 64,
        steps: 15,
    };
    for i in 0..1024 {
        cache.put(recipe(i), image.clone());
    }
    let mut next = 1024;
    let put = probe_each(
        tr,
        "probe.engine.cache_put",
        || {
            next += 1;
            (recipe(next), image.clone())
        },
        |(r, img)| cache.put(r, img),
    );
    // The most recent puts are resident in every shard.
    let resident: Vec<Recipe> = (next - 63..=next).map(recipe).collect();
    let mut i = 0;
    let get = probe(tr, "probe.engine.cache_get", || {
        i += 1;
        cache.get(&resident[i % resident.len()])
    });
    out.push(("engine.cache_get_us", us(get)));
    out.push(("engine.cache_put_us", us(put)));

    // obs
    let inc = probe(tr, "probe.obs.counter_inc", || {
        sww_obs::counter(
            "sww_server_requests_total",
            &[("route", "page"), ("transport", "inproc")],
        )
        .inc()
    });
    let render = probe(tr, "probe.obs.render", sww_obs::render);
    let series = sww_obs::render()
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count();
    out.push(("obs.counter_inc_ns", inc));
    out.push(("obs.render_us", us(render)));
    out.push(("obs.series", series as f64));

    // workpool
    let pool = WorkerPool::new(2, 64);
    let pool_run = probe(tr, "probe.workpool.run", || pool.run(|| ()));
    out.push(("workpool.run_us", us(pool_run)));

    // http2: one load's header sets, through warmed-up dynamic tables.
    let req_fields = request.to_fields();
    let resp_fields = response.to_fields();
    let (mut enc_req, mut enc_resp) = (Encoder::new(), Encoder::new());
    let hpack_enc = probe(tr, "probe.http2.hpack_encode", || {
        (enc_req.encode(&req_fields), enc_resp.encode(&resp_fields))
    });
    let (mut dec_req, mut dec_resp) = (Decoder::new(), Decoder::new());
    let (mut e_req, mut e_resp) = (Encoder::new(), Encoder::new());
    let hpack_dec = probe_each(
        tr,
        "probe.http2.hpack_decode",
        || (e_req.encode(&req_fields), e_resp.encode(&resp_fields)),
        |(a, b)| (dec_req.decode(&a), dec_resp.decode(&b)),
    );
    let h2_frames = [
        Frame::Headers(HeadersFrame::new(1, enc_req.encode(&req_fields), true)),
        Frame::Headers(HeadersFrame::new(1, enc_resp.encode(&resp_fields), false)),
        Frame::Data(DataFrame::new(1, response.body.clone(), true)),
    ];
    let h2_frame = probe(tr, "probe.http2.frame_roundtrip", || {
        h2_frames.each_ref().map(h2_roundtrip)
    });
    out.push(("http2.hpack_encode_us", us(hpack_enc)));
    out.push(("http2.hpack_decode_us", us(hpack_dec)));
    out.push(("http2.frame_roundtrip_us", us(h2_frame)));

    // http3: the same header sets through QPACK and h3 framing.
    let qpack_enc = probe(tr, "probe.http3.qpack_encode", || {
        (qpack::encode(&req_fields), qpack::encode(&resp_fields))
    });
    let (q_req, q_resp) = (qpack::encode(&req_fields), qpack::encode(&resp_fields));
    let qpack_dec = probe(tr, "probe.http3.qpack_decode", || {
        (qpack::decode(&q_req), qpack::decode(&q_resp))
    });
    let h3_frames = [
        H3Frame::Headers(Bytes::from(q_req.clone())),
        H3Frame::Headers(Bytes::from(q_resp.clone())),
        H3Frame::Data(response.body.clone()),
    ];
    let h3_frame = probe(tr, "probe.http3.frame_roundtrip", || {
        h3_frames.each_ref().map(h3_roundtrip)
    });
    out.push(("http3.qpack_encode_us", us(qpack_enc)));
    out.push(("http3.qpack_decode_us", us(qpack_dec)));
    out.push(("http3.frame_roundtrip_us", us(h3_frame)));

    // edge + gossip
    let ring = HashRing::with_nodes(
        sww_core::edge::DEFAULT_VNODES,
        (0..crate::workload::EDGE_NODES).map(|n| format!("n{n}")),
    );
    let key = sww_core::edge::recipe_key(&recipe(0));
    let owner = probe(tr, "probe.edge.ring_owner", || {
        ring.owner(key.as_bytes()).map(str::len)
    });
    out.push(("edge.ring_owner_ns", owner));
    let mut gossip = Gossip::new(
        GossipConfig::default(),
        (0..crate::workload::EDGE_NODES).map(|n| format!("n{n}")),
    );
    let tick = probe(tr, "probe.gossip.tick", || gossip.tick());
    out.push(("gossip.tick_us", us(tick)));

    Probed {
        metrics: out,
        server_prompt_us: us(direct_prompt),
        hit_path_us: us(parse + extract + get + encode + serialize + sha),
        h2_request_work_us: us(direct_prompt + hpack_enc + hpack_dec + h2_frame),
        h3_request_work_us: us(direct_prompt + qpack_enc + qpack_dec + h3_frame),
    }
}
