//! Golden pixel digests: the generator's output pinned **across commits**.
//!
//! Every other bit-identity gate in this repo compares two paths of the
//! *same* build (tiled vs scalar, batched vs single, h2 vs h3), and the
//! benchmark's oracle is computed by the build under test — none of them
//! can see a kernel edit that changes what every path produces. This
//! file can: it holds sha256 digests of `generate` output and of
//! `codec::encode` of it, over every model × texture class × three
//! resolutions × two step counts, plus one `upscale` output. The digests
//! were recorded at the commit *before* the noise lattice was tabulated
//! (PR 13) and the file passed unchanged after it; a kernel optimisation
//! that moves one byte fails here.
//!
//! The last row is a wider witness, recorded at the commit *before* the
//! Box–Muller draw stopped calling libm (PR 18): one digest over the
//! pixels and encoded bytes of 1 030 further images. That change moves
//! one draw in seventeen by a few ULP, so unlike PR 13 it is not
//! bit-identical below the pixel: a channel is `floor(base + s + n)` and
//! moves only when that sum lies within ~1e-15 of an integer. The sweep
//! is what says none of ~15 M such sums did.
//!
//! The `shapes` row was recorded at the commit *before* decode and the
//! smooth fields began sweeping an image a lattice line at a time (PR 20).
//! The rows above render three sizes; a sweep's new edges are elsewhere —
//! where a strip of columns ends, where consecutive rows do or do not
//! cross a lattice line, an axis one pixel long, the codec's clamped
//! partial blocks — so this row renders 675 images over fifteen widths
//! from 1 to 640 (either side of 8, 64, 128 and 256 among them) and seven
//! heights from 1 to 47, and hashes the pixels, the encoded bytes and the
//! pixels decoded back from them.
//!
//! There is deliberately no bless switch. If output is *meant* to change,
//! the failure message prints the full new table to paste over `GOLDEN`.

use sww_genai::diffusion::{DiffusionModel, ImageModelKind};
use sww_genai::prompt::{PromptFeatures, TextureClass};
use sww_genai::upscale::upscale;
use sww_genai::{codec, ImageBuffer};
use sww_hash::{sha256, to_hex, Sha256};

const MODELS: [ImageModelKind; 5] = [
    ImageModelKind::Sd21Base,
    ImageModelKind::Sd3Medium,
    ImageModelKind::Sd35Medium,
    ImageModelKind::Dalle3,
    ImageModelKind::FluxFast,
];

/// One prompt per texture class, each with a three-colour palette so the
/// palette pick is sensitive to the fbm value at every pixel.
const PROMPTS: [(&str, TextureClass); 3] = [
    (
        "a mountain lake at sunset under a wide sky",
        TextureClass::Banded,
    ),
    (
        "a goldfish drifting through a cloud forest",
        TextureClass::Organic,
    ),
    ("a city street at night after snow", TextureClass::Geometric),
];

const SIZES: [(u32, u32); 3] = [(64, 64), (96, 48), (224, 224)];
const STEPS: [u32; 2] = [1, 15];
const CODEC_QUALITY: u8 = 75;

fn digests(img: &ImageBuffer) -> String {
    format!(
        "{} {}",
        to_hex(&sha256(img.data())),
        to_hex(&sha256(&codec::encode(img, CODEC_QUALITY)))
    )
}

/// Images behind the sweep row: every (scene, model, size) combination
/// of [`sweep_prompt`] × [`MODELS`] × the two small [`SIZES`] eleven times
/// over, each under a different prompt seed.
const SWEEP_IMAGES: usize = 990;

/// Scene `scene` (of nine, three per texture class: the class is
/// `scene % 3`) made distinct, and so differently seeded, by `i`.
fn scene_prompt(scene: usize, i: usize) -> (String, TextureClass) {
    const SCENES: [(&str, TextureClass); 9] = [
        ("a mountain ridge above a lake", TextureClass::Banded),
        ("a goldfish among drifting clouds", TextureClass::Organic),
        ("a city street after rain", TextureClass::Geometric),
        ("the ocean horizon at sunrise", TextureClass::Banded),
        ("a forest path in morning fog", TextureClass::Organic),
        (
            "an architecture diagram of a building",
            TextureClass::Geometric,
        ),
        ("a desert field under a rainbow", TextureClass::Banded),
        ("a portrait of an old sailor", TextureClass::Organic),
        (
            "a geometric pattern of night tiles",
            TextureClass::Geometric,
        ),
    ];
    let (scene, texture) = SCENES[scene % SCENES.len()];
    (format!("{scene}, study {i}"), texture)
}

/// Prompt `i` of the sweep: the scenes in turn.
fn sweep_prompt(i: usize) -> (String, TextureClass) {
    scene_prompt(i, i)
}

/// One sha256 over pixels then encoded bytes of every sweep image, in
/// order: [`SWEEP_IMAGES`] at 64² / 96×48 and 15 steps, then a handful at
/// 224² and at a single step.
fn sweep_digest() -> (usize, String) {
    let [small, wide, large] = SIZES;
    let plan = (0..SWEEP_IMAGES)
        .map(|i| (i, if i % 2 == 0 { small } else { wide }, 15))
        .chain((SWEEP_IMAGES..).take(10).map(|i| (i, large, 15)))
        .chain((SWEEP_IMAGES + 10..).take(30).map(|i| (i, small, 1)));
    let mut hash = Sha256::new();
    let mut images = 0;
    for (i, (w, h), steps) in plan {
        let (prompt, texture) = sweep_prompt(i);
        assert_eq!(PromptFeatures::analyze(&prompt).texture, texture);
        let img = DiffusionModel::new(MODELS[i % MODELS.len()]).generate(&prompt, w, h, steps);
        hash.update(img.data());
        hash.update(&codec::encode(&img, CODEC_QUALITY));
        images += 1;
    }
    (images, to_hex(&hash.finalize()))
}

/// Widths of the shapes row: one and two pixels, either side of a codec
/// block, of a half and a whole decode strip and of two strips, and two
/// that are several strips with a ragged last one.
const SHAPE_WIDTHS: [u32; 15] = [
    1, 2, 7, 8, 9, 63, 65, 127, 128, 129, 255, 256, 257, 300, 640,
];

/// Heights of the shapes row: short and odd, so consecutive rows skip
/// lattice lines at the small end and share them at the large end.
const SHAPE_HEIGHTS: [u32; 7] = [1, 2, 3, 5, 9, 17, 47];

/// Images behind the shapes row: 45 rounds of every width.
const SHAPE_IMAGES: usize = 45 * SHAPE_WIDTHS.len();

/// One sha256 over pixels, encoded bytes and decoded pixels of every
/// shapes image, in order. Image `i` of round `r` has width `i % 15` and
/// model `r % 5`; its height, step count and texture class are indexed
/// by `i % 15 + r`, so they drift one place a round against the widths
/// and every width meets every model × class, every height and both
/// step counts.
fn shapes_digest() -> (usize, String) {
    let mut hash = Sha256::new();
    for i in 0..SHAPE_IMAGES {
        let (column, round) = (i % SHAPE_WIDTHS.len(), i / SHAPE_WIDTHS.len());
        let drift = column + round;
        let (w, h) = (
            SHAPE_WIDTHS[column],
            SHAPE_HEIGHTS[drift % SHAPE_HEIGHTS.len()],
        );
        // Past the sweep's prompts, so no seed is rendered twice.
        let (prompt, texture) = scene_prompt(drift, SWEEP_IMAGES + 40 + i);
        assert_eq!(PromptFeatures::analyze(&prompt).texture, texture);
        let model = DiffusionModel::new(MODELS[round % MODELS.len()]);
        let img = model.generate(&prompt, w, h, STEPS[drift % STEPS.len()]);
        let encoded = codec::encode(&img, CODEC_QUALITY);
        let decoded = codec::decode(&encoded).expect("the codec reads what it wrote");
        assert_eq!((decoded.width(), decoded.height()), (w, h));
        hash.update(img.data());
        hash.update(&encoded);
        hash.update(decoded.data());
    }
    (SHAPE_IMAGES, to_hex(&hash.finalize()))
}

fn render() -> String {
    let mut out = String::new();
    for kind in MODELS {
        let model = DiffusionModel::new(kind);
        for (prompt, texture) in PROMPTS {
            assert_eq!(
                PromptFeatures::analyze(prompt).texture,
                texture,
                "{prompt:?} no longer exercises its texture class"
            );
            for (w, h) in SIZES {
                for steps in STEPS {
                    let img = model.generate(prompt, w, h, steps);
                    out.push_str(&format!(
                        "{kind:?} {texture:?} {w}x{h} s{steps} {}\n",
                        digests(&img)
                    ));
                }
            }
        }
    }
    let src = DiffusionModel::new(ImageModelKind::Sd3Medium).generate(PROMPTS[0].0, 96, 48, 15);
    out.push_str(&format!(
        "upscale 96x48 x2 {}\n",
        digests(&upscale(&src, 2))
    ));
    let (images, digest) = sweep_digest();
    out.push_str(&format!("sweep {images} images {digest}\n"));
    let (images, digest) = shapes_digest();
    out.push_str(&format!("shapes {images} images {digest}\n"));
    out
}

#[test]
fn generated_pixels_and_encoded_bytes_match_parent_commit() {
    let rendered = render();
    if rendered == GOLDEN {
        return;
    }
    for (got, want) in rendered.lines().zip(GOLDEN.lines()) {
        if got != want {
            eprintln!("drifted: {got}\n   was:  {want}");
        }
    }
    panic!("generator output drifted from the recorded digests; full table now:\n{rendered}");
}

/// `<model> <texture> <w>x<h> s<steps> <sha256 pixels> <sha256 encoded>`;
/// the `sweep` row is one sha256 over both, image after image, and the
/// `shapes` row one over both and the decoded pixels.
const GOLDEN: &str = "\
Sd21Base Banded 64x64 s1 9832092ed02081a5c6d0b4475d03a53adadb0da866376f7576944de83f075ef1 dcb092122ebbad5b380c1ab02270dd186c1723fefc7de203a34ce75e6a3980a2
Sd21Base Banded 64x64 s15 5dee1910a9bfb540d00c551fe3a7dc1ae04e43f79c381d19b27528c09df112c7 a84507d4551b8f5945e52588e59cbc626398cb64bddad28b1b12930ffaefd43f
Sd21Base Banded 96x48 s1 616533ccdaea6f0b4da5c0313c4e450dc8abbfa05220c3dee7514c0c27f7f168 ce245e228022eec6c0180f7b772003de69e7202576faa7ea73e935fe5bbb47f1
Sd21Base Banded 96x48 s15 77fbe1fa405803b3dc0754b996b2440d0be1da2cb91eb92eea0d3d80c266759b 67f395c87d090127875d8dd719c022fb991502dbb2634310005320c3ec041d43
Sd21Base Banded 224x224 s1 690b5644c303ea3b846b9a99d8314de338cc84994837e50447366d770a74ee94 d27f1ddb980f067bee35096790b474c0caae07801650d56170bd8bda1d75e3a2
Sd21Base Banded 224x224 s15 4fde8ef2f4517ec1bac37736ffc0c40976f58d5200b6fd376c55dff9017d4f81 16f5d0d248078e3eac8005aa55de2500ff1985304a0f91875ddbb7c2a8680b04
Sd21Base Organic 64x64 s1 9a0633a1a4a258db52654bd619a4ca8e90384de0438dbc1af84f83f04d5810fe d1008e701cfa20a9febd57e5617a83c8e9d15cbf2036c54c747e232b943c485d
Sd21Base Organic 64x64 s15 7505fe42c0188780e4fed57b0221395bb4f42a9bd2a503431ac106f0d4fc3d99 228ea67b7f8383053f99f867fc94d2a7264074b3a5a3b2acb90535dde3e8471a
Sd21Base Organic 96x48 s1 1e01674dfea667aec75da4024f1250778f849ab19c4683ac636d3b3e9833ae79 19c58203f1c6b8c06d2f45138bd537b8d9d09e2ade1e0021ce69cf2d41eae4ad
Sd21Base Organic 96x48 s15 6718f511d7430c72d3bebac25377902d157cdb2d2f02a678699f35d9ae45902e 95933c560f452d1870ddc62235c06f35054a73b76f24aa248d11af7b58f576e9
Sd21Base Organic 224x224 s1 e11a5df899470c100fd68654cbbb912432ec7172a5b67105f4528d5ea71ac447 f765e46c3440e87b85750df71664b849435b706cca3b2d8bc9ede39a533fa04f
Sd21Base Organic 224x224 s15 f68bd2298800dbd28a530c0fe30f7b95c760b80186b740a40dd30f484a937520 bb186d43b251cf2a9479eb61b3344f249d4483944ed36fe6d15cf6d1095b555a
Sd21Base Geometric 64x64 s1 0ad0e8270c32cead743033603a2a5033467124b8768e636f2fa8090c097b23c6 a2baacdef610551d94fb2edad13069730a4b74ac59a135f6c6536c20591c9835
Sd21Base Geometric 64x64 s15 6aaa55148dddea0bc6cdc3c6df0d4688d87b7473a05b72ce22ebcccd32333a29 64c6a3ccaf24083e044cd9c14c586ee5f7118811092cec4ab935558d42a019a5
Sd21Base Geometric 96x48 s1 fc319c3f63b9280d8bfd15b86114008738723f63fb1f2489e76b5e344e06bdcf 6a1bc37d9c5ed2acc86550734d1ad5570d71085a3017665929408074d2ed4169
Sd21Base Geometric 96x48 s15 a2c25560a4359f09891f1108229c60efbbe31b12d7c019742d411e66461cab0c b7b90d248ed6b6996d627d11fb643b7efb378d6cdc6b2df836538ec950e6b711
Sd21Base Geometric 224x224 s1 6a719d0ce89d9426127f177c65a87e85c257c39e4ca336d02bf6977a0ffdef10 1cb1ff2fb9806dc287ef68f0d5a3cb8cfa270c715745260111add2773ec4b40c
Sd21Base Geometric 224x224 s15 d0c78630e2d45c366d039616951112df83955597620c903e16e68d38eff5b3f9 7cd2c5f6bc630fd2d8c77b532aa5872827143c4d9efa8f3ccd4b292f318dd175
Sd3Medium Banded 64x64 s1 89b732c7e1ce602a14437dc23d5181cd27a48458eafa49758d67baffca4230c8 067d1ec3bf9da2f4bb781e318b0f3cf995a637623b8a27c243069b5f2169675c
Sd3Medium Banded 64x64 s15 b2f9141ab096428eba88ed503374b6483b1083ad2e6a182d6d466b45099020ae cd0913846b63d77e2375ceeda40f76c2981495b9cc722fb7c34ca973f29c265f
Sd3Medium Banded 96x48 s1 a83049b7c154e04c415ce6661d78bbfc69d5241735777a0da90a6dfdf6b5b444 650811f6bca2d901a37a4c2e8ceb5e4f2286d099d48ec92c12e1dd37476ec4b3
Sd3Medium Banded 96x48 s15 9e366de4b35940e1c0d8ca4f00e908ee18f68ad16d712032d17e8f94839830cb 72fb47773b08f9bbe08a13826795bd86308a5565499bb8c9fe496abbf3b34df2
Sd3Medium Banded 224x224 s1 7b47495886032d6121a41040d20730c0c9e7d3318677de23cadf1e68f9744b8a 37691aada93b0c4330c261bb54635fe046b04bd667a535b225fcf5f201b7eab1
Sd3Medium Banded 224x224 s15 bc230b3b35408e289b45f6140e8071dcadfd75aee4813d9276d073394b2e797c 6b9ffbf7ddd2c995e44ee7b31aaa24af26873dd06be5ae1e8cea83d7ea891ae6
Sd3Medium Organic 64x64 s1 37d1c90b7485820f7b6e2300e3323d4d4e5b6b291c01571907949b4b584da3dc daa55bbbbb87891f240640dadfcc11ae7d43c4c4f416d9069341552127fd6d35
Sd3Medium Organic 64x64 s15 f72b4b382420cdd94956cb8732c26cfd93ecad0fa847bf6ead9404c6d9e3ab78 a4e4b62687b3616823e392fa8784a027dfd305b7fa02205a755eff674a67f695
Sd3Medium Organic 96x48 s1 9dce284dadc340cf9867e3f2071615cb2ac172e9c547cc5c2950c71c97f1d6cf b0b8a0fa3c53178d950b76db9c9b0ea760751dd416a6264c9acc8f5e433612d9
Sd3Medium Organic 96x48 s15 a6ea5bb57887992ecdd9719f6a1da946bb5fd2f0cb34a1449e0f66cb6fd75656 4f780733d3804b6f54eafb48fadce110a1316998256a169237f452c0883ac4ea
Sd3Medium Organic 224x224 s1 858379e32ae5234222ad6a17e2a2104a0b5d0cc585186f761698673b7cb59ad6 a6c1b9623293ccce27ec52579a495f7eb1b22ee05362a528fc6d68bd67c1bf9c
Sd3Medium Organic 224x224 s15 c81ded5624855a387695b1ceb1733a8ef1fdd60c0ff644de3273f1ed0438eb98 f78c2cbbe707a542b0dc8de993b14711f675f855019ff00a9ded4b0eb41501d2
Sd3Medium Geometric 64x64 s1 a0bf50580d0f1b9be197b17e0e2d4495f26cd122844e24972954c2e7acc5b20e 116be2e3c21a15663fb82a38981a160af0af648d5cbc9a0f0c739c85f7ba929d
Sd3Medium Geometric 64x64 s15 ec0b53156f0f3b74ecdd8ff2ddb0f248f8efe4ebe185affd053b8ff9e1202f3a 6f3585b26212c01e39191be7f24c82fb01f94b3c09783d5cc929ad634ba9dce8
Sd3Medium Geometric 96x48 s1 7108c5e32f1d383bca157f2c705da9fb7cea5a0c096ac110adcbc99ee7d2373b 8ab9117cf17129ba4d67334e3fe1e3dd3549a7544d2cfe3126d83c73966e83c6
Sd3Medium Geometric 96x48 s15 5f1fe69dc14456af0d468b56508d2a4c5656f7fad42b7be44a8ee8c3b61563a4 a7ac51e6977abd741e772cc4a4a8ebf92d71f4368e7cc2265a8bfd4d85b8e8dd
Sd3Medium Geometric 224x224 s1 4e2e261c6eeb47fa14542a68bef08bd176b39ccb9eb61936d0a284e5d94f8491 8ff6cc725e7b7439d6595994ed3c120f6404f79982f56cd4535506575d24a3fd
Sd3Medium Geometric 224x224 s15 00608bb8e9266c43f418be82e0479474cf750994d350e5b499073a1d3e03f44b e56ea7bb802859b2477fdda6fe36077879214d177ae8f1ba252849117667ff3e
Sd35Medium Banded 64x64 s1 e5344805809601d6121971d8baf21c2e648e6bf946621d3a36f09fd2e83b8fd4 255227a50b3ef7c74fb5b49c5b44db7019a3394a2906494f3fa5b7c00490a578
Sd35Medium Banded 64x64 s15 710915b549f176f04f3346eade7391ca57c88820f346c065fe664f26ba9c6319 6585a4320f777b8fe0948ed4463b323c4588d922be32da34eb4c39b4ebe7586e
Sd35Medium Banded 96x48 s1 2f7ad4d1c1f70cbf7e861f9f65b3555cdbaca8009672cd7093f5c083969c1d73 d9d4cfc60a6ba65462c711198de65682dba2bac553b61a8a48bb72c6b734b655
Sd35Medium Banded 96x48 s15 c43d49167224041d5deba798b66a605410709cd0c65953373754ab965f42b1d8 cc3c27fce686ec1ee4eb95168ae6969c26f65cfbb593d4b1a198305d2f642986
Sd35Medium Banded 224x224 s1 e6601019780a29b736304df5601d44dc6aa5cf765de563f8b32beb0e02cd3554 ba09ba5cd7b47d3493987b029b571a805855b6b141dc122b26503d67ae94ba33
Sd35Medium Banded 224x224 s15 79b2484acfc9c4aaf915d030982600acbd89e617ddc5810abbd57a0eda49eb70 885c76c3df88f729a107453fdf63ca87e957229201572ad2360bfdf911e458c0
Sd35Medium Organic 64x64 s1 87ae8be426d8da2d682595c9f5ac10eca807a898255b0e27097de6a424db5cb8 9a00dd53b7c4ad6df392a2aead973758c4f6de255d28ee0c8c2f51420c480c55
Sd35Medium Organic 64x64 s15 0354ee3bfec3ae9ef92b7459fdea8c289dc58a0eb55023acffd616d5abbe0b06 46050777af638e36166f6f67cbe583791ad0a7464aaec77f2ae539cc346ff7fd
Sd35Medium Organic 96x48 s1 029ff9658f5934309ad0770eccc8bbd1b39d59d75156e8a41e25a6bec0dde25f c65b2b2993b60d283ead1811140c3c2257ab2b8c80e5a234e414d5ae053fe821
Sd35Medium Organic 96x48 s15 f2a1fac0eed2d860e3a20673986cbc3e64d45f4ccc981ba6d6bdc798c2f5d954 581793ba7eb7d6865f2adf6f08ce5d02c0aeb98697ee4ce8f3c362e306bca35a
Sd35Medium Organic 224x224 s1 5ad44810dee2524282a4a34729cfc4423e74e31e55df2622b419e71d27879e76 9fbdb6cedcac238dc3a0eb8a21836733da3617b0a8d51cf4298b327cf28261d7
Sd35Medium Organic 224x224 s15 da0c3a0e3bd80accae9e5b106908ed778ea006e760696f8e7c56648a8b7e5356 f8cc6b4b217b86706b0a82167d958f2b54d475c2bc845506d743b19ae029165f
Sd35Medium Geometric 64x64 s1 a6520835cc418f50acce482ac2d8b470dbc5342aa2afe1f1dc09b4ccb4d6242e ad70cf6bd3ff0b763987f70841ecf457cec3ebb7631df8b1891a6c16ed28720a
Sd35Medium Geometric 64x64 s15 3c86bbde671e230e320bf425a02e7a622534c30d185b91e9b7da09d167fa8091 f8a2276bb951e3daff4cb752e96e052a836359e3a7235685fcac51237b90570a
Sd35Medium Geometric 96x48 s1 80da87d6aa01cda70b237c8929360d70858577a922f0635f6f330fa710979981 006d36d9fe8d9d530ee39cf49b2823aa7773429d3c7abd99060fe4de05305689
Sd35Medium Geometric 96x48 s15 5194f68ea7a7693974790ecc24ba95563b31aa98cce47e7cec05279a7872bbce 8d565363a6f35b682fff04f21df5e6b7f76b52c3fb16f39c45742e556bc844a5
Sd35Medium Geometric 224x224 s1 dbf9bc31df91eea6bb4a52c83da98867eb1dbe930058463dfcdd4e7f62f4dd7c 6bad0e0853c2ed3fe890878551a8d2459d3fb9cf7bb7ccf7d67244e108f57d0b
Sd35Medium Geometric 224x224 s15 7b619fc222c980d459753ca8380a880cb33fda67cf6af72db523caaf67cdab9f 80840c4b42b5dbcaef4ddfc8c4ba9d752804e93462df84b507158bd665357b2a
Dalle3 Banded 64x64 s1 91bfed8efb4e0f1209ebecd41c881d23873bdeb9966b69f1c3d99347a8761fd3 33e5b3b237af3aaa552e882f6507c586be80609ce39bf650e4588ef1fe3a981b
Dalle3 Banded 64x64 s15 942bd4ded973c6f2646b9206842684a8ac1beb23b7f4cf38b903eb8d92117cf0 b259ec7da647be26541ea8b250ab6d800a737242ec3b07f628cc85f8691c3e69
Dalle3 Banded 96x48 s1 34d341c35f8bcc980aed0e1d908abe2949211335ad87bb6780a1446034413379 798595a0058fbe71971d3cf36c0006dd66b68b5c1978b8ed667ed6cd430aab68
Dalle3 Banded 96x48 s15 3272766dad9feb30c9b9cd910963465f0331b162c62f0cade1b7e424ee7bb7e1 d953872e65312c4f703d4bcf025c64cfc3c6160d7f573dc337194e67950b19dd
Dalle3 Banded 224x224 s1 2459c35f00834f846151afd9bbf83bda8bace6e1360b99edae25b58deda496a9 048b06811253618fdb7c6bd1afac43ce8024faf308537f97e4b08bbe2145ffb1
Dalle3 Banded 224x224 s15 6ca0711864b9be948498097d156a3d5e92823e18356bc75443643acbc18c6c16 518fdb45b13721e8155dd1fcb3bbf03bdd98a74b28ce5612385a93c9b4348af0
Dalle3 Organic 64x64 s1 3aa21aa6e39c1236cc9d8aaf2599fd56c40c401fc5e89092fe517513ed82860e 437ddb4accc2c7c3a20da463b1923050bf5870836d3ab4b152e080dd59080333
Dalle3 Organic 64x64 s15 0c631ae6603b9d56ac715e43c2eff49eaa607b99cb49dcbf4cf532d6df7e9e1b 83d1e15eb5239c8b8cd3a5e2047da0fb0f936d9fcbf500fed5bcbc703897511a
Dalle3 Organic 96x48 s1 6423489f0c0dfa2810673ddea25e307ae158aaef2e34efb4fe7d737a18e8701c 8a4272ab1421ce87b110683df3dd0561c989a442b523fb2e59e52f89b536a5e5
Dalle3 Organic 96x48 s15 5390a54a4addc6d0bd2538c1dffb09c610cd23fe28f32d1068b3b07880ab7726 1c8cca7aaae31fc2d60e44af983ff84d8341cc4bc745b08ee5fda68a2fd1c820
Dalle3 Organic 224x224 s1 205130673fed8afc1ff26e780ad62e0b82cb74fa30c03d98e9ee094efdbf7c20 76e37bc88b414699c431217cdc6b2e76298a2ef23abfc869c286ec17399d2e9e
Dalle3 Organic 224x224 s15 7a50ed839c564d8ecd93b2129f9a475cd596ecc247de90dfb3f35ef957551cbf dd5bf5fd90a770fd8c26344bb5b00126956d10f7d224a90ba71d46d7515e1a16
Dalle3 Geometric 64x64 s1 373b9191254708a0f794ffb0a80eb478b2f2a1fe9ddc9a84dc97886d2bdc9ba7 cd191ba22477cdd67fced4f11f97a144348d744c7c4dce74593a1a5af89f2914
Dalle3 Geometric 64x64 s15 211da3bf50613bccba4aebfc0a79b51a711077b48da76994e64281bd16ee739d ad330b6a3c56a2f3a0047b2bc1e1c15f603a4b157673e15ed74345b863a0990a
Dalle3 Geometric 96x48 s1 b28297f8e184903f48a0eff94033aaefaa498516b3ce0799fa0608ba2552eeda 28db033d62c0a2572e0ef1e8b676fb9e790c02208f3d33863badd5f5ab493501
Dalle3 Geometric 96x48 s15 7c72047d5780a7b9c817541199128e02602c26f1a87eb38b6aa22bf09d0c756f 98ad073052279969b572d24f8ce238188bfdbc4bece2c4d9a019f8cce2b0d882
Dalle3 Geometric 224x224 s1 40f011c3e445b143d5e9497637765c4d9d7a58b826eba9f7faab17319b9e4880 3345a4b552a056d28ccad923480a84469b9c64258c7db6a82ac61e130c2068f8
Dalle3 Geometric 224x224 s15 9fd1581de8d2db40f708dc5640359ba257a082d39a26f379e7c6634866fe36ae 1abaa697b8042583f2b93f719c77f6496a4c5ac6ca27eb6958d19953acf20963
FluxFast Banded 64x64 s1 8729b90a24ddde2c7c49ece57dc5f90d9ea0a49ef93848c46be711299f5288c6 c2b1d92d4d2273eed9d9801db969d1dcc1d3d16f6d44219d95aa688dacc96916
FluxFast Banded 64x64 s15 602a44781eb4ab709ad354980157255c35faf7f8da25ae995c5155d232a3bfda 2e2ab388c08425f5131560ca0e97edad2ac52d2aafa71d6ae63a569b739e3a42
FluxFast Banded 96x48 s1 ec877f1492dbc05c3d7249b6fdeb3ee3fcff589673df8a1e61ea8bb6dec8734c e65fd7ce28bb575c00802f8c959f4f53eea52f3b287cbc368e0277506b1fef3c
FluxFast Banded 96x48 s15 1b1d1cebc9038d337c84e39e7871658f43883cdb0b788eed6e75ba80a3ce4cc8 818a409215f0f974f22d98263fac3663e55316ee84f17ade7ced7ed44a249ff0
FluxFast Banded 224x224 s1 f55210b4532e7c3065b8ea9faceacc296ad0679b836def79fdbd89b5d24cdb7f f1fe00122728345b843c076b32e48ba59529080bb3efa475c8a9161ddb04d64c
FluxFast Banded 224x224 s15 a2b7dd6d94cb98019110cc266c4656b9f4995e67bd1e4b45abd6e7d87ff4d6ba d37dc048ac136a9105b34eba097525d0690184b53200c457e9a357a92f97ff67
FluxFast Organic 64x64 s1 04a1c03fc73583dc0dae044975ed04d0ec81341f4a688132514755c9b10fcefe de4963c38e9c84da10025c49377fd0ef2050007ce7f2bd620c05f5ee2f410b23
FluxFast Organic 64x64 s15 82392079933f7631c2660a15ca8282e784b5800fa6e5cbb1a4f772eccf439fe9 4919030b40d235206a96c7609a1446670e9c47456889f94a0a7c472ab6d3e9f0
FluxFast Organic 96x48 s1 4b6fa0b19b23afc3357cef7347770811f366903ff8e76cc6d60ed345f99d8a3b 5305d21de10a3976f2861a392f90a3bacd19463c113af2112fa9465f39cf0fdb
FluxFast Organic 96x48 s15 980f925f608eb5f7df73f0a52fdcd1b6f5b335dcbe361974299e5e25fe8b0abf a644fbc9fdb7e270e8ace643dbaef20ea616d537ce1e7e76ace8ff09f5e50450
FluxFast Organic 224x224 s1 4c71d31429dba8092fa4f2d9104462c6cbb7a1243d0b2a879bcfabf623f139ac 14fd8294c3d4cc64f72f3e9b56f1d8c02e550c483d772d52e7b02ab7c6f2810a
FluxFast Organic 224x224 s15 bc9c8fff8591a68a6fb16f81291584e6ad4f1be8c6c1d7db8cd148df6408996a adcc6d1c0106393d19986d8aef7fcb4e9c6d8237c5da71e735b47e2fe4870e88
FluxFast Geometric 64x64 s1 e4f5b1cabe47316c0421794317e62438c985e4d7ccc61cf3b6428dd5bdd7a675 33564b9e117676b5a978c9a6205391536d2ef7fd158b1e7f9a4057df1b2a33e9
FluxFast Geometric 64x64 s15 b4504b04e34ec18bc27c94955a046a70ecd9502565e6bb5fbda1b76b2d698902 66e21a760446484ff05daf1fbbb5ea6c597e56b7cea9049f554d9ef2b1673536
FluxFast Geometric 96x48 s1 50d76528719ee5502ff5f150c7f8bebd2c63a38d4de86399c3c42c44a1706f49 376922770d8fc33d8fd7bbc6b9140787d4b45307cef63a35d54a34d559e27754
FluxFast Geometric 96x48 s15 0528a42c09537a480892c4fa571431ced3b4fe82cf1c2e8ca7b659735cffb9bf 2f5f5c7706e5ba334b741d240d7bfc871e92b201b7eaacafd950a2fdf1001e62
FluxFast Geometric 224x224 s1 361dd644d91c49c830ef9d559b5e0d0094b116332c994750c48057cd98ff0270 f4a4bfbf3fc312046780ff7cd6db8606d694f0e9226bd1bd919f2029bbae3dd0
FluxFast Geometric 224x224 s15 b74ecf93e4573c9067098baa388335d8d435f5890ee9db83625e177247268116 ae2461336b91266bff768a6026cda0e1413891fd5cb7f27d70c12f23bc33cb7a
upscale 96x48 x2 0d8c171ea25053dc3869b765f3c1df2f7064f91184cb3cc4cc3acc3a487b6e7b c0de726d66fe223da55e42538af02a3b2e992cc0a3f41c15c856cf680a86cc59
sweep 1030 images f550f9f8721c5dcfa34c52338572d74bad9350a8839b7f172fb939f305550bc5
shapes 675 images 974805dc4953afc2aade2f175c5e5c592f5fc0a2f91e6245263accf96a572cc2
";
