//! The §3.2 video scenario: negotiating frame-rate and resolution with a
//! client that can upscale, across several content profiles.
//!
//! Run with: `cargo run --example video_negotiation --release`

use sww::core::GenAbility;
use sww::extras::{negotiate_stream, Resolution, StreamRequest};

fn main() {
    let video = GenAbility::from_bits(GenAbility::VIDEO);
    let scenarios = [
        ("1h 4K60 film", Resolution::Uhd4K, 60, 3600),
        ("1h FHD60 sport", Resolution::FullHd, 60, 3600),
        ("10min HD30 clip", Resolution::Hd, 30, 600),
    ];
    println!("client and server both advertise VIDEO upscale ability\n");
    for (label, res, fps, dur) in scenarios {
        let req = StreamRequest {
            resolution: res,
            fps,
            duration_s: dur,
            segment_s: 6,
        };
        let s = negotiate_stream(req, video, video);
        println!("== {label} ==");
        println!(
            "  sent: {:?} @ {} fps ({} segments), client upscales: {}, boosts fps: {}",
            s.sent_resolution, s.sent_fps, s.segments, s.client_upscales, s.client_boosts_fps
        );
        println!(
            "  wire {:.2} GB vs traditional {:.2} GB → {:.2}x saving",
            s.wire_bytes as f64 / 1e9,
            s.traditional_bytes as f64 / 1e9,
            s.traditional_bytes as f64 / s.wire_bytes.max(1) as f64
        );
        let saved = s.traditional_bytes.saturating_sub(s.wire_bytes);
        println!(
            "  network energy avoided: {:.1} Wh\n",
            sww::energy::transmission_energy(saved).wh()
        );
    }
    println!("paper anchors: 60→30 fps halves data; 4K→HD saves 2.3x (7 GB/h → 3 GB/h)");
}
