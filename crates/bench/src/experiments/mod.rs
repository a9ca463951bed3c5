//! The experiment implementations, one per table/figure (DESIGN.md E1–E21)
//! plus the design-choice ablations.

pub mod ablations;
pub mod article;
pub mod batching;
pub mod compression;
pub mod concurrency;
pub mod edge;
pub mod energy;
pub mod fig1;
pub mod kernel;
pub mod mobile;
pub mod models;
pub mod negotiation;
pub mod resilience;
pub mod transport;
pub mod video_cdn;
pub mod wikimedia;
pub mod workload;

/// The steps along which a hit rate fails to rise strictly: `points`
/// are `(axis, hit rate)` pairs in any order, read in axis order, and
/// each flat or falling step is reported as `"{at0}: h0 -> {at1}: h1"`.
pub(crate) fn flat_steps(mut points: Vec<(f64, f64)>, at: impl Fn(f64) -> String) -> Vec<String> {
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    points
        .windows(2)
        .filter(|pair| pair[1].1 <= pair[0].1)
        .map(|pair| {
            let ((x0, h0), (x1, h1)) = (pair[0], pair[1]);
            format!("{}: {h0:.3} -> {}: {h1:.3}", at(x0), at(x1))
        })
        .collect()
}

/// Serializes this binary's image renders. The genai buffer pools and
/// their `sww_alloc_bytes_total` counter are process-wide: the E17
/// kernel tests assert a zero-allocation window over them, which any
/// concurrent render drawing on the same shelves would break, and the
/// preload ablation compares wall clocks. So every test that renders an
/// image holds this guard. Every server a sweep builds counts into a
/// registry of its own, so no test holds it for a serving-stack series.
#[cfg(test)]
pub(crate) fn alloc_serial() -> std::sync::MutexGuard<'static, ()> {
    static ALLOC_SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    ALLOC_SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}
