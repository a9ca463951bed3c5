//! Span timing with parallel wall and virtual clocks.

use std::time::Instant;

use crate::metrics::DURATION_BUCKETS;
use crate::Registry;

/// A timed span over one named stage.
///
/// A span always measures real elapsed wall-clock time. When the operation
/// also has a *modelled* duration — e.g. the generation seconds predicted
/// by `sww-energy::cost`, which do not elapse for real in the simulation —
/// the caller passes it to [`Span::finish_with_virtual`] and the two
/// readings land in sibling histograms, both labelled `stage`:
///
/// * `<family>_wall_seconds` — host time actually spent, and
/// * `<family>_virtual_seconds` — modelled time.
///
/// The caller names both series in full and the registry they land in
/// (its owner's; the process registry below `sww-core`). Keeping both
/// lets an exposition distinguish "the simulation says this costs 3.1 s
/// of GPU time" from "computing that answer took 40 µs here".
#[derive(Debug)]
pub struct Span {
    stage: &'static str,
    wall_start: Instant,
}

impl Span {
    /// Start timing `stage`.
    pub fn begin(stage: &'static str) -> Span {
        Span {
            stage,
            wall_start: Instant::now(),
        }
    }

    /// Finish the span, recording wall time into the histogram `wall`.
    pub fn finish(self, registry: &Registry, wall: &'static str) {
        let seconds = self.wall_start.elapsed().as_secs_f64();
        registry
            .histogram(wall, &[("stage", self.stage)], DURATION_BUCKETS)
            .observe(seconds);
    }

    /// Finish the span, recording wall time into `wall` and the modelled
    /// duration into `virtual_time`.
    pub fn finish_with_virtual(
        self,
        registry: &Registry,
        wall: &'static str,
        virtual_time: &'static str,
        virtual_seconds: f64,
    ) {
        let stage = self.stage;
        self.finish(registry, wall);
        registry
            .histogram(virtual_time, &[("stage", stage)], DURATION_BUCKETS)
            .observe(virtual_seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_both_clocks() {
        let registry = Registry::new();
        let span = Span::begin("unit");
        span.finish_with_virtual(
            &registry,
            "t_span_wall_seconds",
            "t_span_virtual_seconds",
            2.0,
        );
        let text = registry.render();
        assert!(text.contains("t_span_wall_seconds_count{stage=\"unit\"} 1"));
        assert!(text.contains("t_span_virtual_seconds_sum{stage=\"unit\"} 2"));
    }
}
