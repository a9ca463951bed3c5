//! Prometheus text-format exposition, hand-rolled (no dependencies).

use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use crate::registry::{Registry, Series, SeriesKey};

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// `{k="v",...}` with an extra label appended, or `""` when empty.
fn label_block(labels: &[(&'static str, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn write_series(out: &mut String, key: &SeriesKey, series: &Series) {
    match series {
        Series::Counter(c) => {
            let _ = writeln!(
                out,
                "{}{} {}",
                key.name,
                label_block(&key.labels, None),
                c.get()
            );
        }
        Series::Gauge(g) => {
            let _ = writeln!(
                out,
                "{}{} {}",
                key.name,
                label_block(&key.labels, None),
                g.get()
            );
        }
        Series::Histogram(h) => {
            let mut cumulative = 0u64;
            for (i, bound) in h.data.bounds.iter().enumerate() {
                cumulative += h.data.counts[i].load(Ordering::Relaxed);
                let le = format!("{bound}");
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    key.name,
                    label_block(&key.labels, Some(("le", &le))),
                    cumulative
                );
            }
            cumulative += h.data.counts[h.data.bounds.len()].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                key.name,
                label_block(&key.labels, Some(("le", "+Inf"))),
                cumulative
            );
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                key.name,
                label_block(&key.labels, None),
                h.sum()
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                key.name,
                label_block(&key.labels, None),
                cumulative
            );
        }
    }
}

/// Serialise every series of `registries` as one Prometheus exposition.
/// A family's series stay together under one `# TYPE` line, families in
/// name order and, within a family, registries in the order given, each
/// in label order — deterministic for given registry states.
pub(crate) fn render_all(registries: &[&Registry]) -> String {
    let maps: Vec<_> = registries
        .iter()
        .map(|r| r.series.lock().unwrap_or_else(|e| e.into_inner()))
        .collect();
    let mut rows: Vec<(&SeriesKey, &Series)> = maps.iter().flat_map(|m| m.iter()).collect();
    // Stable: equal names keep registry order, and label order within it.
    rows.sort_by_key(|(key, _)| key.name);
    let mut out = String::new();
    let mut last_name: Option<&'static str> = None;
    for (key, series) in rows {
        if last_name != Some(key.name) {
            let _ = writeln!(out, "# TYPE {} {}", key.name, series.kind());
            last_name = Some(key.name);
        }
        write_series(&mut out, key, series);
    }
    out
}

impl Registry {
    /// Serialise this registry alone in the Prometheus text format.
    pub fn render(&self) -> String {
        render_all(&[self])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counters_and_histograms() {
        let r = Registry::new();
        r.counter("a_total", &[("k", "x")]).add(7);
        let h = r.histogram("lat_seconds", &[], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        let text = r.render();
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total{k=\"x\"} 7"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("lat_seconds_bucket{le=\"1\"} 2"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_seconds_count 3"));
    }

    #[test]
    fn a_family_in_two_registries_renders_once_in_registry_order() {
        let (node, process) = (Registry::new(), Registry::new());
        node.counter("b_total", &[("k", "z")]).inc();
        process.counter("b_total", &[("k", "a")]).add(2);
        process.counter("a_total", &[]).inc();
        assert_eq!(
            render_all(&[&node, &process]),
            "# TYPE a_total counter\na_total 1\n\
             # TYPE b_total counter\nb_total{k=\"z\"} 1\nb_total{k=\"a\"} 2\n"
        );
    }

    #[test]
    fn escapes_label_values() {
        let r = Registry::new();
        r.counter("e_total", &[("p", "a\"b\\c")]).inc();
        assert!(r.render().contains("e_total{p=\"a\\\"b\\\\c\"} 1"));
    }
}
