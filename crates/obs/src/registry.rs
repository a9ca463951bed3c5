//! The series registry: `(name, labels) → metric`. Each owner — a
//! server, an edge router, a client — holds one; [`Registry::global`] is
//! the process registry for what is recorded below them.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::metrics::{Counter, Gauge, Histogram};

/// A fully qualified series identity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SeriesKey {
    pub(crate) name: &'static str,
    pub(crate) labels: Vec<(&'static str, String)>,
}

#[derive(Debug, Clone)]
pub(crate) enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Series {
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Series::Counter(_) => "counter",
            Series::Gauge(_) => "gauge",
            Series::Histogram(_) => "histogram",
        }
    }
}

/// A set of metric series. Resolution takes the registry lock; the handles
/// returned update lock-free atomics.
#[derive(Debug, Default)]
pub struct Registry {
    pub(crate) series: Mutex<BTreeMap<SeriesKey, Series>>,
}

fn key(name: &'static str, labels: &[(&'static str, &str)]) -> SeriesKey {
    SeriesKey {
        name,
        labels: labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect(),
    }
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process registry: what the crates below `sww-core` record
    /// (genai stage spans and buffer pools, HTTP/2 framing, workload
    /// tallies). Every exposition ends with it.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Resolve a counter, registering it on first use.
    ///
    /// # Panics
    /// Panics if the series exists with a different type.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
        let mut map = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let entry = map
            .entry(key(name, labels))
            .or_insert_with(|| Series::Counter(Counter::new()));
        match entry {
            Series::Counter(c) => c.clone(),
            other => panic!("series {name} already registered as a {}", other.kind()),
        }
    }

    /// A counter's count, without registering it: 0 before its first
    /// event (and for a series of another type).
    pub fn count(&self, name: &'static str, labels: &[(&'static str, &str)]) -> u64 {
        let map = self.series.lock().unwrap_or_else(|e| e.into_inner());
        match map.get(&key(name, labels)) {
            Some(Series::Counter(c)) => c.get(),
            _ => 0,
        }
    }

    /// Resolve a gauge, registering it on first use.
    ///
    /// # Panics
    /// Panics if the series exists with a different type.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
        let mut map = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let entry = map
            .entry(key(name, labels))
            .or_insert_with(|| Series::Gauge(Gauge::new()));
        match entry {
            Series::Gauge(g) => g.clone(),
            other => panic!("series {name} already registered as a {}", other.kind()),
        }
    }

    /// Resolve a histogram, registering it on first use with `buckets`
    /// (later callers inherit the registered bucket layout).
    ///
    /// # Panics
    /// Panics if the series exists with a different type.
    pub fn histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        buckets: &[f64],
    ) -> Histogram {
        let mut map = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let entry = map
            .entry(key(name, labels))
            .or_insert_with(|| Series::Histogram(Histogram::new(buckets)));
        match entry {
            Series::Histogram(h) => h.clone(),
            other => panic!("series {name} already registered as a {}", other.kind()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_shares_storage() {
        let r = Registry::new();
        r.counter("x_total", &[("k", "a")]).add(2);
        r.counter("x_total", &[("k", "a")]).inc();
        assert_eq!(r.counter("x_total", &[("k", "a")]).get(), 3);
        // Different label value is a distinct series.
        assert_eq!(r.counter("x_total", &[("k", "b")]).get(), 0);
        // Reading a count registers nothing.
        assert_eq!(r.count("x_total", &[("k", "a")]), 3);
        assert_eq!(r.count("x_total", &[("k", "c")]), 0);
        assert!(!r.render().contains("k=\"c\""));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        r.counter("y_total", &[]);
        r.gauge("y_total", &[]);
    }
}
