//! The metrics registry: named counters, gauges, and latency histograms.
//!
//! A [`Registry`] is a name → instrument map. Looking an instrument up
//! takes a mutex, so hot paths fetch their handle **once** (instruments
//! are `Arc`ed and free-standing) and then record through relaxed atomics.
//! The [`crate::global_counter!`] / [`crate::global_histogram!`] /
//! [`crate::global_gauge!`] macros cache a handle from the process-wide
//! [`Registry::global`] in a `static`, which is how the tensor and
//! training kernels instrument themselves with near-zero overhead.
//!
//! Components that need isolated metrics (e.g. each
//! `poe_core::service::QueryService` instance) own a `Registry` of their
//! own and merge its [`MetricsSnapshot`] with the global one at export
//! time.

use crate::histogram::{AtomicHistogram, LatencyHistogram};
use crate::json::{fmt_f64, json_escape};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing event counter.
///
/// Increments publish with `Release` and reads use `Acquire`, so a reader
/// that observes an increment also observes every counter update the
/// writer made before it. Cross-counter invariants (the query service's
/// `hits + misses ≤ served`) lean on this; on x86 the orderings cost
/// nothing over relaxed.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Release);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// A last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Default)]
struct Instruments {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<AtomicHistogram>>,
}

/// A named-instrument registry.
///
/// Instrument names are dotted paths by convention
/// (`service.queries_served`, `tensor.matmul.calls`); snapshots emit them
/// in sorted order.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Instruments>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry, used by kernel- and training-level
    /// instrumentation that has no component instance to hang off.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Returns (creating on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(inner.counters.entry(name.to_string()).or_default())
    }

    /// Returns (creating on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(inner.gauges.entry(name.to_string()).or_default())
    }

    /// Returns (creating on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<AtomicHistogram> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(inner.histograms.entry(name.to_string()).or_default())
    }

    /// Takes a point-in-time copy of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a registry's instruments, ready for export.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, LatencyHistogram>,
}

impl MetricsSnapshot {
    /// Folds `other` into `self`. Same-named counters add, gauges and
    /// histograms from `other` win (name collisions across registries are
    /// a configuration error; namespaced names avoid them).
    pub fn merge(&mut self, other: MetricsSnapshot) {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
    }

    /// Renders the snapshot as a single-line JSON object with `counters`,
    /// `gauges`, and `histograms` members. Latency histograms are emitted
    /// as `{"count":n,"p50_ms":x,"p95_ms":x,"p99_ms":x}` with `null`
    /// percentiles when empty (never a false zero). Histograms named with
    /// a `.size` suffix hold count-valued measurements (batch sizes, queue
    /// depths) and emit raw-count percentiles instead:
    /// `{"count":n,"p50":x,"p95":x,"p99":x}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_entries(&mut out, &self.counters, |v| v.to_string());
        out.push_str("},\"gauges\":{");
        push_entries(&mut out, &self.gauges, |v| fmt_f64(*v));
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            out.push_str(&json_escape(k));
            out.push_str("\":");
            if k.ends_with(".size") {
                out.push_str(&size_histogram_json(h));
            } else {
                out.push_str(&histogram_json(h));
            }
        }
        out.push_str("}}");
        out
    }
}

fn histogram_json(h: &LatencyHistogram) -> String {
    let q = |p: f64| match h.quantile(p) {
        Some(secs) => fmt_f64(secs * 1e3),
        None => "null".to_string(),
    };
    format!(
        "{{\"count\":{},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{}}}",
        h.count(),
        q(0.50),
        q(0.95),
        q(0.99)
    )
}

fn size_histogram_json(h: &LatencyHistogram) -> String {
    let q = |p: f64| match h.quantile_n(p) {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
        h.count(),
        q(0.50),
        q(0.95),
        q(0.99)
    )
}

fn push_entries<V>(out: &mut String, map: &BTreeMap<String, V>, f: impl Fn(&V) -> String) {
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        out.push_str(&json_escape(k));
        out.push_str("\":");
        out.push_str(&f(v));
    }
}

/// Caches a [`Counter`] handle from the global registry in a hidden
/// `static`, so hot paths pay one `OnceLock` load plus a relaxed atomic
/// per event.
#[macro_export]
macro_rules! global_counter {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(CELL.get_or_init(|| $crate::Registry::global().counter($name)))
    }};
}

/// Caches a [`Gauge`] handle from the global registry (see
/// [`global_counter!`]).
#[macro_export]
macro_rules! global_gauge {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(CELL.get_or_init(|| $crate::Registry::global().gauge($name)))
    }};
}

/// Caches an [`AtomicHistogram`](crate::AtomicHistogram) handle from the
/// global registry (see [`global_counter!`]).
#[macro_export]
macro_rules! global_histogram {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::AtomicHistogram>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(CELL.get_or_init(|| $crate::Registry::global().histogram($name)))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_are_shared_by_name() {
        let r = Registry::new();
        r.counter("a.b").add(3);
        r.counter("a.b").inc();
        assert_eq!(r.counter("a.b").get(), 4);
        r.gauge("g").set(2.5);
        assert_eq!(r.gauge("g").get(), 2.5);
        r.histogram("h").record(1e-6);
        assert_eq!(r.histogram("h").snapshot().count(), 1);
    }

    #[test]
    fn snapshot_is_a_stable_copy() {
        let r = Registry::new();
        r.counter("c").add(7);
        let snap = r.snapshot();
        r.counter("c").add(100);
        assert_eq!(snap.counters["c"], 7);
    }

    #[test]
    fn merge_adds_counters_and_unions_histograms() {
        let a = Registry::new();
        a.counter("shared").add(1);
        a.counter("only_a").add(2);
        let b = Registry::new();
        b.counter("shared").add(10);
        b.histogram("h").record(1e-3);
        let mut snap = a.snapshot();
        snap.merge(b.snapshot());
        assert_eq!(snap.counters["shared"], 11);
        assert_eq!(snap.counters["only_a"], 2);
        assert_eq!(snap.histograms["h"].count(), 1);
    }

    #[test]
    fn json_shape_and_empty_histogram_nulls() {
        let r = Registry::new();
        r.counter("service.queries_served").add(2);
        r.gauge("pool.threads").set(8.0);
        r.histogram("empty"); // registered, never recorded
        r.histogram("busy").record(2e-3);
        let json = r.snapshot().to_json();
        assert!(json.starts_with("{\"counters\":{"), "{json}");
        assert!(json.contains("\"service.queries_served\":2"), "{json}");
        assert!(json.contains("\"pool.threads\":8"), "{json}");
        assert!(
            json.contains(
                "\"empty\":{\"count\":0,\"p50_ms\":null,\"p95_ms\":null,\"p99_ms\":null}"
            ),
            "{json}"
        );
        assert!(json.contains("\"busy\":{\"count\":1,\"p50_ms\":"), "{json}");
        assert!(!json.contains('\n'), "snapshot JSON must be one line");
    }

    #[test]
    fn size_histograms_render_raw_counts() {
        let r = Registry::new();
        r.histogram("service.batch.size").record_n(32);
        r.histogram("service.batch.empty.size"); // registered, never recorded
        let json = r.snapshot().to_json();
        assert!(
            json.contains("\"service.batch.size\":{\"count\":1,\"p50\":63,\"p95\":63,\"p99\":63}"),
            "{json}"
        );
        assert!(
            json.contains(
                "\"service.batch.empty.size\":{\"count\":0,\"p50\":null,\"p95\":null,\"p99\":null}"
            ),
            "{json}"
        );
        assert!(!json.contains("p50_ms\":64"), "{json}");
    }

    #[test]
    fn global_macros_cache_handles() {
        global_counter!("obs.test.macro_counter").add(2);
        global_counter!("obs.test.macro_counter").inc();
        assert_eq!(
            Registry::global().counter("obs.test.macro_counter").get(),
            3
        );
        global_gauge!("obs.test.macro_gauge").set(1.5);
        assert_eq!(Registry::global().gauge("obs.test.macro_gauge").get(), 1.5);
        global_histogram!("obs.test.macro_hist").record(1e-6);
        assert!(
            Registry::global()
                .histogram("obs.test.macro_hist")
                .snapshot()
                .count()
                >= 1
        );
    }
}
