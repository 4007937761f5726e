//! Metric registry: named, labeled families of counters, gauges and
//! histograms.
//!
//! The registry is the *cold* side of the observability layer. It holds a
//! `Mutex` — but that lock is taken only at registration time (runtime
//! construction) and at export time (snapshotting). Hot paths never touch
//! it: registration hands out an [`Arc`]-backed handle ([`Counter`],
//! [`Gauge`], [`Histogram`]) whose updates are wait-free `Relaxed` atomics
//! on cells the registry merely also references for export.
//!
//! Registration is idempotent: asking for the same family name with the
//! same label set returns a handle sharing the existing cells, so two
//! subsystems can safely "create" the same metric.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use super::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::lock_recover;

/// The kind of a metric family, matching Prometheus `# TYPE` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Last-value-wins gauge.
    Gauge,
    /// Fixed-bucket log2 histogram.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A label set: sorted key → value pairs (sorted so identical sets
/// registered in different orders unify, and so exports are stable).
pub type Labels = BTreeMap<String, String>;

/// Build a [`Labels`] map from `(key, value)` pairs.
pub fn labels<K: Into<String>, V: Into<String>>(pairs: impl IntoIterator<Item = (K, V)>) -> Labels {
    pairs
        .into_iter()
        .map(|(k, v)| (k.into(), v.into()))
        .collect()
}

/// The handle side of one registered series.
#[derive(Debug, Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// One family: shared kind + help, and one handle per label set.
#[derive(Debug)]
struct Family {
    kind: MetricKind,
    help: String,
    series: BTreeMap<Labels, Handle>,
}

/// The exported value of one series at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(u64),
    /// Histogram cells.
    Histogram(HistogramSnapshot),
}

/// One series in a [`FamilySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// The series' label set (possibly empty).
    pub labels: Labels,
    /// Its value at snapshot time.
    pub value: MetricValue,
}

/// Point-in-time copy of one metric family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilySnapshot {
    /// Family (metric) name.
    pub name: String,
    /// Help text for the `# HELP` line.
    pub help: String,
    /// Family kind for the `# TYPE` line.
    pub kind: MetricKind,
    /// All registered series, sorted by label set.
    pub series: Vec<SeriesSnapshot>,
}

/// A registry of metric families. Cheap to clone (clones share state).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// Locked poison-tolerantly: registration and export never leave the
    /// maps torn, so observing after a panicking registrant is safe.
    families: Arc<Mutex<BTreeMap<String, Family>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or fetch) a counter series. Idempotent for the same
    /// `name` + `labels`; the returned handle updates wait-free.
    ///
    /// # Panics
    /// If `name` is already registered with a different kind — that is a
    /// programming error, caught at construction time, never on a hot
    /// path.
    pub fn counter(&self, name: &str, help: &str, labels: Labels) -> Counter {
        let mut families = lock_recover(&self.families);
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind: MetricKind::Counter,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind,
            MetricKind::Counter,
            "metric `{name}` registered with conflicting kinds"
        );
        match family
            .series
            .entry(labels)
            .or_insert_with(|| Handle::Counter(Counter::new()))
        {
            Handle::Counter(c) => c.clone(),
            // Unreachable: the kind check above pins every handle in a
            // counter family to Handle::Counter.
            _ => unreachable!("counter family holds non-counter handle"),
        }
    }

    /// Register (or fetch) a gauge series. Same contract as
    /// [`MetricsRegistry::counter`].
    pub fn gauge(&self, name: &str, help: &str, labels: Labels) -> Gauge {
        let mut families = lock_recover(&self.families);
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind: MetricKind::Gauge,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind,
            MetricKind::Gauge,
            "metric `{name}` registered with conflicting kinds"
        );
        match family
            .series
            .entry(labels)
            .or_insert_with(|| Handle::Gauge(Gauge::new()))
        {
            Handle::Gauge(g) => g.clone(),
            _ => unreachable!("gauge family holds non-gauge handle"),
        }
    }

    /// Register (or fetch) a histogram series. Same contract as
    /// [`MetricsRegistry::counter`].
    pub fn histogram(&self, name: &str, help: &str, labels: Labels) -> Histogram {
        let mut families = lock_recover(&self.families);
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind: MetricKind::Histogram,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind,
            MetricKind::Histogram,
            "metric `{name}` registered with conflicting kinds"
        );
        match family
            .series
            .entry(labels)
            .or_insert_with(|| Handle::Histogram(Histogram::new()))
        {
            Handle::Histogram(h) => h.clone(),
            _ => unreachable!("histogram family holds non-histogram handle"),
        }
    }

    /// Copy every family and series out for export, sorted by family name
    /// then label set. Each series value is read at some point during the
    /// snapshot (per-cell consistency, the Prometheus model).
    pub fn snapshot(&self) -> Vec<FamilySnapshot> {
        let families = lock_recover(&self.families);
        families
            .iter()
            .map(|(name, family)| FamilySnapshot {
                name: name.clone(),
                help: family.help.clone(),
                kind: family.kind,
                series: family
                    .series
                    .iter()
                    .map(|(labels, handle)| SeriesSnapshot {
                        labels: labels.clone(),
                        value: match handle {
                            Handle::Counter(c) => MetricValue::Counter(c.get()),
                            Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                            Handle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                        },
                    })
                    .collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_per_label_set() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("ltc_x_total", "x", labels([("shard", "0")]));
        let b = reg.counter("ltc_x_total", "x", labels([("shard", "0")]));
        let other = reg.counter("ltc_x_total", "x", labels([("shard", "1")]));
        a.inc();
        b.inc();
        other.inc();
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].series.len(), 2);
        assert_eq!(snap[0].series[0].value, MetricValue::Counter(2));
        assert_eq!(snap[0].series[1].value, MetricValue::Counter(1));
    }

    #[test]
    fn label_order_does_not_split_series() {
        let reg = MetricsRegistry::new();
        let a = reg.gauge("g", "", labels([("a", "1"), ("b", "2")]));
        let b = reg.gauge("g", "", labels([("b", "2"), ("a", "1")]));
        a.set(5);
        assert_eq!(b.get(), 5, "same sorted label set shares the cell");
    }

    #[test]
    #[should_panic(expected = "conflicting kinds")]
    fn kind_conflict_panics_at_registration() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("m", "", Labels::new());
        let _ = reg.gauge("m", "", Labels::new());
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("zzz", "", Labels::new());
        let _ = reg.counter("aaa", "", Labels::new());
        let names: Vec<_> = reg.snapshot().into_iter().map(|f| f.name).collect();
        assert_eq!(names, vec!["aaa".to_string(), "zzz".to_string()]);
    }

    #[test]
    fn empty_registry_snapshot_is_empty() {
        assert!(MetricsRegistry::new().snapshot().is_empty());
    }
}
