//! The sim-time metrics registry.
//!
//! Instruments are cheap shared handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) backed by atomics; the [`Registry`] owns the name →
//! instrument map and produces immutable [`MetricsSnapshot`]s for
//! exposition. All timestamps are **simulated** nanoseconds (the
//! `*_at` methods take `now_ns = SimTime::as_nanos()`); nothing in
//! this module reads a wall clock, so runs stay deterministic.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{array, JsonObject};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    inner: Arc<CounterInner>,
}

#[derive(Debug, Default)]
struct CounterInner {
    value: AtomicU64,
    last_update_ns: AtomicU64,
}

impl Counter {
    /// Adds `n` without touching the last-update timestamp.
    pub fn add(&self, n: u64) {
        self.inner.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, recording the sim time of the update.
    pub fn add_at(&self, n: u64, now_ns: u64) {
        self.inner.value.fetch_add(n, Ordering::Relaxed);
        self.inner
            .last_update_ns
            .fetch_max(now_ns, Ordering::Relaxed);
    }

    /// Increments by one, recording the sim time of the update.
    pub fn inc_at(&self, now_ns: u64) {
        self.add_at(1, now_ns);
    }

    /// Raises the counter to `n` if it is currently below it. Used to
    /// mirror externally maintained totals (e.g. the bridges' stats
    /// structs) into the registry without double counting.
    pub fn set_at_least(&self, n: u64) {
        self.inner.value.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.inner.value.load(Ordering::Relaxed)
    }

    /// Sim time of the most recent timestamped update.
    pub fn last_update_ns(&self) -> u64 {
        self.inner.last_update_ns.load(Ordering::Relaxed)
    }
}

/// A gauge: a settable value that also tracks its high-water mark.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    inner: Arc<GaugeInner>,
}

#[derive(Debug, Default)]
struct GaugeInner {
    value: AtomicU64,
    high_water: AtomicU64,
    last_update_ns: AtomicU64,
}

impl Gauge {
    /// Sets the current value (updating the high-water mark).
    pub fn set(&self, v: u64) {
        self.inner.value.store(v, Ordering::Relaxed);
        self.inner.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Sets the current value, recording the sim time of the update.
    pub fn set_at(&self, v: u64, now_ns: u64) {
        self.set(v);
        self.inner
            .last_update_ns
            .fetch_max(now_ns, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.inner.value.load(Ordering::Relaxed)
    }

    /// Highest value ever set.
    pub fn high_water(&self) -> u64 {
        self.inner.high_water.load(Ordering::Relaxed)
    }

    /// Sim time of the most recent timestamped update.
    pub fn last_update_ns(&self) -> u64 {
        self.inner.last_update_ns.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket 0 holds value 0, bucket `i` holds
/// values in `[2^(i-1), 2^i)`, and the last bucket tops out the u64
/// range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A histogram with fixed log2 buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros(v)`.
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
        self.inner.min.fetch_min(v, Ordering::Relaxed);
        self.inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Adds a pre-aggregated batch: `buckets` holds `(log2 bucket
    /// index, observation count)` pairs (same indexing as single
    /// `record`s; out-of-range indices clamp to the top bucket), with
    /// the batch's exact totals alongside. This is how the latency
    /// observatory mirrors its lock-free shard-local histograms into
    /// the registry without replaying every observation.
    pub fn absorb(&self, buckets: &[(usize, u64)], count: u64, sum: u64, min: u64, max: u64) {
        for &(i, n) in buckets {
            self.inner.buckets[i.min(HISTOGRAM_BUCKETS - 1)].fetch_add(n, Ordering::Relaxed);
        }
        self.inner.count.fetch_add(count, Ordering::Relaxed);
        self.inner.sum.fetch_add(sum, Ordering::Relaxed);
        self.inner.min.fetch_min(min, Ordering::Relaxed);
        self.inner.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.inner.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.inner.min.load(Ordering::Relaxed)
            },
            max: self.inner.max.load(Ordering::Relaxed),
            buckets: self
                .inner
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    let c = c.load(Ordering::Relaxed);
                    (c > 0).then(|| (bucket_upper_bound(i), c))
                })
                .collect(),
        }
    }
}

/// Exclusive upper bound of bucket `i` (inclusive for the last).
fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        1
    } else if i >= 64 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// Immutable gauge state captured in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Value at snapshot time.
    pub value: u64,
    /// Highest value ever set.
    pub high_water: u64,
}

/// Immutable histogram state captured in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (wrapping on overflow).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Non-empty `(exclusive upper bound, count)` log2 buckets.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`): the inclusive upper bound of
    /// the log2 bucket holding the rank-`⌈q·count⌉` observation,
    /// clamped to the recorded maximum. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (le, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return le.saturating_sub(1).min(self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Pools `other`'s observations into this snapshot.
    fn merge(&mut self, other: HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        let mut buckets = BTreeMap::new();
        for (le, c) in self.buckets.drain(..).chain(other.buckets) {
            *buckets.entry(le).or_default() += c;
        }
        self.buckets = buckets.into_iter().collect();
    }
}

/// Escapes a Prometheus label value per the text exposition format:
/// backslash, double quote and newline must be backslash-escaped
/// inside the `name="value"` quoting.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a `# HELP` docstring per the text exposition format: only
/// backslash and newline are escaped (quotes are legal there).
pub fn escape_help_text(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Appends a `# HELP`/`# TYPE` family header for one metric family —
/// the one exposition-format assembly point shared by the registry,
/// the health monitor's labelled alert series, and the exemplar
/// histograms, so the escaping rules live in exactly one place.
pub fn prom_family(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str(&format!(
        "# HELP {name} {}\n# TYPE {name} {kind}\n",
        escape_help_text(help)
    ));
}

/// Appends one sample line `name{labels} value`, escaping every label
/// value. `exemplar` is an OpenMetrics exemplar suffix (see
/// [`crate::span::Exemplar::prometheus_suffix`]) appended after the
/// value.
pub fn prom_sample(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    value: &str,
    exemplar: Option<&str>,
) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{k}=\"{}\"", escape_label_value(v)));
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    if let Some(ex) = exemplar {
        out.push_str(ex);
    }
    out.push('\n');
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// The instrument registry. Cloning shares the underlying maps.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns a scope that prefixes every instrument name with
    /// `prefix` plus a dot, e.g. `scope("net").counter("drops")` is
    /// the counter `net.drops`.
    pub fn scope(&self, prefix: &str) -> Scope {
        Scope {
            registry: self.clone(),
            prefix: prefix.to_string(),
        }
    }

    /// Returns (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .counters
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .gauges
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner
            .histograms
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Captures every instrument's current value at sim time `now_ns`.
    pub fn snapshot(&self, now_ns: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            at_ns: now_ns,
            counters: self
                .inner
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .inner
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        GaugeSnapshot {
                            value: v.get(),
                            high_water: v.high_water(),
                        },
                    )
                })
                .collect(),
            histograms: self
                .inner
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A name-prefixing view of a [`Registry`].
#[derive(Debug, Clone)]
pub struct Scope {
    registry: Registry,
    prefix: String,
}

impl Scope {
    fn join(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{name}", self.prefix)
        }
    }

    /// A sub-scope: `scope("net").scope("n1")` prefixes `net.n1.`.
    pub fn scope(&self, prefix: &str) -> Scope {
        Scope {
            registry: self.registry.clone(),
            prefix: self.join(prefix),
        }
    }

    /// The counter `prefix.name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(&self.join(name))
    }

    /// The gauge `prefix.name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(&self.join(name))
    }

    /// The histogram `prefix.name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.registry.histogram(&self.join(name))
    }
}

/// An immutable, ordered capture of every instrument in a registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Sim time the snapshot was taken.
    pub at_ns: u64,
    /// Counter values by full name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by full name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram states by full name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of the counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// State of the gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<GaugeSnapshot> {
        self.gauges.get(name).copied()
    }

    /// State of the histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Folds `other` (e.g. another telemetry hub's snapshot) into this
    /// one. A name present in both sums: counters and gauge values
    /// add, gauge high-water marks take the larger, histograms pool
    /// their observations.
    pub fn merge(&mut self, other: MetricsSnapshot) {
        for (name, v) in other.counters {
            *self.counters.entry(name).or_default() += v;
        }
        for (name, g) in other.gauges {
            self.gauges
                .entry(name)
                .and_modify(|e| {
                    e.value += g.value;
                    e.high_water = e.high_water.max(g.high_water);
                })
                .or_insert(g);
        }
        for (name, h) in other.histograms {
            match self.histograms.entry(name) {
                Entry::Vacant(e) => {
                    e.insert(h);
                }
                Entry::Occupied(mut e) => e.get_mut().merge(h),
            }
        }
    }

    /// Renders the snapshot as a JSON object.
    pub fn to_json(&self) -> String {
        let mut counters = JsonObject::new();
        for (name, value) in &self.counters {
            counters.u64(name, *value);
        }
        let mut gauges = JsonObject::new();
        for (name, g) in &self.gauges {
            let mut obj = JsonObject::new();
            obj.u64("value", g.value).u64("high_water", g.high_water);
            gauges.raw(name, obj.render());
        }
        let mut histograms = JsonObject::new();
        for (name, h) in &self.histograms {
            let mut obj = JsonObject::new();
            obj.u64("count", h.count)
                .u64("sum", h.sum)
                .u64("min", h.min)
                .u64("max", h.max);
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(le, c)| format!("[{le}, {c}]"))
                .collect();
            obj.raw("buckets_le", array(&buckets));
            histograms.raw(name, obj.render());
        }
        let mut root = JsonObject::new();
        root.u64("at_ns", self.at_ns)
            .raw("counters", counters.render())
            .raw("gauges", gauges.render())
            .raw("histograms", histograms.render());
        root.render()
    }

    /// Renders the snapshot as an aligned text table.
    pub fn to_table(&self) -> String {
        crate::table::render_snapshot(self)
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Metric names are prefixed with `tcpfo_` and dots become
    /// underscores; gauges also expose their high-water mark, and
    /// histograms expose cumulative `_bucket{le=...}` series plus
    /// `_sum`/`_count`. Every family carries `# HELP` (the original
    /// dotted instrument name, escaped) and `# TYPE` lines, and label
    /// values go through [`escape_label_value`], so under-load scrapes
    /// parse under a spec-strict client.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 6);
            out.push_str("tcpfo_");
            for c in name.chars() {
                out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
            }
            out
        }
        let mut out = String::new();
        for (name, value) in &self.counters {
            let n = sanitize(name);
            prom_family(&mut out, &n, name, "counter");
            prom_sample(&mut out, &n, &[], &value.to_string(), None);
        }
        for (name, g) in &self.gauges {
            let n = sanitize(name);
            prom_family(&mut out, &n, name, "gauge");
            prom_sample(&mut out, &n, &[], &g.value.to_string(), None);
            let hw = format!("{n}_high_water");
            prom_family(&mut out, &hw, &format!("{name} (high-water mark)"), "gauge");
            prom_sample(&mut out, &hw, &[], &g.high_water.to_string(), None);
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            prom_family(
                &mut out,
                &n,
                &format!("{name} (log2 buckets, nanoseconds)"),
                "histogram",
            );
            let bucket = format!("{n}_bucket");
            let mut cumulative = 0u64;
            for (le, c) in &h.buckets {
                cumulative += c;
                prom_sample(
                    &mut out,
                    &bucket,
                    &[("le", &le.to_string())],
                    &cumulative.to_string(),
                    None,
                );
            }
            prom_sample(
                &mut out,
                &bucket,
                &[("le", "+Inf")],
                &h.count.to_string(),
                None,
            );
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
            for (suffix, q) in [("p50", 0.5), ("p99", 0.99), ("p999", 0.999)] {
                let qn = format!("{n}_{suffix}");
                prom_family(
                    &mut out,
                    &qn,
                    &format!("{name} ({suffix} estimate)"),
                    "gauge",
                );
                prom_sample(&mut out, &qn, &[], &h.quantile(q).to_string(), None);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_shared_names_and_keeps_the_rest() {
        let (a, b) = (Registry::new(), Registry::new());
        a.counter("shared").add(2);
        b.counter("shared").add(3);
        b.counter("only_b").inc();
        a.gauge("depth").set(4);
        b.gauge("depth").set(9);
        b.gauge("depth").set(1);
        a.histogram("lat").record(10);
        b.histogram("lat").record(1000);
        let mut snap = a.snapshot(7);
        snap.merge(b.snapshot(7));
        assert_eq!(snap.counter("shared"), Some(5));
        assert_eq!(snap.counter("only_b"), Some(1));
        let g = snap.gauge("depth").unwrap();
        assert_eq!((g.value, g.high_water), (5, 9));
        let h = snap.histogram("lat").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 1010, 10, 1000));
        assert_eq!(h.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 2);
    }

    #[test]
    fn counter_semantics() {
        let r = Registry::new();
        let c = r.counter("x");
        c.inc();
        c.add_at(4, 77);
        assert_eq!(r.counter("x").get(), 5, "handles share state");
        assert_eq!(c.last_update_ns(), 77);
        c.set_at_least(3);
        assert_eq!(c.get(), 5, "set_at_least never lowers");
        c.set_at_least(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn gauge_high_water() {
        let g = Registry::new().gauge("q");
        g.set_at(10, 1);
        g.set_at(3, 2);
        assert_eq!(g.get(), 3);
        assert_eq!(g.high_water(), 10);
        assert_eq!(g.last_update_ns(), 2);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 700] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 706);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 700);
        // 0 → bucket ub 1; 1 → ub 2; {2,3} → ub 4; 700 → ub 1024.
        assert_eq!(s.buckets, vec![(1, 1), (2, 1), (4, 2), (1024, 1)]);
    }

    #[test]
    fn histogram_absorb_and_snapshot_quantiles() {
        let h = Histogram::default();
        h.record(3);
        // A pre-aggregated batch: 10 observations of ~700 (bucket 10),
        // 2 of ~40 (bucket 6).
        h.absorb(&[(10, 10), (6, 2)], 12, 7_080, 40, 700);
        let s = h.snapshot();
        assert_eq!(s.count, 13);
        assert_eq!(s.sum, 7_083);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 700);
        // Rank 7 of 13 lands in the bucket with exclusive bound 1024:
        // reported as 1023 clamped to the max.
        assert_eq!(s.p50(), 700);
        assert_eq!(s.quantile(0.0), 3);
        assert_eq!(HistogramSnapshot::default_empty().p99(), 0);
    }

    impl HistogramSnapshot {
        fn default_empty() -> Self {
            HistogramSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                buckets: Vec::new(),
            }
        }
    }

    #[test]
    fn prometheus_exposes_quantiles() {
        let r = Registry::new();
        for v in [1u64, 2, 3, 900] {
            r.histogram("lat").record(v);
        }
        let text = r.snapshot(0).to_prometheus();
        assert!(text.contains("tcpfo_lat_p50 "), "{text}");
        assert!(text.contains("tcpfo_lat_p99 "), "{text}");
        assert!(text.contains("tcpfo_lat_p999 "), "{text}");
    }

    #[test]
    fn prometheus_emits_help_and_type_per_family() {
        let r = Registry::new();
        r.scope("core.primary").counter("matched_bytes").add(5);
        r.gauge("underload.backlog").set(3);
        r.histogram("lat").record(7);
        let text = r.snapshot(0).to_prometheus();
        assert!(
            text.contains("# HELP tcpfo_core_primary_matched_bytes core.primary.matched_bytes\n"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE tcpfo_core_primary_matched_bytes counter\n"),
            "{text}"
        );
        assert!(
            text.contains("# HELP tcpfo_underload_backlog underload.backlog\n"),
            "{text}"
        );
        assert!(
            text.contains("# HELP tcpfo_underload_backlog_high_water"),
            "{text}"
        );
        assert!(text.contains("# HELP tcpfo_lat "), "{text}");
        assert!(text.contains("# TYPE tcpfo_lat histogram\n"), "{text}");
        assert!(text.contains("# HELP tcpfo_lat_p999 "), "{text}");
        // Every series line belongs to a family that declared HELP+TYPE
        // immediately above it: count families both ways.
        let helps = text.matches("# HELP ").count();
        let types = text.matches("# TYPE ").count();
        assert_eq!(helps, types, "{text}");
    }

    #[test]
    fn label_and_help_escaping() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_help_text("a\"b\\c\nd"), "a\"b\\\\c\\nd");
    }

    #[test]
    fn snapshot_is_ordered_and_json_renders() {
        let r = Registry::new();
        r.scope("b").counter("two").add(2);
        r.scope("a").counter("one").inc();
        r.gauge("g").set(7);
        r.histogram("h").record(5);
        let snap = r.snapshot(123);
        let names: Vec<&str> = snap.counters.keys().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["a.one", "b.two"], "BTreeMap order");
        let json = snap.to_json();
        assert!(json.contains("\"at_ns\": 123"), "{json}");
        assert!(json.contains("\"a.one\": 1"), "{json}");
        assert!(json.contains("\"high_water\": 7"), "{json}");
        assert!(json.contains("\"buckets_le\""), "{json}");
    }
}
