//! Lock-free instruments and their snapshots: [`Counter`], [`Gauge`],
//! [`Histogram`] (fixed log-bucket latency histogram), and the
//! [`MetricsSnapshot`] exposition (JSON and Prometheus text).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    pub(crate) fn new(cell: Arc<AtomicU64>) -> Counter {
        Counter { cell }
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    pub(crate) fn new(cell: Arc<AtomicU64>) -> Gauge {
        Gauge { cell }
    }

    /// Replaces the value.
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i > 0` counts values in
/// `[2^(i-1), 2^i)`; bucket 0 counts zeros. 64 buckets cover all of `u64`
/// (nanosecond latencies up to ~584 years).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The inclusive upper bound of bucket `i`. The last bucket absorbs the
/// whole top of the range, so its bound is `u64::MAX`.
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// The bucket a value lands in: 0 for 0, else `floor(log2(v)) + 1`, clamped
/// into the last bucket.
fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

pub(crate) struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl HistogramCore {
    fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let buckets = (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let n = self.buckets[i].load(Ordering::Relaxed);
                (n > 0).then_some((i as u8, n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A running timer handle from [`Histogram::start`]; `None` inside means the
/// histogram's registry is disabled and [`Histogram::stop`] is a no-op.
pub struct Timer {
    started: Option<Instant>,
}

impl Timer {
    /// True when this timer will record on [`Histogram::stop`].
    pub fn is_running(&self) -> bool {
        self.started.is_some()
    }
}

/// A fixed log-bucket latency histogram. `record_ns` is three relaxed atomic
/// ops plus one `fetch_max`; the start/stop timer pair additionally pays two
/// `Instant::now` calls only when the registry is enabled.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
    enabled: bool,
}

impl Histogram {
    pub(crate) fn new(core: Arc<HistogramCore>, enabled: bool) -> Histogram {
        Histogram { core, enabled }
    }

    /// Records a duration in nanoseconds. No-op when disabled.
    pub fn record_ns(&self, ns: u64) {
        if self.enabled {
            self.core.record(ns);
        }
    }

    /// Starts a timer ([`Timer::is_running`] is false when disabled).
    pub fn start(&self) -> Timer {
        Timer {
            started: self.enabled.then(Instant::now),
        }
    }

    /// Stops `timer` and records the elapsed nanoseconds; returns them
    /// (0 when the timer was a disabled no-op).
    pub fn stop(&self, timer: Timer) -> u64 {
        match timer.started {
            Some(t0) => {
                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.core.record(ns);
                ns
            }
            None => 0,
        }
    }
}

/// Point-in-time state of one histogram: totals plus the non-empty buckets
/// as `(bucket_index, count)` pairs, ascending.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Non-empty buckets, ascending by index; bucket `i > 0` counts values
    /// in `[2^(i-1), 2^i)`, bucket 0 counts zeros.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`, estimated as the upper bound
    /// of the bucket where the cumulative count crosses `q * count`,
    /// clamped to the observed maximum. 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for &(bucket, n) in &self.buckets {
            cumulative += n;
            if cumulative >= target {
                return bucket_bound(bucket as usize).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of recorded values (0 for an empty histogram).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// A point-in-time snapshot of a whole [`Registry`](crate::Registry):
/// everything needed to answer "what has this component done" — also the
/// payload of the wire-level metrics scrape.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per registered counter, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per registered gauge, ascending by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` per registered histogram, ascending by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The value of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The snapshot of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// JSON exposition: one object with `counters`, `gauges`, and
    /// `histograms` keys. Metric names are static identifiers (no
    /// escaping hazards), but they are escaped anyway for robustness.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_scalar_map(&mut out, &self.counters);
        out.push_str("},\"gauges\":{");
        push_scalar_map(&mut out, &self.gauges);
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                h.count,
                h.sum,
                h.max,
                h.p50(),
                h.p90(),
                h.p99()
            ));
            for (j, (bucket, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{bucket},{n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Prometheus-style text exposition: every metric preceded by its
    /// `# HELP` / `# TYPE` comment pair, counters and gauges as bare
    /// samples, histograms as cumulative `_bucket{le="…"}` series plus
    /// `_count` / `_sum` / `_max`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let help = metric_help(name, "Monotonic event counter");
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }
        for (name, value) in &self.gauges {
            let help = metric_help(name, "Last-write-wins level gauge");
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let help = metric_help(name, "Log2-bucketed value distribution");
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for &(bucket, n) in &h.buckets {
                cumulative += n;
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    bucket_bound(bucket as usize)
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!(
                "{name}_count {}\n{name}_sum {}\n{name}_max {}\n",
                h.count, h.sum, h.max
            ));
        }
        out
    }
}

/// The `# HELP` text of a metric: a real description for the well-known
/// Seabed instrument names, the caller's kind-generic phrase otherwise.
/// Descriptions name components and phases only — the exposition stays
/// redacted whatever flows through it.
fn metric_help(name: &str, fallback: &'static str) -> &'static str {
    match name {
        "slow_queries" => "Queries whose total latency crossed the registry's slow-query threshold",
        "net_requests_served" => "Frames the network service answered",
        "net_request_ns" => "End-to-end latency of served frames in nanoseconds",
        "shard_execute_ns" => "Worker-side shard query execution latency in nanoseconds",
        "shard_store_size" => "Shards currently resident in the worker's store",
        "dist_hedged_reads" => "Shard reads won by a hedge replica",
        "dist_redispatches" => "Shard queries re-dispatched after a worker failure",
        "dist_cache_hits" => "Shards answered from the coordinator's answer cache",
        "dist_cache_misses" => "Shards that had to be scattered to a worker",
        "dist_cache_insertions" => "Answers inserted into the coordinator's answer cache",
        "dist_cache_evictions" => "Answer cache entries evicted by its capacity bound",
        "dist_cache_invalidated" => "Answer cache entries purged by a fence",
        "dist_partial_cache_len" => "Answers currently resident in the coordinator's answer cache",
        "dist_live_workers" => "Workers currently alive in the coordinator's pool",
        "dist_scatter_ns" => "Coordinator scatter-phase latency in nanoseconds",
        "dist_gather_ns" => "Coordinator gather-phase latency in nanoseconds",
        "dist_merge_ns" => "Coordinator partial-merge latency in nanoseconds",
        _ => fallback,
    }
}

fn push_scalar_map(out: &mut String, entries: &[(String, u64)]) {
    for (i, (name, value)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, name);
        out.push_str(&format!(":{value}"));
    }
}

/// Appends `s` as a JSON string literal: quoted, with quotes, backslashes
/// and control characters escaped. The one escaper of both expositions.
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn histogram() -> (Histogram, Arc<HistogramCore>) {
        let core = Arc::new(HistogramCore::default());
        (Histogram::new(Arc::clone(&core), true), core)
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for k in 1..62 {
            let v = 1u64 << k;
            // 2^k - 1 lands one bucket below 2^k; 2^k and 2^(k+1) - 1 share.
            assert_eq!(bucket_index(v - 1), k, "below 2^{k}");
            assert_eq!(bucket_index(v), k + 1, "at 2^{k}");
            assert_eq!(bucket_index(2 * v - 1), k + 1, "top of 2^{k}'s bucket");
        }
        // Everything from 2^62 up shares the last bucket, bounded by MAX.
        assert_eq!(bucket_index(1u64 << 62), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let (h, core) = histogram();
        // 100 values: 1..=100 ns. p50 falls in the bucket holding 50
        // (bucket of 32..63), p99 in the bucket holding 99 (64..127).
        for v in 1..=100u64 {
            h.record_ns(v);
        }
        let snap = core.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum, 5050);
        assert_eq!(snap.max, 100);
        assert_eq!(snap.p50(), 63);
        // The p99 bucket's bound (127) clamps to the observed max.
        assert_eq!(snap.p99(), 100);
        assert_eq!(snap.quantile(0.0), 1);
        assert_eq!(snap.quantile(1.0), 100);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let (_, core) = histogram();
        let snap = core.snapshot();
        assert_eq!((snap.count, snap.sum, snap.max), (0, 0, 0));
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p99(), 0);
        assert_eq!(snap.mean(), 0);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn exposition_formats_contain_every_instrument() {
        let (h, core) = histogram();
        h.record_ns(5);
        h.record_ns(1000);
        let snap = MetricsSnapshot {
            counters: vec![("requests".to_string(), 7)],
            gauges: vec![("store_size".to_string(), 3)],
            histograms: vec![("latency_ns".to_string(), core.snapshot())],
        };
        let _ = h;
        let json = snap.to_json();
        assert!(json.contains("\"requests\":7"), "{json}");
        assert!(json.contains("\"store_size\":3"), "{json}");
        assert!(json.contains("\"latency_ns\":{\"count\":2"), "{json}");
        let prom = snap.to_prometheus();
        assert!(prom.contains("requests 7"), "{prom}");
        assert!(prom.contains("# TYPE latency_ns histogram"), "{prom}");
        assert!(prom.contains("latency_ns_bucket{le=\"+Inf\"} 2"), "{prom}");
        assert!(prom.contains("latency_ns_count 2"), "{prom}");
        assert!(prom.contains(&format!("latency_ns_sum {}", 5 + 1000)), "{prom}");
    }

    /// Every sample family is preceded by its `# HELP` / `# TYPE` pair, in
    /// that order; well-known Seabed instrument names get a real
    /// description while unknown ones fall back to a kind-generic phrase.
    #[test]
    fn prometheus_exposition_carries_help_and_type_for_every_family() {
        let (h, core) = histogram();
        h.record_ns(42);
        let snap = MetricsSnapshot {
            counters: vec![("dist_cache_hits".to_string(), 7), ("requests".to_string(), 1)],
            gauges: vec![("dist_live_workers".to_string(), 3)],
            histograms: vec![("latency_ns".to_string(), core.snapshot())],
        };
        let prom = snap.to_prometheus();
        for family in ["dist_cache_hits", "requests", "dist_live_workers", "latency_ns"] {
            let help = prom.find(&format!("# HELP {family} ")).unwrap_or_else(|| {
                panic!("no HELP line for {family}: {prom}");
            });
            let typ = prom.find(&format!("# TYPE {family} ")).unwrap_or_else(|| {
                panic!("no TYPE line for {family}: {prom}");
            });
            assert!(help < typ, "HELP must precede TYPE for {family}");
        }
        assert!(
            prom.contains("# HELP dist_cache_hits Shards answered from the coordinator's answer cache"),
            "known name gets its real description: {prom}"
        );
        assert!(
            prom.contains("# HELP requests Monotonic event counter"),
            "unknown counter falls back to the generic phrase: {prom}"
        );
        assert!(prom.contains("# TYPE dist_live_workers gauge"), "{prom}");
    }

    proptest! {
        #[test]
        fn every_value_lands_in_the_bucket_that_bounds_it(v in any::<u64>()) {
            let i = bucket_index(v);
            prop_assert!(v <= bucket_bound(i));
            if i > 0 {
                prop_assert!(v > bucket_bound(i - 1));
            }
        }

        #[test]
        fn quantiles_are_monotone_and_bounded_by_max(
            values in proptest::collection::vec(0u64..1_000_000_000, 1..200)
        ) {
            let (h, core) = histogram();
            for &v in &values {
                h.record_ns(v);
            }
            let snap = core.snapshot();
            let true_max = *values.iter().max().unwrap();
            prop_assert_eq!(snap.count, values.len() as u64);
            prop_assert_eq!(snap.max, true_max);
            let (p50, p90, p99) = (snap.p50(), snap.p90(), snap.p99());
            prop_assert!(p50 <= p90 && p90 <= p99 && p99 <= true_max);
            // The estimate is the upper bound of the bucket holding the true
            // quantile (clamped to max), so it never undershoots it.
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let true_p50 = sorted[(values.len() - 1) / 2];
            prop_assert!(p50 >= true_p50);
        }

        #[test]
        fn bucket_counts_sum_to_count(
            values in proptest::collection::vec(any::<u64>(), 0..100)
        ) {
            let (h, core) = histogram();
            for &v in &values {
                h.record_ns(v);
            }
            let snap = core.snapshot();
            let bucket_total: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
            prop_assert_eq!(bucket_total, snap.count);
            prop_assert_eq!(snap.count, values.len() as u64);
        }
    }
}
