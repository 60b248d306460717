//! Unified observability for the Seabed stack: one [`Registry`] per process
//! component (session, coordinator, network service) holding lock-free
//! counters, gauges, and log-bucket latency histograms, plus one bounded ring
//! of [`QueryEvent`]s — the one record each execution leaves on each node.
//!
//! ```text
//!   SeabedSession ──┐  counter("session_executes").incr()
//!   DistCoordinator ┼─ Registry ── snapshot() → MetricsSnapshot (JSON / Prometheus text)
//!   NetServer ──────┘  histogram("net_request_ns").record_ns(…)
//!                        └── events: ring of QueryEvent { trace_id, spans, plan, total_ns, outcome, … }
//! ```
//!
//! Design constraints, in order:
//!
//! 1. **Hot paths stay hot.** Instruments are `Arc<AtomicU64>` handles
//!    registered once and held by the instrumented component; recording is a
//!    relaxed atomic op with no lock and no allocation. The registry's
//!    interior mutex is touched only at registration and snapshot time.
//! 2. **Zero overhead when off.** A registry built from
//!    [`ObsConfig::disabled`] turns histogram timers and trace builders
//!    into no-ops (no `Instant::now`, no allocation); counters and gauges
//!    stay live because they are each component's only lifetime totals.
//! 3. **Nothing sensitive.** Metric names are static identifiers; events
//!    carry span names, durations, statement *hashes*, structural plans and
//!    outcome tags — never SQL text or plaintext literals. This is the same
//!    redaction rule the wire layer enforces for queries, extended to
//!    telemetry.
//!
//! One record per execution: a node times its call with the
//! [`TraceBuilder`] from [`Registry::trace_builder`] and finishes it into
//! exactly one event, failures included; the registry builds every record.
//! A [`TraceId`] is minted at the session, travels inside the query frames
//! (`seabed-net` protocol v9), and every node the query touches records its
//! event under that id in its own registry. [`Registry::merged_trace`]
//! stitches the nodes sharing a registry back into one parse→…→decrypt
//! timeline; remote nodes (workers) are scraped over the wire
//! (`MetricsRequest`/`MetricsSnapshot` frames).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
mod metrics;
mod trace;

pub use events::{events_to_json, EventOperator, QueryEvent};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Timer, HISTOGRAM_BUCKETS};
pub use trace::{SpanStart, TraceBuilder, TraceId, TraceSpan, UNTRACED};

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration of a [`Registry`].
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// When false, histogram timers and trace builders are no-ops.
    /// Counters and gauges always count (they are the only lifetime totals).
    pub enabled: bool,
    /// Capacity of the query-event ring (oldest evicted first).
    pub capacity: usize,
    /// Executions at least this long are flagged `slow` in their
    /// [`QueryEvent`] and counted under the `slow_queries` counter.
    pub slow_query_threshold: Duration,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            enabled: true,
            capacity: 128,
            slow_query_threshold: Duration::from_millis(100),
        }
    }
}

impl ObsConfig {
    /// Observability off: timers and trace builders become no-ops.
    pub fn disabled() -> ObsConfig {
        ObsConfig {
            enabled: false,
            capacity: 0,
            slow_query_threshold: Duration::from_millis(100),
        }
    }

    /// Returns the configuration with the slow-query threshold replaced.
    pub fn slow_query_threshold(mut self, threshold: Duration) -> ObsConfig {
        self.slow_query_threshold = threshold;
        self
    }
}

struct RegistryInner {
    config: ObsConfig,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<metrics::HistogramCore>>>,
    events: Mutex<VecDeque<QueryEvent>>,
    /// Registered with the registry, so every scrape lists it.
    slow_queries: Counter,
}

/// A process-component metrics registry. Cheap to clone (shared interior);
/// components that should share one timeline (e.g. a session and the
/// coordinator it executes on) hold clones of the same registry.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new(ObsConfig::default())
    }
}

impl Registry {
    /// A registry under `config`.
    pub fn new(config: ObsConfig) -> Registry {
        let slow_queries = Arc::new(AtomicU64::new(0));
        let counters = BTreeMap::from([("slow_queries".to_string(), Arc::clone(&slow_queries))]);
        Registry {
            inner: Arc::new(RegistryInner {
                config,
                counters: Mutex::new(counters),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                events: Mutex::new(VecDeque::new()),
                slow_queries: Counter::new(slow_queries),
            }),
        }
    }

    /// A registry with timers and trace builders disabled.
    pub fn disabled() -> Registry {
        Registry::new(ObsConfig::disabled())
    }

    /// True when histogram timers and trace builders are active.
    pub fn enabled(&self) -> bool {
        self.inner.config.enabled
    }

    /// Returns (registering on first use) the counter named `name`.
    /// Hold the returned handle; incrementing it is a relaxed atomic add.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().unwrap_or_else(|p| p.into_inner());
        let cell = Arc::clone(map.entry(name.to_string()).or_default());
        Counter::new(cell)
    }

    /// Returns (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().unwrap_or_else(|p| p.into_inner());
        let cell = Arc::clone(map.entry(name.to_string()).or_default());
        Gauge::new(cell)
    }

    /// Returns (registering on first use) the log-bucket latency histogram
    /// named `name`. Its timer is a no-op when the registry is disabled.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock().unwrap_or_else(|p| p.into_inner());
        let core = Arc::clone(map.entry(name.to_string()).or_default());
        Histogram::new(core, self.enabled())
    }

    /// A builder timing one call of `node` under `trace_id`
    /// ([`UNTRACED`] when the request carried none), which finishes into the
    /// call's one [`QueryEvent`]. Active whenever the registry is enabled;
    /// a disabled registry's builder records nothing and allocates nothing.
    pub fn trace_builder(&self, trace_id: u64, node: &str) -> TraceBuilder {
        if self.enabled() {
            TraceBuilder::new(self.clone(), trace_id, node)
        } else {
            TraceBuilder::noop()
        }
    }

    /// Pushes a finished event into the bounded ring (oldest evicted past
    /// capacity). The registry — not the node — decides slowness: `slow` is
    /// set from the configured `slow_query_threshold`, and slow events
    /// increment the `slow_queries` counter.
    fn record(&self, mut event: QueryEvent) {
        event.slow = Duration::from_nanos(event.total_ns) >= self.inner.config.slow_query_threshold;
        if event.slow {
            self.inner.slow_queries.incr();
        }
        let mut ring = self.inner.events.lock().unwrap_or_else(|p| p.into_inner());
        while ring.len() >= self.inner.config.capacity.max(1) {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// The recent query events, oldest first.
    pub fn recent_events(&self) -> Vec<QueryEvent> {
        self.inner
            .events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// The events recorded under `trace_id` in this registry, stitched into
    /// one: every span in ring order, and the nodes joined with `+`
    /// outermost first. A call finishes after every call it makes, so the
    /// last event of the id is the outermost one — the session's, when a
    /// session shares this registry with its coordinator — and the merged
    /// event keeps its statement id, plan, operators, total and outcome.
    /// `None` for an unknown id and for [`UNTRACED`].
    pub fn merged_trace(&self, trace_id: u64) -> Option<QueryEvent> {
        if trace_id == UNTRACED {
            return None;
        }
        let ring = self.inner.events.lock().unwrap_or_else(|p| p.into_inner());
        let parts: Vec<&QueryEvent> = ring.iter().filter(|e| e.trace_id == trace_id).collect();
        let (outermost, inner) = parts.split_last()?;
        let mut merged = QueryEvent {
            spans: parts.iter().flat_map(|e| e.spans.iter().cloned()).collect(),
            ..(*outermost).clone()
        };
        for event in inner {
            if !merged.node.split('+').any(|node| node == event.node) {
                merged.node.push('+');
                merged.node.push_str(&event.node);
            }
        }
        Some(merged)
    }

    /// A point-in-time snapshot of every registered instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        use std::sync::atomic::Ordering;
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(name, core)| (name.clone(), core.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once_and_share_state() {
        let reg = Registry::default();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.add(3);
        b.incr();
        assert_eq!(a.get(), 4);
        let g = reg.gauge("size");
        g.set(17);
        assert_eq!(reg.gauge("size").get(), 17);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hits"), Some(4));
        assert_eq!(snap.gauge("size"), Some(17));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn a_fresh_registry_lists_slow_queries_at_zero() {
        let snap = Registry::default().snapshot();
        assert_eq!(snap.counter("slow_queries"), Some(0));
        assert!(snap.to_prometheus().contains("slow_queries 0"));
    }

    #[test]
    fn disabled_registry_still_counts_but_skips_timers_and_events() {
        let reg = Registry::disabled();
        let c = reg.counter("n");
        c.incr();
        assert_eq!(c.get(), 1);
        let h = reg.histogram("lat");
        let t = h.start();
        assert!(!t.is_running());
        h.stop(t);
        assert_eq!(reg.snapshot().histogram("lat").unwrap().count, 0);
        let mut tb = reg.trace_builder(7, "test");
        assert!(!tb.is_active());
        tb.add_span_ns("parse", 1);
        tb.finish("ok");
        assert!(reg.recent_events().is_empty());
    }

    /// Finishes one event of `node` under `trace_id` whose call took at
    /// least `min_ns`, with one span per name.
    fn record(reg: &Registry, trace_id: u64, node: &str, spans: &[&str], min_ns: u64) {
        let mut tb = reg.trace_builder(trace_id, node);
        tb.set_statement_id(trace_id * 100);
        for span in spans {
            tb.add_span_ns(span, 1);
        }
        std::thread::sleep(Duration::from_nanos(min_ns));
        tb.finish("ok");
    }

    #[test]
    fn event_ring_is_bounded_and_the_registry_decides_slowness() {
        let reg = Registry::new(ObsConfig {
            capacity: 2,
            slow_query_threshold: Duration::from_millis(20),
            ..ObsConfig::default()
        });
        record(&reg, 1, "a", &[], 0);
        record(&reg, 2, "b", &[], 0);
        record(&reg, 3, "c", &[], 25_000_000);
        let events = reg.recent_events();
        assert_eq!(events.len(), 2, "oldest evicted past capacity");
        assert_eq!(events[0].trace_id, 2);
        assert!(!events[0].slow, "an instant call is under the 20ms threshold");
        assert!(events[1].slow, "a 25ms call is over it");
        assert!(events[1].total_ns >= 25_000_000);
        assert_eq!(reg.snapshot().counter("slow_queries"), Some(1));
    }

    #[test]
    fn merged_trace_stitches_the_nodes_sharing_a_registry() {
        let reg = Registry::default();
        // The coordinator's call ends inside the session's, so it finishes
        // first.
        record(&reg, 42, "coordinator", &["scatter", "gather"], 0);
        record(&reg, 41, "other", &["noise"], 0);
        let mut session = reg.trace_builder(42, "session");
        session.set_statement_id(9);
        session.add_span_ns("parse", 1);
        session.finish("net-error");
        let merged = reg.merged_trace(42).expect("trace 42");
        let names: Vec<&str> = merged.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["scatter", "gather", "parse"], "ring order");
        assert_eq!(merged.node, "session+coordinator");
        assert_eq!(
            (merged.statement_id, merged.outcome.as_str()),
            (9, "net-error"),
            "the session's"
        );
        assert!(reg.merged_trace(99).is_none());
        reg.trace_builder(UNTRACED, "server").finish("ok");
        assert!(reg.merged_trace(UNTRACED).is_none());
    }
}
