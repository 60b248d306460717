//! Unified observability for the Seabed stack: one [`Registry`] per process
//! component (session, coordinator, network service) holding lock-free
//! counters, gauges, and log-bucket latency histograms, plus a bounded ring
//! buffer of per-query [`QueryTrace`]s.
//!
//! ```text
//!   SeabedSession ──┐  counter("session_executes").incr()
//!   DistCoordinator ┼─ Registry ── snapshot() → MetricsSnapshot (JSON / Prometheus text)
//!   NetServer ──────┘  histogram("net_request_ns").record_ns(…)
//!                        └── traces: ring of QueryTrace { trace_id, spans }
//! ```
//!
//! Design constraints, in order:
//!
//! 1. **Hot paths stay hot.** Instruments are `Arc<AtomicU64>` handles
//!    registered once and held by the instrumented component; recording is a
//!    relaxed atomic op with no lock and no allocation. The registry's
//!    interior mutex is touched only at registration and snapshot time.
//! 2. **Zero overhead when off.** A registry built from
//!    [`ObsConfig::disabled`] turns histogram timers and trace recording
//!    into no-ops (no `Instant::now`, no allocation); counters and gauges
//!    stay live because they are each component's only lifetime totals.
//! 3. **Nothing sensitive.** Metric names are static identifiers; traces
//!    carry span names, durations, and statement *hashes* — never SQL text
//!    or plaintext literals. This is the same redaction rule the wire layer
//!    enforces for queries, extended to telemetry.
//!
//! Tracing: a [`TraceId`] is minted at the client/session, travels inside
//! request frames (`seabed-net` protocol v3), and every component that
//! touches the query records its own spans into its own registry under that
//! id. [`Registry::merged_trace`] stitches the components sharing a registry
//! back into one parse→…→decrypt timeline; remote components (workers) are
//! scraped over the wire (`MetricsRequest`/`MetricsSnapshot` frames).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
mod metrics;
mod trace;

pub use events::{events_to_json, EventOperator, QueryEvent};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Timer, HISTOGRAM_BUCKETS};
pub use trace::{QueryTrace, SpanStart, TraceBuilder, TraceId, TraceSpan, UNTRACED};

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration of a [`Registry`].
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// When false, histogram timers and trace recording are no-ops.
    /// Counters and gauges always count (they are the only lifetime totals).
    pub enabled: bool,
    /// Capacity of the recent-trace ring buffer (oldest evicted first).
    pub trace_capacity: usize,
    /// Capacity of the query-event ring buffer (oldest evicted first).
    pub event_capacity: usize,
    /// Executions at least this long are flagged `slow` in their
    /// [`QueryEvent`] and counted under the `slow_queries` counter.
    pub slow_query_threshold: Duration,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            enabled: true,
            trace_capacity: 128,
            event_capacity: 128,
            slow_query_threshold: Duration::from_millis(100),
        }
    }
}

impl ObsConfig {
    /// Observability off: timers and traces become no-ops.
    pub fn disabled() -> ObsConfig {
        ObsConfig {
            enabled: false,
            trace_capacity: 0,
            event_capacity: 0,
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
    traces: Mutex<VecDeque<QueryTrace>>,
    events: Mutex<VecDeque<QueryEvent>>,
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
        Registry {
            inner: Arc::new(RegistryInner {
                config,
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                traces: Mutex::new(VecDeque::new()),
                events: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// A registry with timers and traces disabled.
    pub fn disabled() -> Registry {
        Registry::new(ObsConfig::disabled())
    }

    /// True when histogram timers and trace recording are active.
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

    /// A new trace builder for `trace_id` attributed to `node`; disabled
    /// (all span ops no-ops) when the registry is disabled or the id is
    /// [`UNTRACED`].
    pub fn trace_builder(&self, trace_id: u64, node: &str) -> TraceBuilder {
        if self.enabled() && trace_id != UNTRACED {
            TraceBuilder::new(trace_id, node)
        } else {
            TraceBuilder::noop()
        }
    }

    /// Records a finished trace into the ring buffer (oldest evicted past
    /// capacity). No-op for disabled registries or no-op builders.
    pub fn record_trace(&self, trace: QueryTrace) {
        if !self.enabled() || trace.trace_id == UNTRACED {
            return;
        }
        let mut ring = self.inner.traces.lock().unwrap_or_else(|p| p.into_inner());
        while ring.len() >= self.inner.config.trace_capacity.max(1) {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Records a query event into the bounded event ring (oldest evicted
    /// past capacity). The registry — not the caller — decides slowness:
    /// `event.slow` is set from the configured `slow_query_threshold`, and
    /// slow events increment the `slow_queries` counter. No-op for disabled
    /// registries.
    pub fn record_event(&self, mut event: QueryEvent) {
        if !self.enabled() {
            return;
        }
        event.slow = Duration::from_nanos(event.total_ns) >= self.inner.config.slow_query_threshold;
        if event.slow {
            self.counter("slow_queries").incr();
        }
        let mut ring = self.inner.events.lock().unwrap_or_else(|p| p.into_inner());
        while ring.len() >= self.inner.config.event_capacity.max(1) {
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

    /// The recent traces, oldest first.
    pub fn recent_traces(&self) -> Vec<QueryTrace> {
        self.inner
            .traces
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// All spans recorded under `trace_id` in this registry, stitched into
    /// one trace (components sharing a registry each record their own entry;
    /// this merges them in recording order). `None` if the id is unknown.
    pub fn merged_trace(&self, trace_id: u64) -> Option<QueryTrace> {
        let ring = self.inner.traces.lock().unwrap_or_else(|p| p.into_inner());
        let mut merged: Option<QueryTrace> = None;
        for trace in ring.iter().filter(|t| t.trace_id == trace_id) {
            match &mut merged {
                None => merged = Some(trace.clone()),
                Some(m) => {
                    // Downstream components (coordinator, workers) don't know
                    // the statement hash; whichever entry does fills it in.
                    if m.statement_id == 0 {
                        m.statement_id = trace.statement_id;
                    }
                    m.spans.extend(trace.spans.iter().cloned());
                    if !trace.node.is_empty() && !m.node.contains(trace.node.as_str()) {
                        m.node.push('+');
                        m.node.push_str(&trace.node);
                    }
                }
            }
        }
        merged
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
    fn disabled_registry_still_counts_but_skips_timers_and_traces() {
        let reg = Registry::disabled();
        let c = reg.counter("n");
        c.incr();
        assert_eq!(c.get(), 1);
        let h = reg.histogram("lat");
        let t = h.start();
        assert!(!t.is_running());
        h.stop(t);
        assert_eq!(reg.snapshot().histogram("lat").unwrap().count, 0);
        let tb = reg.trace_builder(7, "test");
        assert!(!tb.is_active());
        reg.record_trace(QueryTrace {
            trace_id: 7,
            statement_id: 0,
            node: "test".to_string(),
            spans: vec![],
        });
        assert!(reg.recent_traces().is_empty());
    }

    #[test]
    fn trace_ring_is_bounded_and_evicts_oldest() {
        let reg = Registry::new(ObsConfig {
            trace_capacity: 3,
            ..ObsConfig::default()
        });
        for id in 1..=5u64 {
            reg.record_trace(QueryTrace {
                trace_id: id,
                statement_id: 0,
                node: "t".to_string(),
                spans: vec![],
            });
        }
        let ids: Vec<u64> = reg.recent_traces().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![3, 4, 5]);
    }

    #[test]
    fn event_ring_is_bounded_and_the_registry_decides_slowness() {
        let reg = Registry::new(ObsConfig {
            event_capacity: 2,
            slow_query_threshold: Duration::from_micros(50),
            ..ObsConfig::default()
        });
        let event = |id: u64, total_ns: u64| QueryEvent {
            trace_id: id,
            statement_id: id,
            node: "session".to_string(),
            plan: "scan t".to_string(),
            operators: vec![],
            total_ns,
            // Caller-set slowness is overwritten by the registry.
            slow: total_ns == 1,
            outcome: "ok".to_string(),
        };
        reg.record_event(event(1, 1));
        reg.record_event(event(2, 10_000));
        reg.record_event(event(3, 60_000));
        let events = reg.recent_events();
        assert_eq!(events.len(), 2, "oldest evicted past capacity");
        assert_eq!(events[0].trace_id, 2);
        assert!(!events[0].slow, "10µs under the 50µs threshold");
        assert!(events[1].slow, "60µs over the 50µs threshold");
        assert_eq!(reg.snapshot().counter("slow_queries"), Some(1));

        let off = Registry::disabled();
        off.record_event(event(4, 60_000));
        assert!(off.recent_events().is_empty(), "disabled registries skip events");
    }

    #[test]
    fn merged_trace_stitches_components_sharing_a_registry() {
        let reg = Registry::default();
        let span = |name: &str| TraceSpan {
            name: name.to_string(),
            start_ns: 0,
            duration_ns: 1,
        };
        reg.record_trace(QueryTrace {
            trace_id: 42,
            statement_id: 9,
            node: "session".to_string(),
            spans: vec![span("parse"), span("translate")],
        });
        reg.record_trace(QueryTrace {
            trace_id: 42,
            statement_id: 9,
            node: "coordinator".to_string(),
            spans: vec![span("scatter"), span("gather")],
        });
        reg.record_trace(QueryTrace {
            trace_id: 41,
            statement_id: 9,
            node: "other".to_string(),
            spans: vec![span("noise")],
        });
        let merged = reg.merged_trace(42).expect("trace 42");
        let names: Vec<&str> = merged.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["parse", "translate", "scatter", "gather"]);
        assert_eq!(merged.node, "session+coordinator");
        assert!(reg.merged_trace(99).is_none());
    }
}
