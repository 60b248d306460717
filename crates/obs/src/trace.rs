//! Per-query tracing: [`TraceId`] minting, [`TraceSpan`]s, and the
//! [`TraceBuilder`] each node uses to time its stages of a query and to
//! leave its one [`QueryEvent`].
//!
//! Redaction rule (same as `wire::redact_query`): a trace names *stages*
//! and carries durations and statement hashes — never SQL text, literals,
//! or any plaintext derived from them.

use crate::{EventOperator, QueryEvent, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The wire value meaning "this request is not traced".
pub const UNTRACED: u64 = 0;

/// A per-query identity minted at the session/client and propagated over
/// the wire so every component's spans can be correlated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// Mints a fresh, process-unique, non-[`UNTRACED`] id. Ids mix a
    /// per-process nonce (derived from the clock at first use) with a
    /// monotonic counter, so concurrent coordinators scraping into one
    /// collector do not collide in practice.
    pub fn mint() -> TraceId {
        static NONCE: OnceLock<u64> = OnceLock::new();
        static COUNTER: AtomicU64 = AtomicU64::new(1);
        let nonce = *NONCE.get_or_init(|| {
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x9e37_79b9_7f4a_7c15);
            // SplitMix64 finalizer: spread the clock bits across the word.
            let mut z = now.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        });
        let seq = COUNTER.fetch_add(1, Ordering::Relaxed);
        let id = nonce.rotate_left(17) ^ seq.wrapping_mul(0x2545_f491_4f6c_dd1d);
        TraceId(if id == UNTRACED { 1 } else { id })
    }

    /// The raw wire value.
    pub fn as_u64(&self) -> u64 {
        self.0
    }

    /// Wraps a raw wire value (`None` for [`UNTRACED`]).
    pub fn from_u64(raw: u64) -> Option<TraceId> {
        (raw != UNTRACED).then_some(TraceId(raw))
    }
}

/// One timed stage of a query inside one component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// Stage name (static identifier, e.g. `"parse"`, `"shard-execute"`).
    pub name: String,
    /// Offset from the component's trace start, in nanoseconds.
    pub start_ns: u64,
    /// Stage duration in nanoseconds.
    pub duration_ns: u64,
}

/// An in-flight span handle from [`TraceBuilder::start`].
pub struct SpanStart {
    at: Option<Instant>,
}

struct BuilderState {
    registry: Registry,
    t0: Instant,
    event: QueryEvent,
}

/// Times one node's call for one query and finishes into that node's one
/// [`QueryEvent`]. Obtained from
/// [`Registry::trace_builder`](crate::Registry::trace_builder); the builder
/// of a disabled registry (or [`TraceBuilder::noop`]) skips every clock read
/// and allocation, and its [`TraceBuilder::finish`] records nothing.
#[must_use = "a node's call leaves its event only when its builder is finished"]
pub struct TraceBuilder {
    state: Option<BuilderState>,
}

impl TraceBuilder {
    pub(crate) fn new(registry: Registry, trace_id: u64, node: &str) -> TraceBuilder {
        TraceBuilder {
            state: Some(BuilderState {
                registry,
                t0: Instant::now(),
                event: QueryEvent {
                    trace_id,
                    node: node.to_string(),
                    ..QueryEvent::default()
                },
            }),
        }
    }

    /// A builder that records nothing — the explicit "no trace context"
    /// value for code paths that thread a builder through optionally.
    pub fn noop() -> TraceBuilder {
        TraceBuilder { state: None }
    }

    /// True when this builder will leave an event.
    pub fn is_active(&self) -> bool {
        self.state.is_some()
    }

    /// The trace id, or [`UNTRACED`] for a no-op builder.
    pub fn trace_id(&self) -> u64 {
        self.state.as_ref().map_or(UNTRACED, |s| s.event.trace_id)
    }

    /// Attaches the identity the node knows the statement by (a hash or a
    /// handle, never the SQL text).
    pub fn set_statement_id(&mut self, statement_id: u64) {
        if let Some(state) = &mut self.state {
            state.event.statement_id = statement_id;
        }
    }

    /// Attaches the redacted plan shape and the measured operators, built
    /// only when the builder is active.
    pub fn describe(&mut self, plan: impl FnOnce() -> (String, Vec<EventOperator>)) {
        if let Some(state) = &mut self.state {
            (state.event.plan, state.event.operators) = plan();
        }
    }

    /// Starts timing a span (no clock read when inactive).
    pub fn start(&self) -> SpanStart {
        SpanStart {
            at: self.state.as_ref().map(|_| Instant::now()),
        }
    }

    /// Ends `span`, recording it under `name`. Returns the span duration in
    /// nanoseconds (0 when inactive).
    pub fn end(&mut self, name: &str, span: SpanStart) -> u64 {
        let (Some(state), Some(at)) = (&mut self.state, span.at) else {
            return 0;
        };
        let start_ns = saturating_ns(at.duration_since(state.t0).as_nanos());
        let duration_ns = saturating_ns(at.elapsed().as_nanos());
        state.event.spans.push(TraceSpan {
            name: name.to_string(),
            start_ns,
            duration_ns,
        });
        duration_ns
    }

    /// Records an already-measured span that ends now (used when a duration
    /// is observed by other means, e.g. a stage timed for its histogram).
    pub fn add_span_ns(&mut self, name: &str, duration_ns: u64) {
        let Some(state) = &mut self.state else { return };
        let start_ns = saturating_ns(state.t0.elapsed().as_nanos()).saturating_sub(duration_ns);
        state.event.spans.push(TraceSpan {
            name: name.to_string(),
            start_ns,
            duration_ns,
        });
    }

    /// Finishes the node's call: stamps `total_ns` (the builder's whole
    /// life, so every span lies inside it) and the static `outcome` tag,
    /// and leaves the one event in the registry's ring. No-op when
    /// inactive.
    pub fn finish(self, outcome: &str) {
        let Some(BuilderState {
            registry,
            t0,
            mut event,
        }) = self.state
        else {
            return;
        };
        event.total_ns = saturating_ns(t0.elapsed().as_nanos());
        event.outcome = outcome.to_string();
        registry.record(event);
    }
}

fn saturating_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = TraceId::mint();
            assert_ne!(id.as_u64(), UNTRACED);
            assert!(seen.insert(id.as_u64()), "duplicate trace id");
        }
        assert_eq!(TraceId::from_u64(UNTRACED), None);
        assert_eq!(TraceId::from_u64(7).map(|t| t.as_u64()), Some(7));
    }

    #[test]
    fn builder_finishes_into_one_event_holding_its_spans() {
        let registry = Registry::default();
        let mut tb = registry.trace_builder(11, "session");
        tb.set_statement_id(99);
        let s = tb.start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let d = tb.end("parse", s);
        assert!(d > 0);
        tb.add_span_ns("shard-execute", 500);
        tb.describe(|| ("scan t".to_string(), Vec::new()));
        tb.finish("ok");
        let events = registry.recent_events();
        assert_eq!(events.len(), 1);
        let event = &events[0];
        assert_eq!((event.trace_id, event.statement_id), (11, 99));
        assert_eq!(
            (event.node.as_str(), event.plan.as_str(), event.outcome.as_str()),
            ("session", "scan t", "ok")
        );
        let names: Vec<&str> = event.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["parse", "shard-execute"]);
        assert!(event.spans[0].duration_ns >= 1_000_000);
        assert_eq!(event.spans[1].duration_ns, 500);
        for span in &event.spans {
            assert!(
                span.start_ns + span.duration_ns <= event.total_ns,
                "{span:?} outside {}",
                event.total_ns
            );
        }
    }

    #[test]
    fn noop_builder_records_nothing() {
        let mut tb = TraceBuilder::noop();
        assert!(!tb.is_active());
        assert_eq!(tb.trace_id(), UNTRACED);
        let s = tb.start();
        assert_eq!(tb.end("parse", s), 0);
        tb.add_span_ns("x", 1);
        tb.describe(|| unreachable!("an inactive builder describes nothing"));
        tb.finish("ok");
    }

    #[test]
    fn a_builder_without_spans_still_leaves_its_event() {
        let registry = Registry::default();
        registry.trace_builder(UNTRACED, "server").finish("parse-error");
        let events = registry.recent_events();
        assert_eq!(events.len(), 1);
        assert!(events[0].spans.is_empty() && events[0].plan.is_empty());
        assert_eq!(events[0].outcome, "parse-error");
    }
}
