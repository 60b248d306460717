//! Query events: the one record of one execution on one node.
//!
//! Every execution a node runs — completed or failed — leaves one
//! [`QueryEvent`] in the bounded ring of the node's [`crate::Registry`],
//! finished by the node's [`crate::TraceBuilder`]: trace id, statement
//! identity, the spans of its stages, the redacted plan shape, the measured
//! per-operator breakdown (when the execution was analyzed), total latency,
//! and the outcome. Events whose latency reaches the registry's
//! `slow_query_threshold` are flagged `slow` and counted under the
//! `slow_queries` counter, so a scrape can alert on the count and then pull
//! the ring for the offending plans.
//!
//! # Redaction guarantees
//!
//! An event is redacted **by construction**, the same rule the wire layer
//! follows: the statement travels as a *hash* or a handle, spans name
//! stages, the plan is a pre-rendered structural string (operator classes
//! and physical column names — `filter dept__det == DET(<const>)` — never
//! predicate literals), operator labels are class+column identifiers, and
//! the outcome is a static tag. No SQL text and no plaintext value can
//! appear in an event, so the ring can be scraped, logged, and uploaded as
//! a CI artifact without key material ever mattering.

use crate::metrics::push_json_string;
use crate::TraceSpan;

/// The measured profile of one operator inside a [`QueryEvent`] — the
/// event-log twin of the engine's per-operator counters (the obs crate sits
/// below the engine, so it carries its own copy).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventOperator {
    /// Structural operator label (`filter:det:dept__det`, `aggregate`, …).
    pub label: String,
    /// Rows the operator looked at.
    pub rows_in: u64,
    /// Rows that survived the operator.
    pub rows_out: u64,
    /// Batches / passes the operator ran.
    pub batches: u64,
    /// Wall-clock nanoseconds inside the operator.
    pub nanos: u64,
}

/// One execution on one node: what the event ring stores and the metrics
/// scrape exposes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryEvent {
    /// The trace id the execution ran under ([`crate::UNTRACED`] when the
    /// request carried none).
    pub trace_id: u64,
    /// The identity the node knows the statement by: the session's SQL hash,
    /// a server's statement handle or plan hash, the coordinator's plan
    /// hash. Never the SQL text.
    pub statement_id: u64,
    /// Which node recorded the event (`session`, `coordinator`, a server's
    /// identity).
    pub node: String,
    /// The node's timed stages, in recording order.
    pub spans: Vec<TraceSpan>,
    /// Pre-rendered, redacted plan shape (a `TranslatedQuery::describe()`
    /// string or a rendered plan tree — both name operators and physical
    /// columns only).
    pub plan: String,
    /// Per-operator measured breakdown; empty for un-analyzed executions.
    pub operators: Vec<EventOperator>,
    /// Nanoseconds of the node's whole call, timed by the builder that
    /// timed its spans.
    pub total_ns: u64,
    /// Whether `total_ns` reached the registry's slow-query threshold (set
    /// by the registry, not by the node).
    pub slow: bool,
    /// Static outcome tag: `"ok"`, or an error class like `"schema-error"` /
    /// `"net-error"`. Never carries an error *message*, which could echo
    /// caller-supplied text.
    pub outcome: String,
}

impl QueryEvent {
    /// Renders the event as a JSON object (hand-rolled, like the metrics
    /// snapshot: the obs crate takes no JSON dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"trace_id\":{},\"statement_id\":{},\"node\":",
            self.trace_id, self.statement_id
        ));
        push_json_string(&mut out, &self.node);
        out.push_str(",\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_string(&mut out, &span.name);
            out.push_str(&format!(
                ",\"start_ns\":{},\"duration_ns\":{}}}",
                span.start_ns, span.duration_ns
            ));
        }
        out.push_str("],\"plan\":");
        push_json_string(&mut out, &self.plan);
        out.push_str(",\"operators\":[");
        for (i, op) in self.operators.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"label\":");
            push_json_string(&mut out, &op.label);
            out.push_str(&format!(
                ",\"rows_in\":{},\"rows_out\":{},\"batches\":{},\"nanos\":{}}}",
                op.rows_in, op.rows_out, op.batches, op.nanos
            ));
        }
        out.push_str(&format!(
            "],\"total_ns\":{},\"slow\":{},\"outcome\":",
            self.total_ns, self.slow
        ));
        push_json_string(&mut out, &self.outcome);
        out.push('}');
        out
    }
}

/// Renders a slice of events as a JSON array, oldest first.
pub fn events_to_json(events: &[QueryEvent]) -> String {
    let mut out = String::from("[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&event.to_json());
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_is_complete_and_escaped() {
        let event = QueryEvent {
            trace_id: 7,
            statement_id: 0xdead,
            node: "se\"ssion".to_string(),
            spans: vec![TraceSpan {
                name: "parse".to_string(),
                start_ns: 3,
                duration_ns: 40,
            }],
            plan: "scan t -> filter a == DET(<const>)".to_string(),
            operators: vec![EventOperator {
                label: "filter:det:a".to_string(),
                rows_in: 100,
                rows_out: 10,
                batches: 1,
                nanos: 1234,
            }],
            total_ns: 5678,
            slow: true,
            outcome: "ok".to_string(),
        };
        let json = event.to_json();
        assert!(json.contains("\"trace_id\":7"), "{json}");
        assert!(json.contains("se\\\"ssion"), "{json}");
        assert!(json.contains("\"label\":\"filter:det:a\""), "{json}");
        assert!(
            json.contains("\"spans\":[{\"name\":\"parse\",\"start_ns\":3,\"duration_ns\":40}]"),
            "{json}"
        );
        assert!(json.contains("\"slow\":true"), "{json}");
        let array = events_to_json(&[event.clone(), event]);
        assert!(array.starts_with('[') && array.ends_with(']'));
        assert_eq!(array.matches("\"total_ns\":5678").count(), 2);
    }
}
