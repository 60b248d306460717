//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written to `trace.json` when the run ends.
//!
//! The recorder keeps *trace time*: wall time minus every interval the
//! benchmark spent paused doing its own bookkeeping (cloning a response for a
//! codec replay, running the checker). Stage spans of one operation are
//! therefore contiguous, and the root span is the sum of the stages plus
//! whatever the recorder itself costs.

use crate::json::Json;
use std::time::{Duration, Instant};

/// One span. `parent` indexes the recorder's span list.
#[derive(Clone, Debug)]
pub struct Span {
    /// Stage name, `<layer>.<stage>` (the root of an operation is `op`).
    pub name: &'static str,
    /// Start in trace-time nanoseconds.
    pub start_ns: u64,
    /// End in trace-time nanoseconds.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Operation number shared by the spans of one request.
    pub op: u32,
    /// True when the duration was measured by replaying the call outside the
    /// parent (a twin server, a standalone codec call) or reported by the
    /// program, rather than observed in place.
    pub replayed: bool,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1_000.0
    }
}

/// The span store of one traced pass.
pub struct Recorder {
    origin: Instant,
    paused: Duration,
    pause_started: Option<Instant>,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            paused: Duration::ZERO,
            pause_started: None,
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        (self.origin.elapsed() - self.paused).as_nanos() as u64
    }

    /// Stops trace time (benchmark bookkeeping follows).
    pub fn pause(&mut self) {
        self.pause_started = Some(Instant::now());
    }

    /// Restarts trace time.
    pub fn resume(&mut self) {
        if let Some(started) = self.pause_started.take() {
            self.paused += started.elapsed();
        }
    }

    /// Opens a span now; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u32) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
            replayed: false,
        });
        self.spans.len() - 1
    }

    /// Closes a span now.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Adds a child whose duration was measured elsewhere. It is laid at
    /// `offset` from its parent's start (children measured one after another
    /// pass the running sum; concurrent ones pass the same offset).
    pub fn add_replayed(&mut self, name: &'static str, parent: usize, offset: Duration, duration: Duration) -> usize {
        let start_ns = self.spans[parent].start_ns + offset.as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration.as_nanos() as u64,
            parent: Some(parent),
            op: self.spans[parent].op,
            replayed: true,
        });
        self.spans.len() - 1
    }

    /// Adds a root span for an operation that has just finished and took
    /// `duration` (its parts are then laid inside it with
    /// [`Recorder::add_replayed`]).
    pub fn add_finished_root(&mut self, name: &'static str, op: u32, duration: Duration) -> usize {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(duration.as_nanos() as u64),
            end_ns,
            parent: None,
            op,
            replayed: true,
        });
        self.spans.len() - 1
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id` in microseconds: its duration minus the part
    /// of its interval its children cover (children clipped to the parent,
    /// overlaps counted once).
    pub fn self_micros(&self, id: usize) -> f64 {
        let parent = &self.spans[id];
        let mut covered: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(start, end)| end > start)
            .collect();
        covered.sort_unstable();
        let mut total = 0u64;
        let mut reach = parent.start_ns;
        for (start, end) in covered {
            let start = start.max(reach);
            if end > start {
                total += end - start;
                reach = end;
            }
        }
        (parent.end_ns - parent.start_ns - total) as f64 / 1_000.0
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::micros).collect()
    }

    /// Self times (µs) of every span called `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self.self_micros(id))
            .collect()
    }

    /// The spans as JSON: `{name, start_ns, end_ns, parent, op, replayed}`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("op", Json::Num(f64::from(s.op))),
                        ("replayed", Json::Bool(s.replayed)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_with(spans: Vec<Span>) -> Recorder {
        Recorder {
            spans,
            ..Recorder::default()
        }
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            replayed: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let rec = recorder_with(vec![
            span("op", 0, 10_000, None),
            span("a", 1_000, 4_000, Some(0)),
            // overlaps `a` by 1 µs and sticks 2 µs out of the parent
            span("b", 3_000, 12_000, Some(0)),
            // grandchild: must not count against the root
            span("c", 1_000, 2_000, Some(1)),
        ]);
        // covered = [1,4) ∪ [3,10) = 9 µs of 10
        assert!((rec.self_micros(0) - 1.0).abs() < 1e-9);
        assert!((rec.self_micros(1) - 2.0).abs() < 1e-9);
        assert_eq!(rec.durations("a"), vec![3.0]);
        assert_eq!(rec.self_times("c"), vec![1.0]);
    }

    #[test]
    fn replayed_children_sit_inside_their_parent() {
        let mut rec = recorder_with(vec![span("target.execute", 5_000, 9_000, None)]);
        let child = rec.add_replayed(
            "engine.server_execute",
            0,
            Duration::from_nanos(500),
            Duration::from_nanos(2_000),
        );
        assert_eq!(rec.spans()[child].start_ns, 5_500);
        assert!(rec.spans()[child].replayed);
        assert!((rec.self_micros(0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn paused_time_is_not_trace_time() {
        let mut rec = Recorder::default();
        let id = rec.begin("op", None, 0);
        rec.pause();
        std::thread::sleep(Duration::from_millis(20));
        rec.resume();
        rec.end(id);
        assert!(rec.spans()[id].micros() < 15_000.0);
    }
}
