//! Spans recorded from outside the crates under test.
//!
//! One `Instant::now()` costs about as much as one lock acquisition, so a
//! span never wraps a single call: it wraps a *batch* of `calls` calls into
//! one public function, and per-call time is span time ÷ calls. Spans stay in
//! memory and are written out when the run ends. With tracing off a trial is
//! one timed region and nothing is recorded.

use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// The trial in progress, for the message of the run's watchdog.
static CURRENT: Mutex<&'static str> = Mutex::new("set-up");

/// Name of the trial that started last.
pub fn current_trial() -> &'static str {
    *CURRENT.lock().unwrap_or_else(|e| e.into_inner())
}

/// Batches (child spans) a traced trial is cut into.
pub const BATCHES: usize = 8;

#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.function` of the public item the batch calls.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span (the trial), if any.
    pub parent: Option<u32>,
    /// Round of the window the span belongs to.
    pub round: u32,
    /// Calls inside the span.
    pub calls: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    paused: bool,
    epoch: Instant,
    round: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            paused: false,
            epoch: Instant::now(),
            round: 0,
            spans: Vec::new(),
        }
    }

    /// Suspends recording: while paused a trial is one untraced region, as
    /// in an untraced run.
    pub fn pause(&mut self, paused: bool) {
        self.paused = paused;
    }

    pub fn set_round(&mut self, round: usize) {
        self.round = round as u32;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `calls` calls made by `body(start, len)` over consecutive
    /// sub-ranges of `0..calls`, and returns the nanoseconds spent inside.
    ///
    /// Untraced: one region. Traced: a trial span with [`BATCHES`] child
    /// spans, the returned time being the children's sum, so the recorder's
    /// own work between batches is not charged to the layer.
    pub fn trial(
        &mut self,
        name: &'static str,
        calls: usize,
        mut body: impl FnMut(usize, usize),
    ) -> u64 {
        *CURRENT.lock().unwrap_or_else(|e| e.into_inner()) = name;
        if !self.enabled || self.paused {
            let start = Instant::now();
            body(0, calls);
            return start.elapsed().as_nanos() as u64;
        }
        let parent = self.spans.len() as u32;
        let trial_start = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: trial_start,
            end_ns: trial_start,
            parent: None,
            round: self.round,
            calls: calls as u64,
        });
        let batches = BATCHES.min(calls.max(1));
        let mut inside = 0;
        for batch in 0..batches {
            let from = calls * batch / batches;
            let to = calls * (batch + 1) / batches;
            let start_ns = self.now_ns();
            body(from, to - from);
            let end_ns = self.now_ns();
            inside += end_ns - start_ns;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: Some(parent),
                round: self.round,
                calls: (to - from) as u64,
            });
        }
        self.spans[parent as usize].end_ns = self.now_ns();
        inside
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The trace file: one array per field, parallel, so a run's ~10^4 spans
    /// stay compact.
    pub fn to_json(&self) -> Json {
        let column = |f: &dyn Fn(&Span) -> Json| Json::Arr(self.spans.iter().map(f).collect());
        Json::obj([
            ("name", column(&|s| Json::str(s.name))),
            ("start_ns", column(&|s| Json::Num(s.start_ns as f64))),
            ("end_ns", column(&|s| Json::Num(s.end_ns as f64))),
            (
                "parent",
                column(&|s| s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
            ),
            ("round", column(&|s| Json::Num(f64::from(s.round)))),
            ("calls", column(&|s| Json::Num(s.calls as f64))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_untraced_trial_records_nothing_and_runs_the_body_once() {
        let mut tracer = Tracer::new(false);
        let mut seen = Vec::new();
        tracer.trial("x.y", 100, |start, len| seen.push((start, len)));
        assert_eq!(seen, vec![(0, 100)]);
        assert_eq!(tracer.span_count(), 0);
    }

    #[test]
    fn a_traced_trial_covers_every_call_once_under_one_parent() {
        let mut tracer = Tracer::new(true);
        tracer.set_round(3);
        let mut covered = Vec::new();
        tracer.trial("x.y", 1003, |start, len| covered.extend(start..start + len));
        assert_eq!(covered, (0..1003).collect::<Vec<_>>());
        assert_eq!(tracer.span_count(), 1 + BATCHES);
        let parent = &tracer.spans[0];
        assert_eq!((parent.parent, parent.calls, parent.round), (None, 1003, 3));
        let children = &tracer.spans[1..];
        assert!(children.iter().all(|s| s.parent == Some(0)));
        assert_eq!(children.iter().map(|s| s.calls).sum::<u64>(), 1003);
        assert!(children
            .iter()
            .all(|s| s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns));
        // A single call cannot be cut into batches.
        tracer.trial("x.z", 1, |_, len| assert_eq!(len, 1));
        assert_eq!(tracer.span_count(), 1 + BATCHES + 2);
    }
}
