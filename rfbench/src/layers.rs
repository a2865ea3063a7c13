//! Per-layer attribution of a traced run.
//!
//! The main thread records, per operation, a root span partitioned into
//! the calls it made (`emplace` loop, `precede` loop, `validate`, the
//! submit call, the wait). Worker lanes record task bodies, flagged as
//! sources and sinks. [`attribute`] splits each wait into three derived
//! spans — submit return → first source body starts, → last sink body
//! ends, → future observed resolved — clipped so they tile the wait, and
//! then computes every span's self time. On the main lane the self times
//! of one operation add up to its root span's duration by construction:
//! the main thread cuts its spans from one chain of consecutive instants,
//! and the derived spans tile the wait.

use crate::spans::{self_times, Name, Span, SAMPLED, SINK, SOURCE};
use std::collections::{BTreeMap, HashMap};

/// Everything the per-layer metrics are derived from.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Operations with a root span on the main lane.
    pub ops: usize,
    /// Operations whose first source or last sink span is missing.
    pub incomplete: usize,
    /// Σ self time per span name, every lane.
    pub self_ns: BTreeMap<Name, u64>,
    /// Per-operation durations in µs, by span name (main lane only).
    pub per_op_us: BTreeMap<Name, Vec<f64>>,
    /// Σ duration of sampled task bodies.
    pub sampled_body_ns: u64,
}

impl Attribution {
    /// Σ self time of `name`, in ns.
    pub fn total_ns(&self, name: Name) -> f64 {
        self.self_ns.get(&name).copied().unwrap_or(0) as f64
    }

    /// Per-operation durations of `name`, in µs (empty if never seen).
    pub fn per_op(&self, name: Name) -> Vec<f64> {
        self.per_op_us.get(&name).cloned().unwrap_or_default()
    }
}

/// Adds the derived execution spans to `spans` and attributes self time.
/// Returns the spans (derived ones appended) with their self times.
pub fn attribute(mut spans: Vec<Span>, main_lane: u8) -> (Vec<(Span, u64)>, Attribution) {
    // First source start and last sink end of each run, from worker lanes.
    let mut edges: HashMap<u32, (u64, u64)> = HashMap::new();
    for s in spans.iter().filter(|s| s.lane != main_lane) {
        let e = edges.entry(s.run).or_insert((u64::MAX, 0));
        if s.flags & SOURCE != 0 {
            e.0 = e.0.min(s.start);
        }
        if s.flags & SINK != 0 {
            e.1 = e.1.max(s.end);
        }
    }
    let mut att = Attribution::default();
    let waits: Vec<Span> = spans
        .iter()
        .filter(|s| s.lane == main_lane && s.name == Name::Wait)
        .copied()
        .collect();
    for w in waits {
        match edges.get(&w.run) {
            Some(&(first, last)) if first != u64::MAX && last != 0 => {
                let f = first.clamp(w.start, w.end);
                let e = last.clamp(f, w.end);
                for (name, start, end) in [
                    (Name::FirstTask, w.start, f),
                    (Name::Exec, f, e),
                    (Name::Finalize, e, w.end),
                ] {
                    spans.push(Span {
                        name,
                        parent: Some(Name::Wait),
                        start,
                        end,
                        ..w
                    });
                }
            }
            _ => att.incomplete += 1,
        }
    }
    let selfs = self_times(&spans);
    for (s, &own) in spans.iter().zip(&selfs) {
        *att.self_ns.entry(s.name).or_insert(0) += own;
        if s.name == Name::Body && s.flags & SAMPLED != 0 {
            att.sampled_body_ns += s.dur();
        }
        if s.lane != main_lane {
            continue;
        }
        att.per_op_us
            .entry(s.name)
            .or_default()
            .push(s.dur() as f64 / 1e3);
        if s.name == Name::Root {
            att.ops += 1;
        }
    }
    (spans.into_iter().zip(selfs).collect(), att)
}
