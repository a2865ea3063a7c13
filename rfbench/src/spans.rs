//! The benchmark's span recorder and the self-time rule.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! rustflow layer (the runtime itself is not instrumented). Every thread
//! that records owns a *lane*: a buffer preallocated at a fixed capacity,
//! appended to under an uncontended per-lane lock, never grown and never
//! written to disk while the run is timed. A full lane drops the span and
//! counts the drop. [`Recorder::drain`] collects every lane once the
//! traced work has ended.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span covers. Inside one run each structural name occurs at most
/// once per lane, so a span's parent is named by its [`Name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Name {
    /// The whole operation: one graph, one iteration or one request.
    Root,
    /// The `Taskflow::emplace` loop that creates the graph's tasks.
    Emplace,
    /// The `Task::precede` loop that adds the graph's edges.
    Precede,
    /// An explicit `Taskflow::validate` call.
    Validate,
    /// `Taskflow::dispatch` (one-shot freeze + submit).
    Dispatch,
    /// `Taskflow::run` on a frozen graph.
    RunCall,
    /// `Taskflow::try_run_on` through a tenant.
    RunOnCall,
    /// From the submit call's return until the future is observed resolved.
    Wait,
    /// Submit return → first source body starts (derived).
    FirstTask,
    /// First source body starts → last sink body ends (derived).
    Exec,
    /// Last sink body ends → future observed resolved (derived).
    Finalize,
    /// Open loop: request due → submit call starts.
    Lag,
    /// One task body, on a worker lane.
    Body,
    /// The child-creating part of a subflow task, on a worker lane.
    Spawn,
    /// One `Executor::stats()` call.
    Snapshot,
    /// Dropping a resolved one-shot taskflow (the graph's clean-up).
    Drop,
}

impl Name {
    /// The layer label written to the span file.
    pub fn label(self) -> &'static str {
        match self {
            Name::Root => "op",
            Name::Emplace => "taskflow.emplace",
            Name::Precede => "task.precede",
            Name::Validate => "taskflow.validate",
            Name::Dispatch => "topology.dispatch",
            Name::RunCall => "topology.run",
            Name::RunOnCall => "frontdoor.run_on",
            Name::Wait => "wait",
            Name::FirstTask => "executor.first_task",
            Name::Exec => "executor.exec",
            Name::Finalize => "executor.finalize",
            Name::Lag => "loadgen.lag",
            Name::Body => "task.body",
            Name::Spawn => "subflow.spawn",
            Name::Snapshot => "stats.snapshot",
            Name::Drop => "taskflow.drop",
        }
    }
}

/// Body span flags.
pub const SOURCE: u8 = 1;
/// The task has no successors.
pub const SINK: u8 = 2;
/// The task belongs to the uniform 1-in-[`SAMPLE_EVERY`] body sample.
pub const SAMPLED: u8 = 4;
/// Body spans are sampled for the body-time share by task index.
pub const SAMPLE_EVERY: usize = 8;

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Operation id the span belongs to (graph, iteration or request).
    pub run: u32,
    /// What the span covers.
    pub name: Name,
    /// The span that caused it; `None` for roots and free-standing spans.
    pub parent: Option<Name>,
    /// The recording thread's lane (0 is the first thread to record).
    pub lane: u8,
    /// [`SOURCE`] / [`SINK`] / [`SAMPLED`] bits for body spans.
    pub flags: u8,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin (`>= start`).
    pub end: u64,
}

impl Span {
    /// `end - start`.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct Lane {
    id: u8,
    spans: Mutex<Vec<Span>>,
}

/// A set of per-thread span buffers sharing one clock origin.
pub struct Recorder {
    key: usize,
    origin: Instant,
    capacity: usize,
    lanes: Mutex<Vec<Arc<Lane>>>,
    dropped: AtomicU64,
}

static NEXT_KEY: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    static LANE: RefCell<Option<(usize, Arc<Lane>)>> = const { RefCell::new(None) };
}

impl Recorder {
    /// A recorder whose lanes each hold at most `capacity` spans.
    pub fn new(capacity: usize) -> Recorder {
        Recorder {
            key: NEXT_KEY.fetch_add(1, Ordering::Relaxed),
            origin: Instant::now(),
            capacity,
            lanes: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since the recorder's origin.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the origin for an instant taken elsewhere.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Appends a span to the calling thread's lane (its `lane` field is
    /// overwritten), registering the lane on first use.
    pub fn record(&self, mut span: Span) {
        self.with_lane(|lane| {
            span.lane = lane.id;
            let mut spans = lane.spans.lock().expect("span lane poisoned");
            if spans.len() < self.capacity {
                spans.push(span);
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// The calling thread's lane id, registering the lane (and
    /// preallocating its buffer) on first use.
    pub fn lane(&self) -> u8 {
        self.with_lane(|lane| lane.id)
    }

    fn with_lane<R>(&self, f: impl FnOnce(&Lane) -> R) -> R {
        LANE.with(|cell| {
            let mut cell = cell.borrow_mut();
            if !matches!(&*cell, Some((key, _)) if *key == self.key) {
                *cell = Some((self.key, self.register()));
            }
            f(&cell.as_ref().expect("registered above").1)
        })
    }

    fn register(&self) -> Arc<Lane> {
        let mut lanes = self.lanes.lock().expect("lane registry poisoned");
        let id = u8::try_from(lanes.len()).expect("more than 255 recording threads");
        let lane = Arc::new(Lane {
            id,
            spans: Mutex::new(Vec::with_capacity(self.capacity)),
        });
        lanes.push(Arc::clone(&lane));
        lane
    }

    /// Fullest lane's fill level in `0.0..=1.0`.
    pub fn max_fill(&self) -> f64 {
        let lanes = self.lanes.lock().expect("lane registry poisoned");
        lanes
            .iter()
            .map(|l| l.spans.lock().expect("span lane poisoned").len())
            .max()
            .unwrap_or(0) as f64
            / self.capacity.max(1) as f64
    }

    /// Spans dropped because a lane was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Takes every recorded span out of every lane. Call once the traced
    /// work has ended.
    pub fn drain(&self) -> Vec<Span> {
        let lanes = self.lanes.lock().expect("lane registry poisoned");
        let mut out = Vec::new();
        for lane in lanes.iter() {
            out.append(&mut lane.spans.lock().expect("span lane poisoned"));
        }
        out
    }
}

/// Self time of every span, in input order: its duration minus the part
/// of its interval covered by its children. A child is a span of the same
/// run on the same lane whose `parent` names the span; overlapping
/// children are counted once, and a child's part outside its parent's
/// interval is ignored. Spans on other lanes that name it as parent ran
/// concurrently and are not subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].run, spans[i].lane, spans[i].parent, spans[i].start));
    let mut out = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let key = (s.run, s.lane, Some(s.name));
        let lo = order.partition_point(|&j| (spans[j].run, spans[j].lane, spans[j].parent) < key);
        let mut covered = 0u64;
        let mut reach = s.start;
        for &j in &order[lo..] {
            let c = &spans[j];
            if (c.run, c.lane, c.parent) != key {
                break;
            }
            if j == i {
                continue;
            }
            // Children are sorted by start: sweep their union.
            let a = c.start.max(reach);
            let b = c.end.min(s.end);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        out[i] = s.dur() - covered.min(s.dur());
    }
    out
}
