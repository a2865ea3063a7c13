//! Pieces shared by the three workloads.

use rfbench::machine::{cpu_times, CpuTimes};
use rfbench::spans::{Name, Recorder, Span, SAMPLED, SAMPLE_EVERY, SINK, SOURCE};
use rfbench::stats::{Hist, StealWindows, WindowMedians, Windows, RATE_WINDOW_S};
use rustflow::ExecutorStats;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Spans each recording thread may keep (24 B each).
const LANE_CAPACITY: usize = 1 << 19;
/// The traced phase stops once a lane is this full.
const LANE_HIGH_WATER: f64 = 0.9;

static RECORDER: OnceLock<Recorder> = OnceLock::new();
static TRACING: AtomicBool = AtomicBool::new(false);

/// The process-wide span recorder.
pub fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder::new(LANE_CAPACITY))
}

/// Turns span recording in task bodies on or off.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether task bodies record spans right now.
#[inline]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// One task's output, alone on its cache line so that checking outputs
/// adds no contention between tasks.
#[repr(align(64))]
#[derive(Debug, Default)]
pub struct Slot {
    /// Run stamp or run count, per workload.
    pub a: AtomicU64,
    /// Kernel result.
    pub b: AtomicU64,
}

/// The outputs of one graph instance. Its task closures share it, so it
/// is freed with the last of them.
#[derive(Debug)]
pub struct Outputs {
    /// The operation id the graph's body spans are charged to.
    pub tag: AtomicU32,
    /// One slot per task.
    pub slots: Box<[Slot]>,
}

impl Outputs {
    /// `n` zeroed slots and tag 0.
    pub fn new(n: usize) -> Arc<Outputs> {
        Arc::new(Outputs {
            tag: AtomicU32::new(0),
            slots: (0..n).map(|_| Slot::default()).collect(),
        })
    }
}

/// Trace flags of task `index`: source and sink bodies are always
/// recorded (they bound the execution span), others one in
/// [`SAMPLE_EVERY`].
pub fn body_flags(index: usize, source: bool, sink: bool) -> u8 {
    let mut f = 0;
    if source {
        f |= SOURCE;
    }
    if sink {
        f |= SINK;
    }
    if index.is_multiple_of(SAMPLE_EVERY) {
        f |= SAMPLED;
    }
    f
}

/// Runs task body `work`, recording it as a span when tracing and
/// `flags` is non-zero.
#[inline]
pub fn body(tag: &AtomicU32, flags: u8, work: impl FnOnce()) {
    if flags != 0 && tracing() {
        let rec = recorder();
        let start = rec.now();
        work();
        let end = rec.now();
        rec.record(Span {
            run: tag.load(Ordering::Relaxed),
            name: Name::Body,
            parent: Some(Name::Exec),
            lane: 0,
            flags,
            start,
            end,
        });
    } else {
        work();
    }
}

/// Records a main-thread span from instants.
pub fn main_span(run: u32, name: Name, parent: Option<Name>, start: Instant, end: Instant) {
    let rec = recorder();
    rec.record(Span {
        run,
        name,
        parent,
        lane: 0,
        flags: 0,
        start: rec.at(start),
        end: rec.at(end),
    });
}

/// SplitMix64: the benchmark's seeded input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and input `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations started.
    pub attempted: u64,
    /// Operations with wrong output or an unexpected error.
    pub failed: u64,
    /// Operations the front door refused or shed (serve only).
    pub refused: u64,
    /// Headline latency of each correct operation, for its tail.
    pub latency: Hist,
    /// The same samples per window, for its median.
    pub latency_windows: WindowMedians,
    /// Closed loops: completions of correct operations, by time since the
    /// phase started.
    pub done: Windows,
    /// How late the load generator issued each operation.
    pub lag: Hist,
    /// Host steal per window of `done` and `latency_windows`.
    pub steal: StealWindows,
    /// Wall time of the phase.
    pub wall: Duration,
    /// Operations resolved `Ok`, correct and (serve) within their
    /// deadline, per second; serve counts its overload step.
    pub goodput_rps: f64,
    /// Tasks completed per second (likewise).
    pub tasks_per_s: f64,
    /// Executor and tenant counters accumulated over the phase.
    pub stats: ExecutorStats,
    /// Workload-specific per-layer metrics: (name, value, unit).
    pub extra: Vec<(String, f64, &'static str)>,
}

/// Per-operation graph shape, for per-node and per-edge costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shape {
    /// Tasks created by `emplace` on the taskflow.
    pub nodes: u64,
    /// `precede` calls.
    pub edges: u64,
    /// Tasks created inside subflows.
    pub children: u64,
}

impl Shape {
    /// Tasks executed per operation.
    pub fn tasks(&self) -> u64 {
        self.nodes + self.children
    }
}

/// A workload ready to be timed.
pub trait Workload {
    /// The graph shape of one operation.
    fn shape(&self) -> Shape;
    /// Runs a timed phase for `dur`. A traced phase records main-thread
    /// spans around every call into the runtime and stops early when a
    /// span lane is nearly full.
    fn phase(&mut self, dur: Duration, traced: bool) -> Phase;
}

/// `Executor::stats()` timed into a `Snapshot` span when tracing.
pub fn snapshot(ex: &rustflow::Executor) -> ExecutorStats {
    if tracing() {
        let t0 = Instant::now();
        let s = ex.stats();
        main_span(u32::MAX, Name::Snapshot, None, t0, Instant::now());
        s
    } else {
        ex.stats()
    }
}

impl Phase {
    /// Closed-loop rates from the completions counted per window over the
    /// phase's wall time ([`Windows::rate`]), leaving out the windows with
    /// the most host steal.
    pub fn closed_loop_rates(&mut self, tasks_per_op: u64) {
        self.goodput_rps = self.done.rate(self.wall.as_secs_f64(), &self.steal.quiet());
        self.tasks_per_s = self.goodput_rps * tasks_per_op as f64;
    }

    /// The median over the quieter windows of each window's median
    /// headline latency.
    pub fn latency_p50(&self) -> Option<f64> {
        self.latency_windows.median(&self.steal.quiet())
    }
}

/// Charges host steal to the windows of a phase as the phase's clock
/// passes them, reading `/proc/stat` once per window.
#[derive(Debug, Default)]
pub struct StealMeter {
    last: CpuTimes,
    window: usize,
    /// What has been charged so far.
    pub windows: StealWindows,
}

impl StealMeter {
    /// Starts metering at `at_s` seconds into the phase; after a gap
    /// (another step's segment) the gap is not charged.
    pub fn start(&mut self, at_s: f64) {
        self.last = cpu_times();
        self.window = (at_s / RATE_WINDOW_S) as usize;
    }

    /// The phase is at `at_s`: on entering a new window, the time since
    /// the last reading is charged to the window it began in.
    pub fn at(&mut self, at_s: f64) {
        let w = (at_s / RATE_WINDOW_S) as usize;
        if w != self.window {
            self.stop();
            self.window = w;
        }
    }

    /// Charges the time since the last reading to the current window.
    pub fn stop(&mut self) {
        let now = cpu_times();
        self.windows.charge(
            self.window,
            now.steal.saturating_sub(self.last.steal),
            now.total.saturating_sub(self.last.total),
        );
        self.last = now;
    }
}

/// A duration in µs.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Whether the traced phase must stop to keep every span it records.
pub fn lanes_nearly_full() -> bool {
    recorder().max_fill() > LANE_HIGH_WATER
}
