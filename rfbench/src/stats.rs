//! Summary statistics for the benchmark's samples.
//!
//! Timed phases record into fixed-size structures ([`Hist`],
//! [`Windows`]) so that the benchmark's own memory does not grow with the
//! number of operations and does not blur the peak-RSS metric.

/// Median of `v` (mean of the two middle values for an even count).
/// `None` when `v` is empty. Sorts `v` in place.
pub fn median(v: &mut [f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: u64 = 10;

/// Sub-buckets per power of two: values are kept to 1/1024 (≈0.1 %).
const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram of durations in nanoseconds: exact below
/// 1024 ns, then 1024 buckets per power of two. Its memory is fixed and
/// only the buckets a run touches become resident.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB as usize],
            n: 0,
        }
    }
}

impl Hist {
    fn bucket(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros();
        let sub = (ns >> (e - SUB_BITS)) & (SUB - 1);
        ((e - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// Midpoint of bucket `b`, in ns.
    fn value(b: usize) -> f64 {
        let b = b as u64;
        if b < SUB {
            return b as f64;
        }
        let e = b / SUB + SUB_BITS as u64 - 1;
        let width = 1u64 << (e - SUB_BITS as u64);
        (((1u64 << e) + (b % SUB) * width) as f64) + (width as f64 - 1.0) / 2.0
    }

    /// Adds a sample of `us` microseconds.
    pub fn record_us(&mut self, us: f64) {
        self.record_ns((us * 1e3).max(0.0) as u64);
    }

    /// Adds a sample of `ns` nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// `true` when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The sample of 0-based `rank` in ascending order, in µs.
    fn at_rank(&self, rank: u64) -> f64 {
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::value(b) / 1e3;
            }
        }
        unreachable!("rank {rank} beyond {} samples", self.n)
    }

    /// Median in µs (nearest rank), `None` when empty.
    pub fn median(&self) -> Option<f64> {
        (self.n > 0).then(|| self.at_rank((self.n - 1) / 2))
    }

    /// The tail value reported for percentile `p` (nearest rank), in µs:
    /// the `p`-th percentile when at least [`TAIL_BEYOND`] samples lie
    /// beyond it, otherwise the highest percentile that still has that
    /// many beyond it. Returns `(value, percentile actually used)`, or
    /// `None` when there are too few samples for any percentile.
    pub fn tail(&self, p: f64) -> Option<(f64, f64)> {
        let n = self.n;
        if n <= TAIL_BEYOND {
            return None;
        }
        let wanted = ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n) - 1;
        let rank = wanted.min(n - 1 - TAIL_BEYOND);
        let used = if rank == wanted {
            p
        } else {
            100.0 * (rank + 1) as f64 / n as f64
        };
        Some((self.at_rank(rank), used))
    }
}

impl FromIterator<f64> for Hist {
    /// A histogram of samples given in µs.
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Hist {
        let mut h = Hist::default();
        for us in iter {
            h.record_us(us);
        }
        h
    }
}

/// Width of the windows [`Windows`] counts events in, seconds.
pub const RATE_WINDOW_S: f64 = 0.5;

/// Events counted per [`RATE_WINDOW_S`] window of a phase.
#[derive(Debug, Default, Clone)]
pub struct Windows {
    counts: Vec<u64>,
    total: u64,
}

impl Windows {
    /// Counts one event `at_s` seconds after the phase started.
    pub fn add(&mut self, at_s: f64) {
        let w = (at_s / RATE_WINDOW_S) as usize;
        if self.counts.len() <= w {
            self.counts.resize(w + 1, 0);
        }
        self.counts[w] += 1;
        self.total += 1;
    }

    /// Events counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events per second over a phase of `span_s` seconds: the mean of
    /// the middle half of its whole windows that `keep` keeps (see
    /// [`StealWindows::quiet`]; a window past its end is kept), ranked by
    /// the events each holds, so a stall or a burst in a few windows
    /// barely moves it. The plain mean rate when fewer than four windows
    /// are kept.
    pub fn rate(&self, span_s: f64, keep: &[bool]) -> f64 {
        let whole = (span_s / RATE_WINDOW_S) as usize;
        let mut per: Vec<u64> = (0..whole)
            .filter(|&w| kept(keep, w))
            .map(|w| self.counts.get(w).copied().unwrap_or(0))
            .collect();
        let n = per.len();
        if n < 4 {
            return ratio(self.total as f64, span_s);
        }
        per.sort_unstable();
        let mid = &per[n / 4..n - n / 4];
        mid.iter().sum::<u64>() as f64 / mid.len() as f64 / RATE_WINDOW_S
    }
}

/// Medians of samples per [`RATE_WINDOW_S`] window, for samples that
/// arrive in time order. Only the current window's samples are kept.
#[derive(Debug, Default, Clone)]
pub struct WindowMedians {
    window: usize,
    current: Vec<f64>,
    /// (window, its median) of every closed window.
    medians: Vec<(usize, f64)>,
}

impl WindowMedians {
    /// Adds `value`, observed `at_s` seconds after the phase started.
    pub fn add(&mut self, at_s: f64, value: f64) {
        let w = (at_s / RATE_WINDOW_S) as usize;
        if w != self.window {
            self.close();
            self.window = w;
        }
        self.current.push(value);
    }

    fn close(&mut self) {
        if let Some(m) = median(&mut self.current) {
            self.medians.push((self.window, m));
        }
        self.current.clear();
    }

    /// The median over the windows `keep` keeps (a window past its end is
    /// kept; all windows when it keeps none) of each window's median: a
    /// burst of noise that spans fewer than half of them does not move
    /// it.
    pub fn median(&self, keep: &[bool]) -> Option<f64> {
        let mut all = self.clone();
        all.close();
        let mut kept_medians: Vec<f64> = all
            .medians
            .iter()
            .filter(|(w, _)| kept(keep, *w))
            .map(|&(_, m)| m)
            .collect();
        if kept_medians.is_empty() {
            kept_medians = all.medians.iter().map(|&(_, m)| m).collect();
        }
        median(&mut kept_medians)
    }
}

/// Whether `keep` keeps window `w`; windows past its end are kept.
fn kept(keep: &[bool], w: usize) -> bool {
    keep.get(w).copied().unwrap_or(true)
}

/// CPU time the hypervisor stole per [`RATE_WINDOW_S`] window of a phase.
/// On a shared host a window in which the machine's virtual CPUs were
/// descheduled runs slower by more than the time lost, so windows whose
/// steal share is above the phase's median are left out of its rates and
/// window medians.
#[derive(Debug, Default, Clone)]
pub struct StealWindows {
    /// (stolen ticks, all ticks) per window.
    ticks: Vec<(u64, u64)>,
}

impl StealWindows {
    /// Charges `steal` stolen ticks out of `total` CPU ticks to window
    /// `w`.
    pub fn charge(&mut self, w: usize, steal: u64, total: u64) {
        if self.ticks.len() <= w {
            self.ticks.resize(w + 1, (0, 0));
        }
        self.ticks[w].0 += steal;
        self.ticks[w].1 += total;
    }

    /// The windows to keep: those whose steal share is at most the median
    /// share of the charged windows, at least half of them. A window never
    /// charged is kept. When no window saw steal, every window is kept.
    pub fn quiet(&self) -> Vec<bool> {
        let share = |&(steal, total): &(u64, u64)| ratio(steal as f64, total as f64);
        let mut shares: Vec<f64> = self.ticks.iter().filter(|t| t.1 > 0).map(share).collect();
        let Some(cut) = median(&mut shares) else {
            return Vec::new();
        };
        self.ticks
            .iter()
            .map(|t| t.1 == 0 || share(t) <= cut)
            .collect()
    }
}
