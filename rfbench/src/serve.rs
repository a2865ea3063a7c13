//! `serve`: the multi-tenant front door under an open loop. Each request
//! is one `try_run_on(tenant)` of a pre-frozen 8-task fork-join graph.
//! Requests arrive as a seeded Poisson process at three fixed rates
//! (well below, below and above capacity); each is timed from the moment
//! it was due, so a stalled generator or a queue shows in the latency.

use crate::common::{
    body, body_flags, lanes_nearly_full, main_span, snapshot, tracing, us, Outputs, Phase, Rng,
    Shape, StealMeter, Workload,
};
use rfbench::spans::Name;
use rfbench::stats::{Hist, WindowMedians, Windows};
use rustflow::{Executor, RunError, RunHandle, Taskflow, Tenant, TenantQos};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tf_workloads::nominal_work;

/// Parallel tasks between the fork and the join.
const FANOUT: usize = 6;
/// Tasks per request graph: fork, `FANOUT` middles, join.
const TASKS: usize = FANOUT + 2;
/// Kernel spin iterations per task body (about 0.3 µs).
const WORK: u32 = 64;
/// Idle frozen taskflows requests rotate over; more than the tenant
/// queues and the in-flight budget hold, so no request finds its graph
/// busy and no two runs coalesce.
const POOL: usize = 512;
/// Settled futures of a pooled taskflow are collected every this many
/// runs.
const GC_EVERY: u64 = 64;
/// Topologies the executor runs at once; the rest wait in the tenant
/// queues, where weighted fair queueing, shedding and deadlines act.
pub const MAX_INFLIGHT: usize = 4;
/// Per-tenant queue bound; a request past it is refused. A full queue
/// drains in well under every tenant's deadline, so at the `over` step a
/// deadline is missed through host stalls and send lag, not because the
/// bound sits at the deadline, where a small change in capacity would
/// flip many requests from good to late.
const MAX_QUEUED: usize = 16;
/// Share of each cycle a rate step takes: low, mid, over.
const STEP_SHARE: [f64; 3] = [0.2, 0.4, 0.4];
/// Length of one low → mid → over cycle. A run repeats the cycle, so a
/// slow spell of the shared host falls on every step alike and moves a
/// step's median of window medians only if it covers most of the run.
const CYCLE: Duration = Duration::from_millis(2500);
/// Step names used in per-step metric names.
pub const STEPS: [&str; 3] = ["low", "mid", "over"];
/// The request whose output `--corrupt-output` falsifies (counted from
/// the first timed request).
const CORRUPT_REQUEST: u32 = 3;

/// One tenant of the traffic mix.
struct TenantSpec {
    name: &'static str,
    /// Weighted-fair-queueing weight.
    weight: u32,
    /// Share of the requests.
    share: f64,
    /// Deadline of each request, from its due time: a request resolved
    /// later does not count as goodput.
    deadline: Duration,
    /// Whether the runtime enforces the deadline too (`TenantQos.deadline`:
    /// admission rejects and queue sheds); otherwise only goodput uses it.
    enforced: bool,
}

/// The deadlines were set from the seed-state `over` step tail (see
/// `README.md`); there 2–10 % of the requests still miss them.
const TENANTS: [TenantSpec; 3] = [
    TenantSpec {
        name: "gold",
        weight: 4,
        share: 0.4,
        deadline: Duration::from_millis(3),
        enforced: false,
    },
    TenantSpec {
        name: "silver",
        weight: 2,
        share: 0.35,
        deadline: Duration::from_millis(3),
        enforced: false,
    },
    TenantSpec {
        name: "bronze",
        weight: 1,
        share: 0.25,
        deadline: Duration::from_millis(2),
        enforced: true,
    },
];

struct Member {
    tf: Taskflow,
    /// Slot `TASKS - 1`, the join task's, holds its run count.
    out: Arc<Outputs>,
    /// Runs the join task must have counted.
    runs: u64,
    busy: bool,
}

struct Request {
    due: Instant,
    sent: Instant,
    returned: Instant,
    member: usize,
    tenant: usize,
    handle: RunHandle,
}

/// What one rate step measured, over all of its segments.
#[derive(Default)]
struct Step {
    /// Seconds the step ran in earlier segments: a completion is filed at
    /// its time since the step's first segment started, leaving out the
    /// other steps' segments.
    elapsed: f64,
    /// Completions of correct requests, and of those within their
    /// deadline.
    ok: Windows,
    good: Windows,
    latency: Hist,
    latency_windows: WindowMedians,
    /// Host steal per window of the step's own time.
    steal: StealMeter,
}

pub struct Serve {
    ex: Arc<Executor>,
    tenants: Vec<Tenant>,
    pool: Vec<Member>,
    rates: [f64; 3],
    rng: Rng,
    next: usize,
    requests: u32,
    corrupt_at: Arc<AtomicU32>,
}

impl Member {
    /// The join task's run count.
    fn sink_runs(&self) -> u64 {
        self.out.slots[TASKS - 1].a.load(Ordering::Relaxed)
    }
}

impl Serve {
    pub fn setup(ex: Arc<Executor>, seed: u64, rates: [f64; 3], corrupt: bool) -> Serve {
        tight_timer_slack();
        let tenants = TENANTS
            .iter()
            .map(|t| {
                ex.tenant_with(
                    t.name,
                    TenantQos {
                        weight: t.weight,
                        max_queued: MAX_QUEUED,
                        deadline: t.enforced.then_some(t.deadline),
                        ..TenantQos::default()
                    },
                )
            })
            .collect();
        let mut rng = Rng::new(seed, 3);
        let corrupt_at = Arc::new(AtomicU32::new(u32::MAX));
        let mut pool = Vec::with_capacity(POOL);
        for m in 0..POOL {
            let out = Outputs::new(TASKS);
            let tf = Taskflow::with_executor(Arc::clone(&ex));
            let tasks: Vec<_> = (0..TASKS)
                .map(|i| {
                    let seed = rng.next_u64();
                    let flags = body_flags(m + i, i == 0, i == TASKS - 1);
                    let out = Arc::clone(&out);
                    let corrupt_at = (i == TASKS - 1).then(|| Arc::clone(&corrupt_at));
                    tf.emplace(move || {
                        body(&out.tag, flags, || {
                            let slot = &out.slots[i];
                            slot.b.store(nominal_work(seed, WORK), Ordering::Relaxed);
                            if let Some(corrupt_at) = &corrupt_at {
                                let extra = u64::from(
                                    out.tag.load(Ordering::Relaxed)
                                        == corrupt_at.load(Ordering::Relaxed),
                                );
                                let runs = slot.a.load(Ordering::Relaxed) + 1 + extra;
                                slot.a.store(runs, Ordering::Relaxed);
                            }
                        })
                    })
                })
                .collect();
            for &mid in &tasks[1..=FANOUT] {
                tasks[0].precede(mid);
                mid.precede(tasks[TASKS - 1]);
            }
            drop(tasks);
            // The first run freezes the graph.
            tf.run().get().expect("warm-up run failed");
            pool.push(Member {
                tf,
                out,
                runs: 1,
                busy: false,
            });
        }
        let mut w = Serve {
            ex,
            tenants,
            pool,
            rates,
            rng,
            next: 0,
            requests: 0,
            corrupt_at,
        };
        // Warm the front door (admission estimates, tenant queues) with a
        // closed loop through every tenant.
        for k in 0..2 * POOL {
            let tenant = &w.tenants[k % w.tenants.len()];
            let m = &mut w.pool[k % POOL];
            m.tf.run_on(tenant)
                .expect("warm-up admission failed")
                .get()
                .expect("warm-up request failed");
            m.runs += 1;
            assert_eq!(m.sink_runs(), m.runs, "warm-up output");
        }
        for m in &mut w.pool {
            m.tf.gc();
        }
        if corrupt {
            w.corrupt_at.store(CORRUPT_REQUEST, Ordering::Relaxed);
        }
        w
    }

    fn pick_tenant(&mut self) -> usize {
        let mut u = self.rng.unit();
        for (k, t) in TENANTS.iter().enumerate() {
            if u <= t.share {
                return k;
            }
            u -= t.share;
        }
        TENANTS.len() - 1
    }

    fn idle_member(&mut self) -> Option<usize> {
        for _ in 0..POOL {
            let m = self.next;
            self.next = (self.next + 1) % POOL;
            if !self.pool[m].busy {
                return Some(m);
            }
        }
        None
    }

    /// Runs one segment of an open-loop rate step for `dur`, then drains
    /// it.
    fn step(&mut self, rate: f64, dur: Duration, traced: bool, p: &mut Phase, out: &mut Step) {
        let start = Instant::now();
        out.steal.start(out.elapsed);
        let mut pending: VecDeque<Request> = VecDeque::new();
        let end = start + dur;
        let mut due = start;
        loop {
            let now = Instant::now();
            if due < end && now >= due {
                let Some(m) = self.idle_member() else {
                    // Every pooled graph is in flight: the generator
                    // stalls on the oldest request, and the stall shows
                    // as lag.
                    let req = pending.pop_front().expect("busy members are pending");
                    let result = req.handle.get();
                    self.complete(req, result, traced, p, out, start);
                    continue;
                };
                self.send(m, due, now, &mut pending, p);
                due += Duration::from_secs_f64(-self.rng.unit().ln() / rate);
                if traced && self.requests.is_multiple_of(256) && lanes_nearly_full() {
                    due = end;
                }
                self.sweep(&mut pending, traced, p, out, start);
                continue;
            }
            let Some(front) = pending.front() else {
                if due >= end {
                    break;
                }
                std::thread::sleep(due - now);
                continue;
            };
            let result = if due < end {
                front.handle.future().get_timeout(due - now)
            } else {
                Some(front.handle.get())
            };
            let Some(result) = result else { continue };
            let req = pending.pop_front().expect("front exists");
            self.complete(req, result, traced, p, out, start);
            self.sweep(&mut pending, traced, p, out, start);
        }
        out.steal.stop();
        out.elapsed += start.elapsed().as_secs_f64();
    }

    /// Observes every request at the front of `pending` that already
    /// resolved.
    fn sweep(
        &mut self,
        pending: &mut VecDeque<Request>,
        traced: bool,
        p: &mut Phase,
        out: &mut Step,
        start: Instant,
    ) {
        while pending.front().is_some_and(|r| r.handle.is_ready()) {
            let req = pending.pop_front().expect("front exists");
            let result = req.handle.get();
            self.complete(req, result, traced, p, out, start);
        }
    }

    fn send(
        &mut self,
        m: usize,
        due: Instant,
        now: Instant,
        pending: &mut VecDeque<Request>,
        p: &mut Phase,
    ) {
        let tenant = self.pick_tenant();
        self.requests += 1;
        let member = &mut self.pool[m];
        member.out.tag.store(self.requests, Ordering::Relaxed);
        p.attempted += 1;
        p.lag.record_us(us(now - due));
        let sent = Instant::now();
        let result = member.tf.try_run_on(&self.tenants[tenant]);
        let returned = Instant::now();
        match result {
            Ok(handle) => {
                member.busy = true;
                pending.push_back(Request {
                    due,
                    sent,
                    returned,
                    member: m,
                    tenant,
                    handle,
                });
            }
            // Refused at the door: saturated queue, infeasible deadline
            // or open breaker.
            Err(_) => p.refused += 1,
        }
        if tracing() && self.requests.is_multiple_of(256) {
            snapshot(&self.ex);
        }
    }

    fn complete(
        &mut self,
        req: Request,
        result: Result<(), RunError>,
        traced: bool,
        p: &mut Phase,
        out: &mut Step,
        start: Instant,
    ) {
        let seen = Instant::now();
        let member = &mut self.pool[req.member];
        member.busy = false;
        let runs = member.sink_runs();
        match result {
            Ok(()) if runs == member.runs + 1 => {
                member.runs = runs;
                if runs.is_multiple_of(GC_EVERY) {
                    member.tf.gc();
                }
                let latency = seen - req.due;
                let at = out.elapsed + (seen - start).as_secs_f64();
                out.steal.at(at);
                out.ok.add(at);
                if latency <= TENANTS[req.tenant].deadline {
                    out.good.add(at);
                }
                out.latency.record_us(us(latency));
                out.latency_windows.add(at, us(latency));
                if traced {
                    let run = member.out.tag.load(Ordering::Relaxed);
                    let root = Some(Name::Root);
                    main_span(run, Name::Root, None, req.due, seen);
                    main_span(run, Name::Lag, root, req.due, req.sent);
                    main_span(run, Name::RunOnCall, root, req.sent, req.returned);
                    main_span(run, Name::Wait, root, req.returned, seen);
                }
            }
            Err(RunError::Shed { .. }) if runs == member.runs => p.refused += 1,
            _ => {
                // Wrong output: resynchronise so only this request fails.
                member.runs = runs;
                p.failed += 1;
            }
        }
    }
}

impl Workload for Serve {
    fn shape(&self) -> Shape {
        Shape {
            nodes: TASKS as u64,
            edges: 2 * FANOUT as u64,
            children: 0,
        }
    }

    fn phase(&mut self, dur: Duration, traced: bool) -> Phase {
        let mut p = Phase::default();
        let before = self.ex.stats();
        let start = Instant::now();
        let steps: Vec<usize> = if traced { vec![1] } else { vec![0, 1, 2] };
        let total_share: f64 = steps.iter().map(|&s| STEP_SHARE[s]).sum();
        let cycles = (dur.as_secs_f64() / CYCLE.as_secs_f64()).round().max(1.0);
        let mut out: [Step; 3] = Default::default();
        for _ in 0..cycles as u32 {
            for &s in &steps {
                let seg = dur.mul_f64(STEP_SHARE[s] / total_share / cycles);
                self.step(self.rates[s], seg, traced, &mut p, &mut out[s]);
            }
        }
        for (s, out) in out.into_iter().enumerate() {
            if !steps.contains(&s) {
                continue;
            }
            let name = STEPS[s];
            let achieved = out.ok.total() as f64 / out.elapsed;
            let quiet = out.steal.windows.quiet();
            if let Some(p50) = out.latency_windows.median(&quiet) {
                p.extra
                    .push((format!("serve.{name}.latency_us_p50"), p50, "us"));
            }
            if let Some((p99, _)) = out.latency.tail(99.0) {
                p.extra
                    .push((format!("serve.{name}.latency_us_p99"), p99, "us"));
            }
            p.extra
                .push((format!("serve.{name}.achieved_rps"), achieved, "1/s"));
            if s == 1 {
                p.latency = out.latency;
                p.latency_windows = out.latency_windows;
                p.steal = out.steal.windows;
            } else if s == 2 {
                p.tasks_per_s = out.ok.rate(out.elapsed, &quiet) * TASKS as f64;
                p.goodput_rps = out.good.rate(out.elapsed, &quiet);
            }
        }
        p.wall = start.elapsed();
        p.stats = self.ex.stats().delta(&before);
        p
    }
}

/// Lets the generator thread's timed waits end within 1 µs of their
/// deadline instead of Linux's default 50 µs timer slack, so requests are
/// sent when due rather than in late bursts.
fn tight_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes a nanosecond count by value and
    // only changes the calling thread's timer slack; no memory is passed.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
    if rc != 0 {
        eprintln!("rfbench: could not tighten the timer slack; send lag will be larger");
    }
}
