//! `rerun`: an iterative solver. A layered DAG with tiny bodies is built
//! and frozen once during set-up, then re-run as a closed loop of
//! `run()` → `get()` with one iteration in flight, so the scheduler core
//! (cache slot, steals, parks, the per-iteration injector push and wake)
//! does nearly all the work.

use crate::common::{
    body, body_flags, lanes_nearly_full, main_span, snapshot, us, Outputs, Phase, Rng, Shape,
    StealMeter, Workload,
};
use rfbench::spans::Name;
use rustflow::{Executor, Taskflow};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tf_workloads::nominal_work;

/// Layers of the DAG.
const LAYERS: usize = 64;
/// Tasks per layer.
const WIDTH: usize = 16;
/// Predecessors of every task below the first layer.
const FAN_IN: usize = 3;
/// Kernel spin iterations per task body.
const WORK: u32 = 4;
/// Iterations run during set-up, before timing.
const WARMUP_ITERS: u64 = 200;
/// Outputs are checked every this many iterations (reading every slot
/// each iteration would pull each one across cores and perturb the
/// next iteration).
const CHECK_EVERY: u64 = 64;
/// Settled futures are collected every this many iterations.
const GC_EVERY: u64 = 4096;
/// The timed iteration whose output `--corrupt-output` falsifies.
const CORRUPT_ITER: u64 = 3;

/// An iteration awaiting its output check: completion (s since the phase
/// started) and latency (µs).
type Unchecked = (f64, f64);

pub struct Rerun {
    ex: Arc<Executor>,
    tf: Taskflow,
    out: Arc<Outputs>,
    /// Iterations run so far; every slot's count must equal it.
    iters: u64,
    shape: Shape,
}

impl Rerun {
    pub fn setup(ex: Arc<Executor>, seed: u64, corrupt: bool) -> Rerun {
        let n = LAYERS * WIDTH;
        let mut rng = Rng::new(seed, 2);
        let mut edges = Vec::with_capacity((n - WIDTH) * FAN_IN);
        for v in WIDTH..n {
            let layer = v / WIDTH - 1;
            let mut preds = [usize::MAX; FAN_IN];
            for k in 0..FAN_IN {
                let mut u = layer * WIDTH + rng.below(WIDTH as u64) as usize;
                while preds[..k].contains(&u) {
                    u = layer * WIDTH + rng.below(WIDTH as u64) as usize;
                }
                preds[k] = u;
                edges.push((u, v));
            }
        }
        let mut outdeg = vec![0u32; n];
        for &(u, _) in &edges {
            outdeg[u] += 1;
        }
        let out = Outputs::new(n);
        let tf = Taskflow::with_executor(Arc::clone(&ex));
        let corrupt_at = WARMUP_ITERS + CORRUPT_ITER;
        let tasks: Vec<_> = (0..n)
            .map(|v| {
                let seed = rng.next_u64();
                let flags = body_flags(v, v < WIDTH, outdeg[v] == 0);
                let out = Arc::clone(&out);
                tf.emplace(move || {
                    body(&out.tag, flags, || {
                        let slot = &out.slots[v];
                        let mut count = slot.a.load(Ordering::Relaxed) + 1;
                        if corrupt && v == 0 && count == corrupt_at {
                            count += 1;
                        }
                        slot.a.store(count, Ordering::Relaxed);
                        let x = slot.b.load(Ordering::Relaxed) ^ nominal_work(seed ^ count, WORK);
                        slot.b.store(x, Ordering::Relaxed);
                    })
                })
            })
            .collect();
        for &(u, v) in &edges {
            tasks[u].precede(tasks[v]);
        }
        drop(tasks);
        let mut w = Rerun {
            ex,
            tf,
            out,
            iters: 0,
            shape: Shape {
                nodes: n as u64,
                edges: edges.len() as u64,
                children: 0,
            },
        };
        for _ in 0..WARMUP_ITERS {
            w.tf.run().get().expect("warm-up iteration failed");
            w.iters += 1;
        }
        assert!(w.check(), "warm-up iterations produced wrong output");
        w.tf.gc();
        w
    }

    /// Every task ran exactly once per iteration.
    fn check(&self) -> bool {
        self.out
            .slots
            .iter()
            .all(|s| s.a.load(Ordering::Relaxed) == self.iters)
    }

    /// Checks the outputs of the iterations since the last check: they
    /// are timed if correct and counted as failed otherwise. After the
    /// first mismatch every later check fails too.
    fn settle(&self, p: &mut Phase, unchecked: &mut Vec<Unchecked>, ok: &mut bool) {
        *ok = *ok && self.check();
        for (at_s, latency_us) in unchecked.drain(..) {
            if *ok {
                p.latency.record_us(latency_us);
                p.latency_windows.add(at_s, latency_us);
                p.done.add(at_s);
            } else {
                p.failed += 1;
            }
        }
    }
}

impl Workload for Rerun {
    fn shape(&self) -> Shape {
        self.shape
    }

    fn phase(&mut self, dur: Duration, traced: bool) -> Phase {
        let mut p = Phase::default();
        let before = self.ex.stats();
        let start = Instant::now();
        let mut prev = start;
        // The iterations since the last output check.
        let mut unchecked = Vec::with_capacity(CHECK_EVERY as usize);
        let mut ok = true;
        let mut steal = StealMeter::default();
        steal.start(0.0);
        while start.elapsed() < dur {
            if traced && lanes_nearly_full() {
                break;
            }
            let run = self.iters as u32 + 1;
            self.out.tag.store(run, Ordering::Relaxed);
            let t0 = Instant::now();
            let handle = self.tf.run();
            let t1 = Instant::now();
            let result = handle.get();
            let t2 = Instant::now();
            self.iters += 1;
            p.attempted += 1;
            p.lag.record_us(us(t0 - prev));
            prev = t2;
            if result.is_err() {
                p.failed += 1;
                ok = false;
                continue;
            }
            let at_s = (t2 - start).as_secs_f64();
            unchecked.push((at_s, us(t2 - t0)));
            steal.at(at_s);
            if traced {
                let root = Some(Name::Root);
                main_span(run, Name::Root, None, t0, t2);
                main_span(run, Name::RunCall, root, t0, t1);
                main_span(run, Name::Wait, root, t1, t2);
                if p.attempted % 256 == 0 {
                    snapshot(&self.ex);
                }
            }
            if self.iters.is_multiple_of(CHECK_EVERY) {
                self.settle(&mut p, &mut unchecked, &mut ok);
            }
            if self.iters.is_multiple_of(GC_EVERY) {
                self.tf.gc();
            }
        }
        self.settle(&mut p, &mut unchecked, &mut ok);
        p.wall = start.elapsed();
        steal.stop();
        p.steal = steal.windows;
        p.stats = self.ex.stats().delta(&before);
        p.closed_loop_rates(self.shape.tasks());
        p
    }
}
