//! `oneshot`: the paper's Fig. 7 irregular traversal in the one-shot
//! model. Every graph is built fresh (`emplace`/`precede`), dispatched and
//! waited on, so graph construction, validation and topology freeze are
//! on the measured path.

use crate::common::{
    body, body_flags, lanes_nearly_full, main_span, recorder, snapshot, tracing, us, Outputs,
    Phase, Rng, Shape, StealMeter, Workload,
};
use rfbench::spans::{Name, Span, SAMPLED, SOURCE};
use rustflow::{Executor, Subflow, Taskflow};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tf_workloads::{nominal_work, randdag, RandDagSpec};

/// Nodes per graph.
const NODES: usize = 4096;
/// Kernel spin iterations per task body.
const WORK: u32 = 40;
/// One node in this many is a joined subflow.
const SUBFLOW_EVERY: u64 = 16;
/// Children each subflow spawns.
const CHILDREN: usize = 4;
/// Graphs run during set-up, before timing.
const WARMUP_GRAPHS: usize = 8;
/// The timed graph whose output `--corrupt-output` falsifies.
const CORRUPT_GRAPH: u64 = 3;

#[derive(Clone, Copy)]
struct Node {
    seed: u64,
    flags: u8,
    /// Subflow nodes: the first slot of their children, and each child's
    /// seed and trace flags.
    children: Option<(usize, [(u64, u8); CHILDREN])>,
}

pub struct Oneshot {
    ex: Arc<Executor>,
    nodes: Vec<Node>,
    edges: Vec<(u32, u32)>,
    out: Arc<Outputs>,
    oracle: u64,
    graphs: u64,
    corrupt: bool,
    shape: Shape,
}

struct GraphRun {
    /// Build start, emplace done, precede done, validate done, dispatch
    /// returned, future resolved, taskflow dropped.
    t: [Instant; 7],
    ok: bool,
}

impl Oneshot {
    pub fn setup(ex: Arc<Executor>, seed: u64, corrupt: bool) -> Oneshot {
        let edges = randdag::generate_edges(RandDagSpec {
            nodes: NODES,
            seed,
            work_iters: WORK,
        });
        let mut indeg = vec![0u32; NODES];
        let mut outdeg = vec![0u32; NODES];
        for &(u, v) in &edges {
            outdeg[u as usize] += 1;
            indeg[v as usize] += 1;
        }
        let mut rng = Rng::new(seed, 1);
        let mut nodes = Vec::with_capacity(NODES);
        let mut spawned = 0;
        for v in 0..NODES {
            let sink = outdeg[v] == 0;
            let children = (rng.below(SUBFLOW_EVERY) == 0).then(|| {
                let base = NODES + spawned;
                spawned += CHILDREN;
                let kids =
                    std::array::from_fn(|j| (rng.next_u64(), body_flags(base + j, false, sink)));
                (base, kids)
            });
            let flags = match children {
                // A subflow's children end after it: they carry its sink
                // flag, and its spawn span carries the source flag.
                Some(_) => body_flags(v, indeg[v] == 0, false),
                None => body_flags(v, indeg[v] == 0, sink),
            };
            nodes.push(Node {
                seed: rng.next_u64(),
                flags,
                children,
            });
        }
        let mut oracle = 0;
        for n in &nodes {
            oracle ^= nominal_work(n.seed, WORK);
            for &(seed, _) in n.children.iter().flat_map(|(_, kids)| kids) {
                oracle ^= nominal_work(seed, WORK);
            }
        }
        let shape = Shape {
            nodes: NODES as u64,
            edges: edges.len() as u64,
            children: spawned as u64,
        };
        let mut w = Oneshot {
            ex,
            nodes,
            edges,
            out: Outputs::new(NODES + spawned),
            oracle,
            graphs: 0,
            corrupt: false,
            shape,
        };
        for _ in 0..WARMUP_GRAPHS {
            let g = w.graph(false);
            assert!(g.ok, "warm-up graph produced wrong output");
        }
        w.corrupt = corrupt;
        w
    }

    fn graph(&mut self, validate: bool) -> GraphRun {
        self.graphs += 1;
        let epoch = self.graphs;
        self.out.tag.store(epoch as u32, Ordering::Relaxed);
        let bad = u64::from(self.corrupt && epoch == WARMUP_GRAPHS as u64 + CORRUPT_GRAPH);
        let t0 = Instant::now();
        let tf = Taskflow::with_executor(Arc::clone(&self.ex));
        let mut tasks = Vec::with_capacity(self.nodes.len());
        for (v, node) in self.nodes.iter().enumerate() {
            let Node {
                seed,
                flags,
                children,
            } = *node;
            let flip = bad & u64::from(v == 0);
            let out = Arc::clone(&self.out);
            let own = move |out: &Outputs| {
                let s = &out.slots[v];
                s.b.store(nominal_work(seed, WORK) ^ flip, Ordering::Relaxed);
                s.a.store(epoch, Ordering::Relaxed);
            };
            tasks.push(match children {
                None => tf.emplace(move || body(&out.tag, flags, || own(&out))),
                Some((base, kids)) => tf.emplace_subflow(move |sf| {
                    spawn(sf, &out, flags & SOURCE, base, kids, epoch);
                    body(&out.tag, flags & SAMPLED, || own(&out));
                }),
            });
        }
        let t1 = Instant::now();
        for &(u, v) in &self.edges {
            tasks[u as usize].precede(tasks[v as usize]);
        }
        let t2 = Instant::now();
        if validate {
            std::hint::black_box(tf.validate());
        }
        let t3 = Instant::now();
        let handle = tf.dispatch();
        let t4 = Instant::now();
        let result = handle.get();
        let t5 = Instant::now();
        drop(tasks);
        drop(tf);
        let t6 = Instant::now();
        GraphRun {
            t: [t0, t1, t2, t3, t4, t5, t6],
            ok: result.is_ok() && self.check(epoch),
        }
    }

    /// Every slot was written by this graph and the outputs fold to the
    /// oracle computed from the seed.
    fn check(&self, epoch: u64) -> bool {
        let mut xor = 0;
        for s in self.out.slots.iter() {
            if s.a.load(Ordering::Relaxed) != epoch {
                return false;
            }
            xor ^= s.b.load(Ordering::Relaxed);
        }
        xor == self.oracle
    }
}

/// The child-creating part of a subflow task: spawns its children, each
/// writing its own slot.
fn spawn(
    sf: &mut Subflow<'_>,
    out: &Arc<Outputs>,
    source: u8,
    base: usize,
    kids: [(u64, u8); CHILDREN],
    epoch: u64,
) {
    let start = tracing().then(|| recorder().now());
    for (j, (seed, flags)) in kids.into_iter().enumerate() {
        let out = Arc::clone(out);
        sf.emplace(move || {
            body(&out.tag, flags, || {
                let slot = &out.slots[base + j];
                slot.b.store(nominal_work(seed, WORK), Ordering::Relaxed);
                slot.a.store(epoch, Ordering::Relaxed);
            })
        });
    }
    if let Some(start) = start {
        let rec = recorder();
        rec.record(Span {
            run: out.tag.load(Ordering::Relaxed),
            name: Name::Spawn,
            parent: Some(Name::Exec),
            lane: 0,
            flags: source,
            start,
            end: rec.now(),
        });
    }
}

impl Workload for Oneshot {
    fn shape(&self) -> Shape {
        self.shape
    }

    fn phase(&mut self, dur: Duration, traced: bool) -> Phase {
        let mut p = Phase::default();
        let before = self.ex.stats();
        let start = Instant::now();
        let mut prev = start;
        let mut steal = StealMeter::default();
        steal.start(0.0);
        while start.elapsed() < dur {
            if traced && lanes_nearly_full() {
                break;
            }
            let g = self.graph(traced);
            let t = g.t;
            p.attempted += 1;
            p.lag.record_us(us(t[0] - prev));
            prev = t[6];
            if !g.ok {
                p.failed += 1;
                continue;
            }
            p.latency.record_us(us(t[5] - t[0]));
            let at = (t[5] - start).as_secs_f64();
            p.latency_windows.add(at, us(t[5] - t[0]));
            p.done.add(at);
            steal.at(at);
            if traced {
                let run = self.graphs as u32;
                let root = Some(Name::Root);
                main_span(run, Name::Root, None, t[0], t[5]);
                main_span(run, Name::Emplace, root, t[0], t[1]);
                main_span(run, Name::Precede, root, t[1], t[2]);
                main_span(run, Name::Validate, root, t[2], t[3]);
                main_span(run, Name::Dispatch, root, t[3], t[4]);
                main_span(run, Name::Wait, root, t[4], t[5]);
                main_span(run, Name::Drop, None, t[5], t[6]);
                if p.attempted % 16 == 0 {
                    snapshot(&self.ex);
                }
            }
        }
        p.wall = start.elapsed();
        steal.stop();
        p.steal = steal.windows;
        p.stats = self.ex.stats().delta(&before);
        p.closed_loop_rates(self.shape.tasks());
        p
    }
}
