//! Property-based tests of core invariants: arbitrary DAGs always execute
//! in dependency order with every task exactly once; the work-stealing
//! deque never loses or duplicates items (differentially tested against
//! crossbeam-deque); reductions always match their sequential folds; the
//! graph sanitizer agrees with a hashed reference implementation.

use proptest::prelude::*;
use rustflow::{Executor, GraphDiagnostic, Taskflow};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Strategy: a random DAG as (node count, forward edges).
fn arb_dag() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..60).prop_flat_map(|n| {
        let edges =
            proptest::collection::vec((0usize..n, 0usize..n), 0..120).prop_map(move |pairs| {
                pairs
                    .into_iter()
                    .filter(|&(u, v)| u != v)
                    .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
                    .collect::<Vec<_>>()
            });
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_dag_runs_each_task_once_in_order((n, edges) in arb_dag(), workers in 1usize..5) {
        let ex = Executor::new(workers);
        let tf = Taskflow::with_executor(ex);
        let clock = Arc::new(AtomicUsize::new(0));
        let stamps: Vec<Arc<AtomicUsize>> =
            (0..n).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        let runs: Vec<Arc<AtomicUsize>> =
            (0..n).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        let tasks: Vec<_> = (0..n)
            .map(|i| {
                let clock = Arc::clone(&clock);
                let stamp = Arc::clone(&stamps[i]);
                let run = Arc::clone(&runs[i]);
                tf.emplace(move || {
                    run.fetch_add(1, Ordering::SeqCst);
                    stamp.store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for &(u, v) in &edges {
            tasks[u].precede(tasks[v]);
        }
        tf.wait_for_all();
        for (i, run) in runs.iter().enumerate() {
            prop_assert_eq!(run.load(Ordering::SeqCst), 1, "task {} run count", i);
        }
        let s: Vec<usize> = stamps.iter().map(|s| s.load(Ordering::SeqCst)).collect();
        for &(u, v) in &edges {
            prop_assert!(s[u] < s[v], "edge ({},{}) violated", u, v);
        }
    }

    #[test]
    fn subflows_of_random_size_all_complete(children in proptest::collection::vec(0usize..12, 1..10)) {
        let ex = Executor::new(3);
        let tf = Taskflow::with_executor(ex);
        let total = Arc::new(AtomicUsize::new(0));
        let expected: usize = children.iter().map(|&c| c + 1).sum();
        for (idx, &c) in children.iter().enumerate() {
            let total = Arc::clone(&total);
            let detach = idx % 2 == 0;
            tf.emplace_subflow(move |sf| {
                total.fetch_add(1, Ordering::SeqCst);
                for _ in 0..c {
                    let t = Arc::clone(&total);
                    sf.emplace(move || {
                        t.fetch_add(1, Ordering::SeqCst);
                    });
                }
                if detach {
                    sf.detach();
                }
            });
        }
        tf.wait_for_all();
        prop_assert_eq!(total.load(Ordering::SeqCst), expected);
    }

    #[test]
    fn reduce_matches_sequential_fold(values in proptest::collection::vec(-1000i64..1000, 0..300), chunk in 1usize..40) {
        let ex = Executor::new(3);
        let tf = Taskflow::with_executor(ex);
        let shared = rustflow::SharedVec::new(values.clone());
        let (_s, _t, result) = rustflow::algorithm::transform_reduce(
            &tf, &shared, chunk, 0i64, |&x| x, |a, b| a + b);
        tf.wait_for_all();
        prop_assert_eq!(result.take(), Some(values.iter().sum::<i64>()));
    }

    #[test]
    fn parallel_for_touches_every_index(n in 0usize..500, chunk in 1usize..64) {
        let ex = Executor::new(3);
        let tf = Taskflow::with_executor(ex);
        let hits: Arc<Vec<AtomicUsize>> =
            Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
        let h = Arc::clone(&hits);
        rustflow::algorithm::parallel_for(&tf, 0..n, chunk, move |i| {
            h[i].fetch_add(1, Ordering::SeqCst);
        });
        tf.wait_for_all();
        for (i, hit) in hits.iter().enumerate() {
            prop_assert_eq!(hit.load(Ordering::SeqCst), 1, "index {}", i);
        }
    }

    #[test]
    fn for_each_mut_writes_disjointly(n in 1usize..400, chunk in 1usize..50) {
        let ex = Executor::new(3);
        let mut tf = Taskflow::with_executor(ex);
        let data = rustflow::SharedVec::new(vec![0usize; n]);
        rustflow::algorithm::for_each_mut(&tf, &data, chunk, |i, x| *x = i + 1);
        tf.wait_for_all();
        tf.gc();
        drop(tf);
        let out = data.into_vec();
        for (i, v) in out.iter().enumerate() {
            prop_assert_eq!(*v, i + 1);
        }
    }
}

// Differential test: our Chase–Lev deque vs crossbeam-deque under the
// same randomized operation schedule (owner ops single-threaded here;
// concurrency is covered by the stress test in the wsq module).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wsq_matches_crossbeam_sequentially(ops in proptest::collection::vec(0u8..4, 1..400)) {
        let (owner, stealer) = rustflow::wsq::deque();
        let cb = crossbeam::deque::Worker::new_lifo();
        let cb_stealer = cb.stealer();
        let mut next = 1usize;
        for op in ops {
            match op {
                0 | 1 => {
                    owner.push(next);
                    cb.push(next);
                    next += 1;
                }
                2 => {
                    let ours = owner.pop();
                    let theirs = cb.pop();
                    prop_assert_eq!(ours, theirs);
                }
                _ => {
                    let ours = match stealer.steal() {
                        rustflow::wsq::Steal::Success(v) => Some(v),
                        _ => None,
                    };
                    let theirs = match cb_stealer.steal() {
                        crossbeam::deque::Steal::Success(v) => Some(v),
                        _ => None,
                    };
                    prop_assert_eq!(ours, theirs);
                }
            }
            prop_assert_eq!(owner.len(), cb.len());
        }
    }
}

/// Where an edge of a generated graph points: a node of the graph itself,
/// or a node of a second taskflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Target {
    Local(usize),
    Foreign(usize),
}

/// A generated graph for the sanitizer oracle.
#[derive(Debug)]
struct GraphSpec {
    /// Per node: named `t<i>`, or left unnamed.
    named: Vec<bool>,
    /// Nodes of the second taskflow.
    foreign: usize,
    /// Successor lists, in `precede` order.
    succs: Vec<Vec<Target>>,
    /// Edges from the second taskflow into the graph: (foreign, local).
    incoming: Vec<(usize, usize)>,
}

impl GraphSpec {
    fn label(&self, i: usize) -> String {
        if self.named[i] {
            format!("t{i}")
        } else {
            format!("task@{i}")
        }
    }

    fn in_degree(&self, i: usize) -> usize {
        let local = self.succs.iter().flatten();
        local.filter(|&&t| t == Target::Local(i)).count()
            + self.incoming.iter().filter(|&&(_, v)| v == i).count()
    }

    /// Builds the graph (and the second taskflow its edges reach) and
    /// returns what `Taskflow::validate` reports for it.
    fn validate(&self) -> Vec<GraphDiagnostic> {
        let tf = Taskflow::new();
        let other = Taskflow::new();
        let tasks: Vec<_> = (0..self.succs.len())
            .map(|i| {
                let t = tf.emplace(|| {});
                if self.named[i] {
                    t.name(format!("t{i}"))
                } else {
                    t
                }
            })
            .collect();
        let foreign: Vec<_> = (0..self.foreign).map(|_| other.emplace(|| {})).collect();
        for (u, succs) in self.succs.iter().enumerate() {
            for &t in succs {
                match t {
                    Target::Local(v) => tasks[u].precede(tasks[v]),
                    Target::Foreign(v) => tasks[u].precede(foreign[v]),
                };
            }
        }
        for &(u, v) in &self.incoming {
            foreign[u].precede(tasks[v]);
        }
        tf.validate()
    }
}

/// Strategy: up to 13 nodes and 39 edges, mostly pointing forward; a
/// per-graph share of edges keeps a random direction (injecting cycles).
/// Small graphs make self-edges, duplicate edges and orphans common, and
/// up to 3 nodes of a second taskflow send and receive edges.
fn arb_graph() -> impl Strategy<Value = GraphSpec> {
    (1usize..14, 0usize..4, 0u64..4).prop_flat_map(|(n, foreign, chaos)| {
        let edges = collection::vec((0usize..n, 0usize..n + foreign, 0u64..16), 0..40);
        let incoming = collection::vec((0usize..foreign.max(1), 0usize..n), 0..4);
        (collection::vec(0u8..2, n..n + 1), edges, incoming).prop_map(
            move |(named, edges, incoming)| {
                let mut succs = vec![Vec::new(); n];
                for (u, v, r) in edges {
                    let (u, v) = if v < u && r >= chaos { (v, u) } else { (u, v) };
                    succs[u].push(if v < n {
                        Target::Local(v)
                    } else {
                        Target::Foreign(v - n)
                    });
                }
                GraphSpec {
                    named: named.into_iter().map(|b| b == 1).collect(),
                    foreign,
                    succs,
                    incoming: if foreign == 0 { Vec::new() } else { incoming },
                }
            },
        )
    })
}

/// The reference sanitizer: a `HashMap` of copies per node and a
/// three-colour DFS, run over the spec instead of the built graph.
fn oracle(g: &GraphSpec) -> Vec<GraphDiagnostic> {
    let mut out = Vec::new();
    let n = g.succs.len();
    for (i, succs) in g.succs.iter().enumerate() {
        let mut copies: HashMap<Target, usize> = HashMap::new();
        for &s in succs {
            *copies.entry(s).or_insert(0) += 1;
        }
        if copies.contains_key(&Target::Local(i)) {
            out.push(GraphDiagnostic::SelfEdge {
                label: g.label(i),
                node: i,
            });
        }
        for (&s, &count) in copies.iter() {
            match s {
                Target::Local(j) if count > 1 && j != i => {
                    out.push(GraphDiagnostic::DuplicateEdge {
                        from: g.label(i),
                        to: g.label(j),
                        from_node: i,
                        to_node: j,
                        count,
                    })
                }
                _ => {}
            }
        }
        if n > 1 && g.in_degree(i) == 0 && succs.is_empty() {
            out.push(GraphDiagnostic::Orphan {
                label: g.label(i),
                node: i,
            });
        }
    }
    // 0 = white, 1 = gray (on the current path), 2 = black.
    let mut color = vec![0u8; n];
    'roots: for root in 0..n {
        if color[root] != 0 {
            continue;
        }
        let mut stack = vec![(root, 0)];
        color[root] = 1;
        while let Some(&(at, pos)) = stack.last() {
            let succs = &g.succs[at];
            if pos < succs.len() {
                stack.last_mut().expect("nonempty").1 = pos + 1;
                let Target::Local(j) = succs[pos] else {
                    continue;
                };
                if j == at {
                    continue;
                }
                match color[j] {
                    0 => {
                        color[j] = 1;
                        stack.push((j, 0));
                    }
                    1 => {
                        let start = stack.iter().position(|&(k, _)| k == j).expect("gray");
                        let nodes: Vec<usize> = stack[start..].iter().map(|&(k, _)| k).collect();
                        let mut path: Vec<String> = nodes.iter().map(|&k| g.label(k)).collect();
                        path.push(path[0].clone());
                        out.push(GraphDiagnostic::Cycle { path, nodes });
                        break 'roots;
                    }
                    _ => {}
                }
            } else {
                color[at] = 2;
                stack.pop();
            }
        }
    }
    out
}

/// Splits findings into the ordered non-duplicate ones and the duplicate
/// edges as a sorted multiset.
fn split(diags: Vec<GraphDiagnostic>) -> (Vec<GraphDiagnostic>, Vec<String>) {
    let (dups, rest): (Vec<_>, Vec<_>) = diags
        .into_iter()
        .partition(|d| matches!(d, GraphDiagnostic::DuplicateEdge { .. }));
    let mut dups: Vec<String> = dups.iter().map(|d| format!("{d:?}")).collect();
    dups.sort();
    (rest, dups)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn validate_agrees_with_hashed_oracle(g in arb_graph()) {
        prop_assert_eq!(split(g.validate()), split(oracle(&g)), "graph {:?}", g);
    }
}

#[test]
fn oracle_graphs_cover_every_finding() {
    let strategy = arb_graph();
    let mut seen = [0usize; 4];
    let mut foreign_edges = 0;
    for seed in 0..512 {
        let g = strategy.sample(&mut TestRng::new(seed));
        let outward = g.succs.iter().flatten();
        foreign_edges += outward.filter(|t| matches!(t, Target::Foreign(_))).count();
        foreign_edges += g.incoming.len();
        for d in oracle(&g) {
            seen[match d {
                GraphDiagnostic::Cycle { .. } => 0,
                GraphDiagnostic::SelfEdge { .. } => 1,
                GraphDiagnostic::DuplicateEdge { .. } => 2,
                GraphDiagnostic::Orphan { .. } => 3,
            }] += 1;
        }
    }
    assert!(seen.iter().all(|&k| k >= 16), "findings per kind: {seen:?}");
    assert!(
        foreign_edges >= 16,
        "edges crossing taskflows: {foreign_edges}"
    );
}
