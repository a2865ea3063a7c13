//! Pre-dispatch graph sanitizer.
//!
//! Cpp-Taskflow documents that "a cyclic dependency graph results in
//! undefined behavior" — in practice a cycle dispatched to the executor
//! deadlocks, because no node on the cycle ever reaches join-counter zero.
//! rustflow instead *analyzes* the graph before handing it to the
//! executor: [`crate::Taskflow::validate`] returns structured
//! [`GraphDiagnostic`]s, and dispatching a graph with a fatal diagnostic
//! resolves the returned future with
//! [`RunError::InvalidGraph`](crate::RunError::InvalidGraph) instead of
//! wedging the worker pool.
//!
//! The analysis is linear in nodes plus edges and hashes nothing:
//!
//! * Every node records its emplacement index ([`Graph::emplace`]), so an
//!   edge target maps to its index with one load and a pointer-equality
//!   check against `graph.nodes[index]`. An edge that leaves the graph
//!   (into another taskflow) fails the check and is not followed.
//! * One sweep visits each node's successor list once. It flags
//!   self-edges, finds repeated edges with a per-target stamp (the last
//!   node that reached the target), flags orphans, counts each node's
//!   in-graph in-degree, and collects the sources (static in-degree zero)
//!   that [`crate::topology::Topology::new`] and the subflow spawn publish.
//! * If every edge points forward in emplacement order, that order is a
//!   topological order and the graph is acyclic. Otherwise a Kahn pass
//!   releases nodes as their in-graph in-degree drains; the graph is
//!   acyclic iff every node is released.
//! * Only a graph Kahn cannot drain pays for the three-colour DFS, which
//!   names the first cycle as its label path (e.g. `A -> B -> C -> A`).
//! * The freeze path ([`crate::topology::Topology::new`]) and the subflow
//!   spawn ask only for the verdict and the sources, so an accepted graph
//!   builds no finding at all; a rejected one is analyzed again with the
//!   full report, which [`RunError::InvalidGraph`](crate::RunError::InvalidGraph)
//!   carries.
//!
//! The working arrays (8 to 12 bytes per node) live in a per-thread
//! [`Scratch`] that keeps its capacity between calls, so freezing a graph
//! or spawning a subflow allocates nothing for the analysis in the steady
//! state.

use crate::graph::{Graph, Node, RawNode};
use std::cell::Cell;
use std::fmt;

/// One finding of the pre-dispatch graph sanitizer.
///
/// `node` fields are indices into the taskflow's present graph in
/// emplacement order — the same order [`crate::Taskflow::dump`] emits
/// nodes — so tools can correlate findings with the DOT output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphDiagnostic {
    /// A dependency cycle. Dispatching it would deadlock; fatal.
    Cycle {
        /// The cycle as task labels, closed (first label repeated at the
        /// end): `["A", "B", "A"]`. Unnamed tasks render as `task@<index>`.
        path: Vec<String>,
        /// Indices of the distinct nodes on the cycle, in path order.
        nodes: Vec<usize>,
    },
    /// A task that precedes itself — a one-node cycle; fatal.
    SelfEdge {
        /// The task's label (`task@<index>` when unnamed).
        label: String,
        /// The node's index.
        node: usize,
    },
    /// The same `precede` edge was added more than once. Harmless to
    /// correctness (the join counter is armed from the accumulated
    /// in-degree), but almost always a bug in graph-building code.
    DuplicateEdge {
        /// Label of the edge's source task.
        from: String,
        /// Label of the edge's target task.
        to: String,
        /// Index of the source node.
        from_node: usize,
        /// Index of the target node.
        to_node: usize,
        /// How many copies of the edge exist (≥ 2).
        count: usize,
    },
    /// A task with no predecessors and no successors in a graph that has
    /// other tasks. It still runs — but it is disconnected from the
    /// dependency structure, which usually signals a forgotten `precede`.
    Orphan {
        /// The task's label (`task@<index>` when unnamed).
        label: String,
        /// The node's index.
        node: usize,
    },
}

impl GraphDiagnostic {
    /// `true` when dispatching a graph with this finding cannot make
    /// progress (cycles and self-edges); such graphs are rejected at
    /// dispatch. Warnings (duplicate edges, orphans) do not block.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            GraphDiagnostic::Cycle { .. } | GraphDiagnostic::SelfEdge { .. }
        )
    }
}

impl fmt::Display for GraphDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphDiagnostic::Cycle { path, .. } => {
                write!(f, "dependency cycle: {}", path.join(" -> "))
            }
            GraphDiagnostic::SelfEdge { label, .. } => {
                write!(f, "task '{label}' precedes itself")
            }
            GraphDiagnostic::DuplicateEdge {
                from, to, count, ..
            } => write!(f, "duplicate edge '{from}' -> '{to}' ({count} copies)"),
            GraphDiagnostic::Orphan { label, .. } => {
                write!(f, "orphan task '{label}' (no predecessors or successors)")
            }
        }
    }
}

/// Label for diagnostics: the task's name, or `task@<index>` when unnamed.
unsafe fn diag_label(n: &Node, index: usize) -> String {
    // SAFETY: forwarding the caller's quiescence guarantee.
    let label = unsafe { n.label() };
    if label.is_empty() {
        format!("task@{index}")
    } else {
        label.to_string()
    }
}

/// Analyzes `graph` with this thread's [`Scratch`] and returns every
/// finding: per node in index order its self-edge, its duplicate edges
/// (in successor-list order, by first occurrence) and its orphan flag,
/// then at most one cycle. Callers filter with
/// [`GraphDiagnostic::is_fatal`].
///
/// # Safety
/// Must be called in a quiescent phase: the build thread before dispatch,
/// or on a graph no worker is mutating.
pub(crate) unsafe fn validate_graph(graph: &Graph) -> Vec<GraphDiagnostic> {
    let mut out = Vec::new();
    // SAFETY: forwarding the caller's quiescence guarantee.
    with_scratch(|scratch| unsafe { scratch.analyze(graph, Some(&mut out)) });
    out
}

thread_local! {
    /// This thread's analysis scratch, parked between calls.
    static SCRATCH: Cell<Scratch> = const { Cell::new(Scratch::new()) };
}

/// Scratch sized for more nodes than this is freed after use instead of
/// being parked, so one huge graph does not pin memory on its thread.
const RETAIN_NODES: usize = 1 << 16;

/// Runs `f` with this thread's scratch. A nested call (an observer hook
/// that validates while a subflow spawn holds the scratch) gets a fresh
/// one.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = SCRATCH.try_with(Cell::take).unwrap_or_default();
    let result = f(&mut scratch);
    if scratch.mark.capacity() <= RETAIN_NODES {
        // A thread tearing down its locals simply drops the scratch.
        let _ = SCRATCH.try_with(|cell| cell.set(scratch));
    }
    result
}

/// Working memory of the graph analysis, reused across calls.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Per node: in-graph, non-self edges into it that Kahn has not yet
    /// released.
    pending: Vec<u32>,
    /// Per node during the sweep: `1 + i` for the last node `i` with an
    /// edge into it, so a repeat within one successor list is one compare.
    /// Kahn's worklist afterwards.
    mark: Vec<u32>,
    /// Indices of the nodes with static in-degree zero, ascending.
    sources: Vec<u32>,
}

impl Scratch {
    const fn new() -> Scratch {
        Scratch {
            pending: Vec::new(),
            mark: Vec::new(),
            sources: Vec::new(),
        }
    }

    /// The sources found by the last [`Scratch::analyze`]: indices of the
    /// nodes whose static in-degree is zero, ascending.
    pub(crate) fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Decides whether `graph` can run (it has no self-edge and no cycle)
    /// and leaves its sources in [`Scratch::sources`]. With `report`, also
    /// pushes every finding into it, ordered as in [`validate_graph`].
    /// Without, no finding is built: the freeze and spawn paths run it
    /// that way, and only a graph they reject pays for the full report.
    ///
    /// # Safety
    /// Must be called in a quiescent phase: the build thread before
    /// dispatch, or on a graph no worker is mutating. Every edge target,
    /// in this graph or another, must be a live node.
    pub(crate) unsafe fn analyze(
        &mut self,
        graph: &Graph,
        mut report: Option<&mut Vec<GraphDiagnostic>>,
    ) -> bool {
        let nodes = &graph.nodes[..];
        let n = nodes.len();
        assert!(u32::try_from(n).is_ok(), "graph exceeds u32::MAX nodes");
        self.pending.clear();
        self.pending.resize(n, 0);
        self.mark.clear();
        self.mark.resize(n, 0);
        self.sources.clear();
        let mut runnable = true;
        let mut backward = false;
        for (i, node) in nodes.iter().enumerate() {
            // SAFETY: quiescent phase per the caller's contract.
            let succs = unsafe { node.structure.successors.get() };
            let stamp = i as u32 + 1;
            let mut self_edge = false;
            let mut repeated = false;
            for &s in succs.iter() {
                // SAFETY: `s` is a live node per the caller's contract.
                let Some(j) = (unsafe { local_index(nodes, s) }) else {
                    continue;
                };
                if j == i {
                    self_edge = true;
                    continue;
                }
                backward |= j < i;
                repeated |= self.mark[j] == stamp;
                self.mark[j] = stamp;
                self.pending[j] = self.pending[j]
                    .checked_add(1)
                    .expect("a node has more than u32::MAX in-edges");
            }
            runnable &= !self_edge;
            // SAFETY: quiescent phase.
            let source = unsafe { *node.structure.in_degree.get() } == 0;
            if source {
                self.sources.push(i as u32);
            }
            let Some(out) = report.as_deref_mut() else {
                continue;
            };
            if self_edge {
                out.push(GraphDiagnostic::SelfEdge {
                    // SAFETY: quiescent phase.
                    label: unsafe { diag_label(node, i) },
                    node: i,
                });
            }
            if repeated {
                // SAFETY: quiescent phase; live edge targets.
                unsafe { push_duplicates(nodes, i, succs, out) };
            }
            if source && n > 1 && succs.is_empty() {
                out.push(GraphDiagnostic::Orphan {
                    // SAFETY: quiescent phase.
                    label: unsafe { diag_label(node, i) },
                    node: i,
                });
            }
        }
        // Without a backward edge, emplacement order is a topological
        // order; otherwise Kahn decides, and the DFS runs only to name
        // the cycle Kahn proved exists.
        // SAFETY: quiescent phase; live edge targets.
        if backward && !unsafe { drains(nodes, &mut self.pending, &mut self.mark) } {
            runnable = false;
            if let Some(out) = report {
                // SAFETY: as above.
                out.push(unsafe { first_cycle(nodes) });
            }
        }
        runnable
    }
}

/// The index of edge target `s` in `nodes`, or `None` for an edge that
/// leaves the graph.
///
/// # Safety
/// `s` must point to a live node.
#[inline]
unsafe fn local_index(nodes: &[Box<Node>], s: RawNode) -> Option<usize> {
    // SAFETY: `s` is live per the caller; `index` is written once, before
    // the node is reachable through any edge.
    let j = unsafe { (*s).structure.index };
    match nodes.get(j) {
        Some(node) if std::ptr::eq(&**node, s) => Some(j),
        _ => None,
    }
}

/// Pushes node `i`'s duplicate edges in successor-list order, by first
/// occurrence, each with its copy count. Only nodes whose sweep saw a
/// repeat pay for this.
///
/// # Safety
/// Quiescent phase; every entry of `succs` is a live node.
unsafe fn push_duplicates(
    nodes: &[Box<Node>],
    i: usize,
    succs: &[RawNode],
    out: &mut Vec<GraphDiagnostic>,
) {
    // (target, position) of every in-graph, non-self edge.
    let mut edges = Vec::with_capacity(succs.len());
    for (k, &s) in succs.iter().enumerate() {
        // SAFETY: `s` is live per the caller's contract.
        match unsafe { local_index(nodes, s) } {
            Some(j) if j != i => edges.push((j, k)),
            _ => {}
        }
    }
    edges.sort_unstable();
    // (first position, target, copies) of every repeated target.
    let mut repeats: Vec<(usize, usize, usize)> = edges
        .chunk_by(|a, b| a.0 == b.0)
        .filter(|run| run.len() > 1)
        .map(|run| (run[0].1, run[0].0, run.len()))
        .collect();
    repeats.sort_unstable();
    for (_, j, count) in repeats {
        out.push(GraphDiagnostic::DuplicateEdge {
            // SAFETY: quiescent phase per the caller's contract.
            from: unsafe { diag_label(&nodes[i], i) },
            // SAFETY: as above.
            to: unsafe { diag_label(&nodes[j], j) },
            from_node: i,
            to_node: j,
            count,
        });
    }
}

/// Kahn's algorithm over the in-graph, non-self in-degrees in `pending`:
/// `true` iff every node is released, i.e. the graph is acyclic. Consumes
/// `pending`; `stack` (one slot per node) holds the worklist, which never
/// outgrows it because each node is pushed at most once.
///
/// # Safety
/// Quiescent phase; every edge target is a live node.
unsafe fn drains(nodes: &[Box<Node>], pending: &mut [u32], stack: &mut [u32]) -> bool {
    let mut top = 0;
    for (j, &p) in pending.iter().enumerate() {
        if p == 0 {
            stack[top] = j as u32;
            top += 1;
        }
    }
    let mut released = 0;
    while top > 0 {
        top -= 1;
        let i = stack[top] as usize;
        released += 1;
        // SAFETY: quiescent phase per the caller's contract.
        for &s in unsafe { nodes[i].structure.successors.get() }.iter() {
            // SAFETY: `s` is live per the caller's contract.
            let Some(j) = (unsafe { local_index(nodes, s) }) else {
                continue;
            };
            if j == i {
                continue;
            }
            pending[j] -= 1;
            if pending[j] == 0 {
                stack[top] = j as u32;
                top += 1;
            }
        }
    }
    released == nodes.len()
}

/// Names the first cycle an iterative three-colour DFS meets, roots taken
/// in index order, with an explicit path stack so the finding carries the
/// actual label path. Self-edges (reported separately) and edges leaving
/// the graph are not followed.
///
/// # Safety
/// Quiescent phase; every edge target is a live node; the graph must
/// contain a cycle of two or more nodes.
unsafe fn first_cycle(nodes: &[Box<Node>]) -> GraphDiagnostic {
    let n = nodes.len();
    // 0 = white, 1 = gray (on the current path), 2 = black.
    let mut color: Vec<u8> = vec![0; n];
    for root in 0..n {
        if color[root] != 0 {
            continue;
        }
        // Stack of (node index, next successor position).
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        color[root] = 1;
        while let Some(&(at, pos)) = stack.last() {
            // SAFETY: quiescent phase per the caller's contract.
            let succs = unsafe { nodes[at].structure.successors.get() };
            if pos == succs.len() {
                color[at] = 2;
                stack.pop();
                continue;
            }
            stack.last_mut().expect("nonempty").1 = pos + 1;
            // SAFETY: `succs[pos]` is live per the caller's contract.
            let Some(j) = (unsafe { local_index(nodes, succs[pos]) }) else {
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
                    // A back edge: the cycle is the path suffix from `j`.
                    let start = stack
                        .iter()
                        .position(|&(k, _)| k == j)
                        .expect("gray node is on the path");
                    let nodes_on: Vec<usize> = stack[start..].iter().map(|&(k, _)| k).collect();
                    let mut path: Vec<String> = nodes_on
                        .iter()
                        // SAFETY: quiescent phase.
                        .map(|&k| unsafe { diag_label(&nodes[k], k) })
                        .collect();
                    path.push(path[0].clone());
                    return GraphDiagnostic::Cycle {
                        path,
                        nodes: nodes_on,
                    };
                }
                _ => {}
            }
        }
    }
    unreachable!("Kahn left nodes unreleased, so the graph has a cycle")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Work;

    fn connect(a: RawNode, b: RawNode) {
        // SAFETY: single-threaded build phase.
        unsafe {
            (*a).structure.successors.get_mut().push(b);
            *(*b).structure.in_degree.get_mut() += 1;
        }
    }

    fn name(n: RawNode, s: &str) {
        // SAFETY: single-threaded build phase.
        unsafe {
            *(*n).structure.name.get_mut() = crate::TaskLabel::new(s);
        }
    }

    #[test]
    fn clean_graph_has_no_findings() {
        let mut g = Graph::new();
        let a = g.emplace(Work::Empty);
        let b = g.emplace(Work::Empty);
        connect(a, b);
        assert!(unsafe { validate_graph(&g) }.is_empty());
    }

    #[test]
    fn cycle_reports_label_path() {
        let mut g = Graph::new();
        let a = g.emplace(Work::Empty);
        let b = g.emplace(Work::Empty);
        let c = g.emplace(Work::Empty);
        name(a, "A");
        name(b, "B");
        name(c, "C");
        connect(a, b);
        connect(b, c);
        connect(c, a);
        let diags = unsafe { validate_graph(&g) };
        assert_eq!(diags.len(), 1);
        match &diags[0] {
            GraphDiagnostic::Cycle { path, nodes } => {
                assert_eq!(path, &["A", "B", "C", "A"]);
                assert_eq!(nodes, &[0, 1, 2]);
            }
            other => panic!("expected Cycle, got {other:?}"),
        }
        assert!(diags[0].is_fatal());
        assert_eq!(diags[0].to_string(), "dependency cycle: A -> B -> C -> A");
    }

    #[test]
    fn unnamed_cycle_uses_index_labels() {
        let mut g = Graph::new();
        let a = g.emplace(Work::Empty);
        let b = g.emplace(Work::Empty);
        connect(a, b);
        connect(b, a);
        let diags = unsafe { validate_graph(&g) };
        match &diags[0] {
            GraphDiagnostic::Cycle { path, .. } => {
                assert_eq!(path, &["task@0", "task@1", "task@0"]);
            }
            other => panic!("expected Cycle, got {other:?}"),
        }
    }

    #[test]
    fn self_edge_is_fatal_and_not_double_reported() {
        let mut g = Graph::new();
        let a = g.emplace(Work::Empty);
        name(a, "loopy");
        connect(a, a);
        let diags = unsafe { validate_graph(&g) };
        assert_eq!(diags.len(), 1);
        assert_eq!(
            diags[0],
            GraphDiagnostic::SelfEdge {
                label: "loopy".into(),
                node: 0
            }
        );
        assert!(diags[0].is_fatal());
    }

    #[test]
    fn duplicate_edge_counts_copies() {
        let mut g = Graph::new();
        let a = g.emplace(Work::Empty);
        let b = g.emplace(Work::Empty);
        name(a, "A");
        name(b, "B");
        connect(a, b);
        connect(a, b);
        connect(a, b);
        let diags = unsafe { validate_graph(&g) };
        assert_eq!(diags.len(), 1);
        match &diags[0] {
            GraphDiagnostic::DuplicateEdge {
                from, to, count, ..
            } => {
                assert_eq!((from.as_str(), to.as_str(), *count), ("A", "B", 3));
            }
            other => panic!("expected DuplicateEdge, got {other:?}"),
        }
        assert!(!diags[0].is_fatal());
    }

    #[test]
    fn orphan_detected_only_in_multi_node_graphs() {
        let mut g = Graph::new();
        g.emplace(Work::Empty);
        assert!(
            unsafe { validate_graph(&g) }.is_empty(),
            "singleton is fine"
        );
        let mut g = Graph::new();
        let a = g.emplace(Work::Empty);
        let b = g.emplace(Work::Empty);
        g.emplace(Work::Empty); // orphan
        connect(a, b);
        let diags = unsafe { validate_graph(&g) };
        assert_eq!(
            diags,
            vec![GraphDiagnostic::Orphan {
                label: "task@2".into(),
                node: 2
            }]
        );
    }

    #[test]
    fn empty_graph_is_clean() {
        let g = Graph::new();
        assert!(unsafe { validate_graph(&g) }.is_empty());
    }
}
