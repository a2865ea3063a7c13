//! Task-graph storage: nodes, edges, and the work they carry.
//!
//! A [`Graph`] owns its nodes as `Box<Node>`, so node addresses are stable
//! for the node's entire life even as the owning collection moves (from the
//! building [`Taskflow`](crate::Taskflow) into a dispatched
//! [`Topology`](crate::topology::Topology), or inside a parent node's
//! subflow graph). The executor and task handles refer to nodes by raw
//! pointer, exactly like Cpp-Taskflow's `Node*`; liveness is guaranteed by
//! the taskflow keeping every dispatched topology alive until the taskflow
//! itself is destroyed or garbage-collected (§III-C of the paper).
//!
//! A node is split into two halves with different lifecycles:
//!
//! * [`NodeStructure`] — what the user built: name, callable, edges,
//!   static in-degree. Frozen once the graph is handed to a topology, and
//!   shared unchanged by every run of that topology.
//! * [`NodeState`] — what one execution needs: the runtime join counter,
//!   the joined-subflow countdown, parent/topology back-pointers, and the
//!   subgraph a dynamic task spawned. Re-armed from the structure before
//!   every run ([`Node::rearm`]), which is what makes topologies reusable
//!   by `run`/`run_n`/`run_until` without rebuilding the graph.

use crate::label::TaskLabel;
use crate::subflow::Subflow;
use crate::sync::AtomicUsize;
use crate::sync_cell::SyncCell;
use crate::topology::Topology;
use std::sync::atomic::Ordering;

/// Raw pointer to a node; the executor's currency.
pub(crate) type RawNode = *mut Node;

/// The callable payload of a node.
///
/// Cpp-Taskflow stores a `std::variant` of a static callable and a dynamic
/// (subflow-taking) callable behind one polymorphic wrapper (§III-D); this
/// enum is the Rust equivalent and is what makes the static and dynamic
/// tasking interfaces uniform. The callables are `FnMut`, so the same
/// payload can run once per iteration of a reused topology.
pub(crate) enum Work {
    /// Placeholder: no work yet (task handle may assign later).
    Empty,
    /// A static task: a plain closure.
    Static(Box<dyn FnMut() + Send + 'static>),
    /// A dynamic task: receives a [`Subflow`] to spawn children at runtime.
    Dynamic(Box<dyn FnMut(&mut Subflow<'_>) + Send + 'static>),
}

impl std::fmt::Debug for Work {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Work::Empty => f.write_str("Empty"),
            Work::Static(_) => f.write_str("Static"),
            Work::Dynamic(_) => f.write_str("Dynamic"),
        }
    }
}

/// The immutable half of a node: everything the build phase produced.
///
/// Mutated only while the graph is a taskflow's present graph (or a
/// subflow under construction); read-only once dispatched. Reused verbatim
/// across every iteration of a reusable topology.
pub(crate) struct NodeStructure {
    /// Optional human-readable name, interned so observers can clone it
    /// without allocating (used by the DOT dump and the tracer).
    pub(crate) name: SyncCell<TaskLabel>,
    /// The callable payload.
    pub(crate) work: SyncCell<Work>,
    /// Outgoing edges.
    pub(crate) successors: SyncCell<Vec<RawNode>>,
    /// Static in-degree, accumulated during construction; the runtime
    /// `join_counter` is armed from this value before every run.
    pub(crate) in_degree: SyncCell<usize>,
    /// Per-task retry policy ([`Task::retry`](crate::Task::retry));
    /// [`RetryPolicy::none`] by default.
    pub(crate) retry: SyncCell<RetryPolicy>,
    /// Position in the owning graph's `nodes`, set once by
    /// [`Graph::emplace`] and never written again. The graph analysis
    /// ([`crate::validate`]) maps an edge target to its index with this
    /// load plus a pointer-equality check against `graph.nodes[index]`.
    pub(crate) index: usize,
}

/// How many times a panicking task is re-executed before its panic is
/// recorded, and how long to pause between attempts.
///
/// Set during graph construction via [`Task::retry`](crate::Task::retry) /
/// [`Task::retry_backoff`](crate::Task::retry_backoff); frozen with the
/// rest of the structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RetryPolicy {
    /// Additional attempts after the first failure (0 = no retry).
    pub(crate) limit: u32,
    /// Sleep before retry k (1-based) is `base * 2^(k-1)`, capped at
    /// [`RetryPolicy::MAX_BACKOFF`]; zero means retry immediately.
    pub(crate) base_backoff: std::time::Duration,
}

impl RetryPolicy {
    /// Exponential backoff is clamped here so a retry storm cannot stall
    /// a worker for longer than a scheduling quantum.
    pub(crate) const MAX_BACKOFF: std::time::Duration = std::time::Duration::from_millis(50);

    /// No retries: the first panic is recorded immediately.
    pub(crate) const fn none() -> RetryPolicy {
        RetryPolicy {
            limit: 0,
            base_backoff: std::time::Duration::ZERO,
        }
    }

    /// The pause before the `attempt`-th retry (1-based).
    pub(crate) fn backoff(&self, attempt: u32) -> std::time::Duration {
        if self.base_backoff.is_zero() {
            return std::time::Duration::ZERO;
        }
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        (self.base_backoff * factor).min(Self::MAX_BACKOFF)
    }
}

/// The per-run half of a node: reset by [`Node::rearm`] before each
/// iteration, mutated by workers while the iteration executes.
pub(crate) struct NodeState {
    /// Runtime countdown of unfinished predecessors; the node becomes ready
    /// when this reaches zero.
    pub(crate) join_counter: AtomicUsize,
    /// Countdown of unfinished *joined* subflow children, plus a sentinel
    /// held by the parent while it spawns. Zero-crossing completes the node.
    pub(crate) nested: AtomicUsize,
    /// Parent node when this node belongs to a joined subflow; null for
    /// top-level and detached nodes.
    pub(crate) parent: SyncCell<RawNode>,
    /// Back-pointer to the running topology; set at dispatch (top-level) or
    /// spawn (subflow children).
    pub(crate) topology: SyncCell<*const Topology>,
    /// Children spawned by a dynamic task at runtime (owned here so nested
    /// subflows form a tree of graphs, mirroring Cpp-Taskflow). Cleared on
    /// re-arm so each iteration spawns a fresh subflow.
    pub(crate) subgraph: SyncCell<Graph>,
}

/// A single vertex of a task dependency graph.
///
/// Field access follows the phase discipline documented in
/// [`crate::sync_cell`]: plain fields are mutated only during graph
/// construction, between iterations by the single re-arming driver, or by
/// the single worker executing the node; cross-thread state lives in
/// atomics.
pub(crate) struct Node {
    /// Immutable after build; shared by every run.
    pub(crate) structure: NodeStructure,
    /// Reset before each run; owned by the running iteration.
    pub(crate) state: NodeState,
}

impl Node {
    pub(crate) fn new(work: Work) -> Box<Node> {
        Box::new(Node {
            structure: NodeStructure {
                name: SyncCell::new(TaskLabel::empty()),
                work: SyncCell::new(work),
                successors: SyncCell::new(Vec::new()),
                in_degree: SyncCell::new(0),
                retry: SyncCell::new(RetryPolicy::none()),
                index: 0,
            },
            state: NodeState {
                join_counter: AtomicUsize::new(0),
                nested: AtomicUsize::new(0),
                parent: SyncCell::new(std::ptr::null_mut()),
                topology: SyncCell::new(std::ptr::null()),
                subgraph: SyncCell::new(Graph::new()),
            },
        })
    }

    /// Name for diagnostics; the empty label when unnamed. Cloning the
    /// returned label is a reference-count bump, not an allocation.
    ///
    /// # Safety
    /// Caller must satisfy the [`SyncCell`] read contract.
    pub(crate) unsafe fn label(&self) -> &TaskLabel {
        // SAFETY: forwarding the caller's phase guarantee.
        unsafe { self.structure.name.get() }
    }

    /// Re-arms the per-run state from the immutable structure: the join
    /// counter is reloaded from the static in-degree, the joined-subflow
    /// countdown cleared, back-pointers set, and any subgraph spawned by a
    /// previous iteration dropped so the next execution spawns afresh.
    ///
    /// # Safety
    /// Caller must have exclusive access to the node: either the dispatch /
    /// re-arm driver of a quiescent topology, or the worker arming a fresh
    /// subflow child before publishing it.
    pub(crate) unsafe fn rearm(&mut self, topology: *const Topology, parent: RawNode) {
        // SAFETY: exclusive access per the caller's contract.
        unsafe {
            *self.state.topology.get_mut() = topology;
            *self.state.parent.get_mut() = parent;
            self.state
                .join_counter
                .store(*self.structure.in_degree.get(), Ordering::Relaxed);
            self.state.nested.store(0, Ordering::Relaxed);
            let sub = self.state.subgraph.get_mut();
            if !sub.is_empty() {
                *sub = Graph::new();
            }
        }
    }

    /// Re-arms *just this node* between retry attempts of a failed
    /// execution: drops whatever subgraph the failed attempt partially
    /// built and resets the joined-subflow countdown, so the next attempt
    /// starts from the same state a fresh iteration would. Topology
    /// back-pointers, parent, and the (already consumed) join counter are
    /// untouched — the node is still mid-execution from the scheduler's
    /// point of view, which is exactly why retrying here is safe: nothing
    /// has propagated to successors or the `alive` count yet.
    ///
    /// # Safety
    /// Caller must be the worker currently executing this node, before
    /// any subflow spawn was published.
    pub(crate) unsafe fn rearm_retry(&mut self) {
        // SAFETY: executing-worker exclusivity per the caller's contract;
        // a failed attempt never published its subgraph.
        unsafe {
            self.state.nested.store(0, Ordering::Relaxed);
            let sub = self.state.subgraph.get_mut();
            if !sub.is_empty() {
                *sub = Graph::new();
            }
        }
    }

    /// The retry policy frozen into this node's structure.
    ///
    /// # Safety
    /// Caller must satisfy the [`SyncCell`] read contract (the policy is
    /// written only during the build phase).
    pub(crate) unsafe fn retry_policy(&self) -> RetryPolicy {
        // SAFETY: forwarding the caller's phase guarantee.
        unsafe { *self.structure.retry.get() }
    }
}

/// An owned collection of nodes forming (part of) a task dependency graph.
#[derive(Default)]
pub(crate) struct Graph {
    /// Boxed so node addresses stay stable when the vec reallocates —
    /// `RawNode` pointers into this storage are held across pushes.
    #[allow(clippy::vec_box)]
    pub(crate) nodes: Vec<Box<Node>>,
}

impl Graph {
    pub(crate) fn new() -> Graph {
        Graph { nodes: Vec::new() }
    }

    /// Adds a node, records its index, and returns its stable address.
    pub(crate) fn emplace(&mut self, work: Work) -> RawNode {
        let mut node = Node::new(work);
        node.structure.index = self.nodes.len();
        let ptr: RawNode = &mut *node;
        self.nodes.push(node);
        ptr
    }

    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total node count including every (recursively) spawned subgraph.
    ///
    /// # Safety
    /// Callable only in a quiescent phase (build or post-completion).
    pub(crate) unsafe fn total_nodes(&self) -> usize {
        let mut count = self.nodes.len();
        for node in &self.nodes {
            // SAFETY: quiescent phase per the caller's contract, so reading
            // the subgraph (and recursing into it) is unsynchronized-safe.
            count += unsafe { node.state.subgraph.get().total_nodes() };
        }
        count
    }
}

// SAFETY: Graph is moved across threads (into topologies) but its interior
// is only touched under the phase discipline of `sync_cell`. All closure
// payloads are `Send`.
unsafe impl Send for Graph {}
unsafe impl Sync for Graph {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emplace_gives_stable_addresses() {
        let mut g = Graph::new();
        let first = g.emplace(Work::Empty);
        // Force reallocation of the Vec of boxes.
        let mut ptrs = vec![first];
        for _ in 0..1000 {
            ptrs.push(g.emplace(Work::Empty));
        }
        assert_eq!(g.len(), 1001);
        // The box target addresses recorded earlier must still be the nodes.
        for (i, p) in ptrs.iter().enumerate() {
            let actual: RawNode = &mut *g.nodes[i];
            assert_eq!(*p, actual);
            assert_eq!(g.nodes[i].structure.index, i);
        }
    }

    #[test]
    fn total_nodes_counts_subgraphs() {
        let mut g = Graph::new();
        let a = g.emplace(Work::Empty);
        g.emplace(Work::Empty);
        unsafe {
            let sub = (*a).state.subgraph.get_mut();
            sub.emplace(Work::Empty);
            sub.emplace(Work::Empty);
            assert_eq!(g.total_nodes(), 4);
        }
    }

    #[test]
    fn rearm_resets_runtime_state_and_clears_subgraph() {
        let mut g = Graph::new();
        let a = g.emplace(Work::Empty);
        unsafe {
            *(*a).structure.in_degree.get_mut() = 3;
            (*a).state.join_counter.store(0, Ordering::Relaxed);
            (*a).state.nested.store(7, Ordering::Relaxed);
            (*a).state.subgraph.get_mut().emplace(Work::Empty);
            (*a).rearm(std::ptr::null(), std::ptr::null_mut());
            assert_eq!((*a).state.join_counter.load(Ordering::Relaxed), 3);
            assert_eq!((*a).state.nested.load(Ordering::Relaxed), 0);
            assert!((*a).state.subgraph.get().is_empty());
        }
    }

    #[test]
    fn work_debug_names() {
        assert_eq!(format!("{:?}", Work::Empty), "Empty");
        assert_eq!(format!("{:?}", Work::Static(Box::new(|| {}))), "Static");
    }
}
