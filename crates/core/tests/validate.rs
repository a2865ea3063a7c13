//! Pre-dispatch sanitizer tests: `Taskflow::validate()`, dispatch
//! rejection of graphs that could never complete, and the annotated DOT
//! dump.

use rustflow::{Executor, GraphDiagnostic, RunError, Taskflow};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn empty_taskflow_validates_clean() {
    let tf = Taskflow::new();
    assert!(tf.validate().is_empty());
    // And an empty dispatch still resolves Ok.
    assert!(tf.dispatch().get().is_ok());
}

#[test]
fn cycle_is_reported_with_label_path() {
    let tf = Taskflow::new();
    let a = tf.emplace(|| {}).name("A");
    let b = tf.emplace(|| {}).name("B");
    let c = tf.emplace(|| {}).name("C");
    a.precede(b);
    b.precede(c);
    c.precede(a);
    let diags = tf.validate();
    assert_eq!(diags.len(), 1);
    match &diags[0] {
        GraphDiagnostic::Cycle { path, nodes } => {
            assert_eq!(path, &["A", "B", "C", "A"]);
            assert_eq!(nodes.len(), 3);
        }
        other => panic!("expected Cycle, got {other:?}"),
    }
    assert!(diags[0].is_fatal());
}

#[test]
fn cyclic_dispatch_resolves_typed_error_instead_of_deadlocking() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let a = tf.emplace(|| panic!("must never run")).name("A");
    let b = tf.emplace(|| panic!("must never run")).name("B");
    a.precede(b);
    b.precede(a);
    let future = tf.dispatch();
    // The future must resolve promptly — a rejected graph never reaches
    // the workers, so nothing can wedge.
    let result = future
        .future()
        .get_timeout(Duration::from_secs(10))
        .expect("rejected dispatch must resolve, not hang");
    match result {
        Err(RunError::InvalidGraph(diags)) => {
            assert!(diags.iter().any(|d| d.is_fatal()));
            assert!(matches!(diags[0], GraphDiagnostic::Cycle { .. }));
        }
        other => panic!("expected InvalidGraph, got {other:?}"),
    }
    // The taskflow was left with a fresh graph and stays usable.
    assert!(tf.is_empty());
    let ran = Arc::new(AtomicUsize::new(0));
    let r = Arc::clone(&ran);
    tf.emplace(move || {
        r.fetch_add(1, Ordering::SeqCst);
    });
    assert!(tf.dispatch().get().is_ok());
    assert_eq!(ran.load(Ordering::SeqCst), 1);
}

#[test]
fn taskflow_with_rejected_dispatch_drops_without_hanging() {
    // Regression: Taskflow::drop waits on every dispatched future. Before
    // the sanitizer, dispatching a cyclic graph wedged (or panicked with
    // the promise unfulfilled), so the drop below would hang forever.
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let a = tf.emplace(|| {}).name("A");
    let b = tf.emplace(|| {}).name("B");
    a.precede(b);
    b.precede(a);
    tf.silent_dispatch(); // non-blocking; error observed only by drop
    drop(tf); // must return
}

#[test]
fn self_edge_rejected() {
    let tf = Taskflow::new();
    let a = tf.emplace(|| {}).name("loopy");
    a.precede(a);
    let diags = tf.validate();
    assert_eq!(
        diags,
        vec![GraphDiagnostic::SelfEdge {
            label: "loopy".into(),
            node: 0
        }]
    );
    let err = tf.dispatch().get().expect_err("self-edge must be rejected");
    assert!(err.to_string().contains("precedes itself"));
}

#[test]
fn diamond_with_duplicate_edges_warns_but_runs() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let count = Arc::new(AtomicUsize::new(0));
    let mk = |name: &str| {
        let c = Arc::clone(&count);
        tf.emplace(move || {
            c.fetch_add(1, Ordering::SeqCst);
        })
        .name(name)
    };
    let a = mk("A");
    let b = mk("B");
    let c = mk("C");
    let d = mk("D");
    a.precede([b, c]);
    b.precede(d);
    c.precede(d);
    // The bug under test: an extra copy of each fan-in edge.
    b.precede(d);
    c.precede(d);
    let diags = tf.validate();
    assert_eq!(diags.len(), 2, "one finding per duplicated edge: {diags:?}");
    for d in &diags {
        assert!(!d.is_fatal());
        match d {
            GraphDiagnostic::DuplicateEdge { to, count, .. } => {
                assert_eq!(to, "D");
                assert_eq!(*count, 2);
            }
            other => panic!("expected DuplicateEdge, got {other:?}"),
        }
    }
    // Warnings don't block: the diamond still runs to completion (the
    // join counter is armed from the accumulated in-degree).
    tf.wait_for_all();
    assert_eq!(count.load(Ordering::SeqCst), 4);
}

#[test]
fn orphan_task_warns_but_runs() {
    let tf = Taskflow::new();
    let a = tf.emplace(|| {}).name("A");
    let b = tf.emplace(|| {}).name("B");
    tf.emplace(|| {}).name("lonely");
    a.precede(b);
    let diags = tf.validate();
    assert_eq!(
        diags,
        vec![GraphDiagnostic::Orphan {
            label: "lonely".into(),
            node: 2
        }]
    );
    tf.wait_for_all();
}

#[test]
fn cyclic_subflow_reports_typed_error_and_topology_completes() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let sibling_ran = Arc::new(AtomicUsize::new(0));
    let s = Arc::clone(&sibling_ran);
    tf.emplace_subflow(|sf| {
        let x = sf
            .emplace(|| panic!("child of a cyclic subflow must not run"))
            .name("X");
        let y = sf.emplace(|| {}).name("Y");
        x.precede(y);
        y.precede(x);
    })
    .name("parent");
    tf.emplace(move || {
        s.fetch_add(1, Ordering::SeqCst);
    });
    let err = tf
        .try_wait_for_all()
        .expect_err("cyclic subflow must surface an error");
    match &err {
        RunError::InvalidGraph(diags) => match &diags[0] {
            GraphDiagnostic::Cycle { path, .. } => assert_eq!(path, &["X", "Y", "X"]),
            other => panic!("expected Cycle, got {other:?}"),
        },
        other => panic!("expected InvalidGraph, got {other:?}"),
    }
    // The rest of the topology still completed.
    assert_eq!(sibling_ran.load(Ordering::SeqCst), 1);
}

#[test]
fn ten_k_node_chain_validates_quickly() {
    let tf = Taskflow::new();
    let mut prev = tf.emplace(|| {}).name("head");
    for _ in 0..9_999 {
        let next = tf.emplace(|| {});
        prev.precede(next);
        prev = next;
    }
    let start = Instant::now();
    let diags = tf.validate();
    let elapsed = start.elapsed();
    assert!(diags.is_empty());
    // O(V + E) — generous bound so CI noise can't flake it.
    assert!(
        elapsed < Duration::from_secs(2),
        "validate took {elapsed:?} on a 10k chain"
    );
}

#[test]
fn annotated_dump_highlights_cycle_nodes() {
    let tf = Taskflow::new();
    tf.set_name("bad");
    let a = tf.emplace(|| {}).name("A");
    let b = tf.emplace(|| {}).name("B");
    a.precede(b);
    b.precede(a);
    tf.emplace(|| {}).name("lonely");
    let (dot, diags) = tf.dump_with_diagnostics();
    assert!(diags.iter().any(|d| d.is_fatal()));
    assert!(dot.starts_with("digraph bad {"));
    assert_eq!(dot.matches("fillcolor=red").count(), 2, "{dot}");
    assert_eq!(dot.matches("fillcolor=orange").count(), 1, "{dot}");
    // The plain dump stays unannotated.
    assert!(!tf.dump().contains("fillcolor"));
}

#[test]
fn duplicate_edges_are_reported_in_successor_order_on_every_call() {
    let tf = Taskflow::new();
    let a = tf.emplace(|| {}).name("A");
    let b = tf.emplace(|| {}).name("B");
    let c = tf.emplace(|| {}).name("C");
    let d = tf.emplace(|| {}).name("D");
    // C is reached first, so its finding comes first although B has more
    // copies and a lower index.
    a.precede(c);
    a.precede(b);
    a.precede(c);
    a.precede(d);
    a.precede(b);
    a.precede(b);
    let dup = |to: &str, to_node, count| GraphDiagnostic::DuplicateEdge {
        from: "A".into(),
        to: to.into(),
        from_node: 0,
        to_node,
        count,
    };
    let expected = vec![dup("C", 2, 2), dup("B", 1, 3)];
    for _ in 0..32 {
        assert_eq!(tf.validate(), expected);
    }
}

/// A child body that counts its runs in `slots[slot]`.
fn counted_child(slots: &Arc<Vec<AtomicUsize>>, slot: usize) -> impl FnMut() + Send + 'static {
    let slots = Arc::clone(slots);
    move || {
        slots[slot].fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn subflow_alternating_cyclic_and_acyclic_children_leaves_no_stale_state() {
    // One worker, so both spawns analyze on the same thread and reuse its
    // scratch.
    let tf = Taskflow::with_executor(Executor::new(1));
    let slots: Arc<Vec<AtomicUsize>> = Arc::new((0..6).map(|_| AtomicUsize::new(0)).collect());
    let s = Arc::clone(&slots);
    let mut cyclic = true;
    tf.emplace_subflow(move |sf| {
        if std::mem::take(&mut cyclic) {
            let x = sf.emplace(|| panic!("child of a cyclic subflow must not run"));
            let y = sf.emplace(|| panic!("child of a cyclic subflow must not run"));
            let z = sf.emplace(|| panic!("child of a cyclic subflow must not run"));
            x.name("X").precede(y.name("Y"));
            y.precede(z.name("Z"));
            z.precede(x);
            return;
        }
        // Six children, with edges pointing backward in emplacement order
        // so the spawn takes the Kahn path, not the forward-only shortcut.
        let t: Vec<_> = (0..6).map(|i| sf.emplace(counted_child(&s, i))).collect();
        t[5].precede([t[3], t[4]]);
        t[4].precede(t[2]);
        t[3].precede(t[2]);
        t[2].precede([t[0], t[1]]);
    });
    match tf.run().get() {
        Err(RunError::InvalidGraph(diags)) => match &diags[..] {
            [GraphDiagnostic::Cycle { path, .. }] => assert_eq!(path, &["X", "Y", "Z", "X"]),
            other => panic!("expected one Cycle, got {other:?}"),
        },
        other => panic!("expected InvalidGraph, got {other:?}"),
    }
    assert!(tf.run().get().is_ok());
    for (i, slot) in slots.iter().enumerate() {
        assert_eq!(slot.load(Ordering::SeqCst), 1, "child {i} run count");
    }
}

#[test]
fn edgeless_subflow_spawns_every_child_and_records_nothing() {
    let tf = Taskflow::with_executor(Executor::new(2));
    let slots: Arc<Vec<AtomicUsize>> = Arc::new((0..5).map(|_| AtomicUsize::new(0)).collect());
    let s = Arc::clone(&slots);
    tf.emplace_subflow(move |sf| {
        for i in 0..5 {
            sf.emplace(counted_child(&s, i));
        }
    });
    assert!(tf.dispatch().get().is_ok());
    for (i, slot) in slots.iter().enumerate() {
        assert_eq!(slot.load(Ordering::SeqCst), 1, "child {i} run count");
    }
}
