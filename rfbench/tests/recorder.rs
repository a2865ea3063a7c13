//! Tests of the benchmark's own machinery: the span recorder, the
//! self-time rule, per-layer attribution, the tail-percentile rule, the
//! window rates, and the output check of every workload.

use rfbench::layers::attribute;
use rfbench::spans::{self_times, Name, Recorder, Span, SINK, SOURCE};
use rfbench::stats::{Hist, StealWindows, WindowMedians, Windows};
use std::process::Command;

fn span(run: u32, lane: u8, name: Name, parent: Option<Name>, start: u64, end: u64) -> Span {
    Span {
        run,
        name,
        parent,
        lane,
        flags: 0,
        start,
        end,
    }
}

#[test]
fn self_time_subtracts_the_union_of_covered_child_intervals() {
    let spans = [
        span(1, 0, Name::Root, None, 0, 100),
        // Overlapping children: their union [10, 40) covers 30.
        span(1, 0, Name::Emplace, Some(Name::Root), 10, 30),
        span(1, 0, Name::Precede, Some(Name::Root), 20, 40),
        // A child sticking out of its parent counts only inside it.
        span(1, 0, Name::Wait, Some(Name::Root), 90, 130),
        // Grandchild: charged to its own parent, not to the root.
        span(1, 0, Name::Exec, Some(Name::Wait), 95, 105),
        // Same parent name on another lane ran concurrently: ignored.
        span(1, 1, Name::Body, Some(Name::Root), 0, 100),
        // Same lane and parent name but another run: ignored.
        span(2, 0, Name::Emplace, Some(Name::Root), 0, 100),
    ];
    let own = self_times(&spans);
    assert_eq!(own[0], 100 - 30 - 10);
    assert_eq!(own[1], 20);
    assert_eq!(own[2], 20);
    assert_eq!(own[3], 40 - 10);
    assert_eq!(own[4], 10);
    assert_eq!(own[5], 100);
    assert_eq!(own[6], 100);
}

#[test]
fn self_time_of_a_fully_covered_span_is_zero() {
    let spans = [
        span(7, 0, Name::Root, None, 5, 15),
        span(7, 0, Name::Wait, Some(Name::Root), 0, 20),
        span(7, 0, Name::Lag, Some(Name::Root), 6, 8),
    ];
    assert_eq!(self_times(&spans)[0], 0);
}

#[test]
fn recorder_keeps_one_preallocated_lane_per_thread_and_counts_drops() {
    let rec = Recorder::new(3);
    let main = rec.lane();
    std::thread::scope(|s| {
        for t in 0..2u32 {
            let rec = &rec;
            s.spawn(move || {
                for i in 0..5 {
                    rec.record(span(t, 0, Name::Body, Some(Name::Exec), i, i + 1));
                }
            });
        }
    });
    rec.record(span(9, 0, Name::Root, None, 0, 1));
    assert_eq!(
        rec.dropped(),
        4,
        "two lanes of capacity 3 given 5 spans each"
    );
    assert!((rec.max_fill() - 1.0).abs() < 1e-12);
    let spans = rec.drain();
    assert_eq!(spans.len(), 7);
    let mut lanes: Vec<u8> = spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    assert_eq!(lanes.len(), 3, "main thread and two workers");
    assert!(spans.iter().any(|s| s.lane == main && s.name == Name::Root));
    assert!(rec.drain().is_empty(), "drain takes the spans");
}

#[test]
fn attribution_tiles_the_wait_and_adds_up_to_the_root() {
    let mut source = span(1, 1, Name::Body, Some(Name::Exec), 35, 40);
    source.flags = SOURCE;
    let mut sink = span(1, 2, Name::Body, Some(Name::Exec), 70, 80);
    sink.flags = SINK;
    // The source started before the submit call returned: clipped.
    let mut early = span(2, 1, Name::Body, Some(Name::Exec), 110, 120);
    early.flags = SOURCE | SINK;
    let spans = vec![
        span(1, 0, Name::Root, None, 0, 100),
        span(1, 0, Name::Emplace, Some(Name::Root), 0, 20),
        span(1, 0, Name::RunCall, Some(Name::Root), 20, 30),
        span(1, 0, Name::Wait, Some(Name::Root), 30, 100),
        source,
        sink,
        span(2, 0, Name::Root, None, 100, 150),
        span(2, 0, Name::RunCall, Some(Name::Root), 100, 115),
        span(2, 0, Name::Wait, Some(Name::Root), 115, 150),
        early,
        span(3, 0, Name::Drop, None, 150, 160),
    ];
    let (out, att) = attribute(spans, 0);
    assert_eq!((att.ops, att.incomplete), (2, 0));
    let derived = |run: u32, name: Name| {
        out.iter()
            .find(|(s, _)| s.run == run && s.name == name)
            .map(|(s, _)| (s.start, s.end))
            .expect("derived span")
    };
    assert_eq!(derived(1, Name::FirstTask), (30, 35));
    assert_eq!(derived(1, Name::Exec), (35, 80));
    assert_eq!(derived(1, Name::Finalize), (80, 100));
    assert_eq!(derived(2, Name::FirstTask), (115, 115));
    assert_eq!(derived(2, Name::Exec), (115, 120));
    for run in [1, 2] {
        let root = out
            .iter()
            .find(|(s, _)| s.run == run && s.name == Name::Root)
            .map(|(s, _)| s.dur())
            .expect("root");
        let sum: u64 = out
            .iter()
            .filter(|(s, _)| s.run == run && s.lane == 0)
            .map(|(_, own)| own)
            .sum();
        assert_eq!(sum, root, "run {run}");
    }
    assert_eq!(att.total_ns(Name::Exec), 45.0 + 5.0);
    assert_eq!(att.total_ns(Name::Drop), 10.0);
}

#[test]
fn attribution_reports_runs_without_source_or_sink_spans() {
    let spans = vec![
        span(1, 0, Name::Root, None, 0, 10),
        span(1, 0, Name::Wait, Some(Name::Root), 0, 10),
    ];
    let (_, att) = attribute(spans, 0);
    assert_eq!(att.incomplete, 1);
}

#[test]
fn tail_reports_p99_when_ten_samples_lie_beyond_it() {
    let h: Hist = (1..=1000).map(f64::from).collect();
    let (value, used) = h.tail(99.0).expect("enough samples");
    assert_eq!(used, 99.0);
    // Nearest rank 990: exactly ten samples (991..=1000) beyond it.
    assert!((value - 990.0).abs() <= 990.0 / 1024.0, "{value}");
    assert!((h.median().expect("median") - 500.0).abs() <= 0.5);
}

#[test]
fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
    let h: Hist = (1..=500).map(f64::from).collect();
    let (value, used) = h.tail(99.0).expect("enough samples");
    assert_eq!(used, 98.0);
    assert!((value - 490.0).abs() <= 490.0 / 1024.0, "{value}");
    let few: Hist = (1..=10).map(f64::from).collect();
    assert_eq!(few.tail(99.0), None);
    let eleven: Hist = (1..=11).map(f64::from).collect();
    let (value, used) = eleven.tail(99.0).expect("one qualifying rank");
    assert!((value - 1.0).abs() < 1e-9);
    assert!((used - 100.0 / 11.0).abs() < 1e-9);
}

#[test]
fn hist_keeps_values_to_a_thousandth() {
    let mut h = Hist::default();
    for ns in [0u64, 1, 1023, 1024, 1_000_000, 123_456_789, u64::MAX / 2] {
        h.record_ns(ns);
        let mut single = Hist::default();
        single.record_ns(ns);
        let got = single.median().expect("one sample") * 1e3;
        assert!(
            (got - ns as f64).abs() <= (ns as f64 / 1024.0).max(0.5),
            "{ns} -> {got}"
        );
    }
    assert_eq!(h.len(), 7);
}

#[test]
fn window_rate_ignores_stalls_in_a_few_windows() {
    let mut w = Windows::default();
    for win in 0..8 {
        let events = if win == 3 { 1 } else { 100 };
        for k in 0..events {
            w.add(win as f64 * 0.5 + k as f64 * 0.004);
        }
    }
    assert_eq!(w.total(), 701);
    assert_eq!(w.rate(4.0, &[]), 200.0);
    // Under four whole windows: the plain mean.
    assert_eq!(w.rate(1.0, &[]), 701.0);
}

#[test]
fn window_medians_ignore_a_noisy_minority_of_windows() {
    let mut w = WindowMedians::default();
    for win in 0..5 {
        let value = if win == 2 { 900.0 } else { 10.0 + win as f64 };
        for k in 0..3 {
            w.add(win as f64 * 0.5 + k as f64 * 0.1, value);
        }
    }
    // Window medians 10, 11, 900, 13, 14.
    assert_eq!(w.median(&[]), Some(13.0));
    assert_eq!(WindowMedians::default().median(&[]), None);
}

#[test]
fn steal_keeps_the_quieter_half_of_the_windows() {
    let mut s = StealWindows::default();
    assert!(s.quiet().is_empty());
    // Shares 0, 0.2, 0, 0.05, 0.3 and window 5 never charged.
    for (w, steal) in [0, 20, 0, 5, 30].into_iter().enumerate() {
        s.charge(w, steal, 100);
    }
    s.charge(6, 0, 50);
    s.charge(6, 0, 50);
    // Median share of the charged windows is 0.
    assert_eq!(s.quiet(), [true, false, true, false, false, true, true]);
    // No steal at all: every window is kept.
    let mut calm = StealWindows::default();
    for w in 0..4 {
        calm.charge(w, 0, 100);
    }
    assert_eq!(calm.quiet(), [true; 4]);
}

#[test]
fn window_rate_and_medians_leave_out_the_windows_not_kept() {
    let mut rate = Windows::default();
    let mut lat = WindowMedians::default();
    // Ten windows; 3, 6 and 8 are stolen: fewer events, higher latency.
    let stolen = [3, 6, 8];
    for win in 0..10 {
        let (events, value) = if stolen.contains(&win) {
            (50, 90.0)
        } else {
            (100, 10.0)
        };
        for k in 0..events {
            let at = win as f64 * 0.5 + k as f64 * 0.004;
            rate.add(at);
            lat.add(at, value);
        }
    }
    let keep: Vec<bool> = (0..10).map(|w| !stolen.contains(&w)).collect();
    assert_eq!(rate.rate(5.0, &keep), 200.0);
    assert_eq!(lat.median(&keep), Some(10.0));
    // Too few windows kept for the trimmed mean: the plain mean.
    let few = [
        true, true, false, false, false, false, false, false, false, false,
    ];
    assert_eq!(rate.rate(5.0, &few), 850.0 / 5.0);
    // Keeping none: every window's median counts.
    assert_eq!(lat.median(&[false; 10]), Some(10.0));
}

/// Runs the benchmark binary briefly; returns (exit success, last line).
fn run(workload: &str, extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--serve-rates", "3000,6000,18000"])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

#[test]
fn every_workload_checks_its_outputs() {
    for workload in ["oneshot", "rerun", "serve"] {
        let (ok, line) = run(workload, &["--trace", "0"]);
        assert!(ok, "{workload}: {line}");
        assert!(
            line.starts_with("{\"correct\": true,"),
            "{workload}: {line}"
        );
        let (ok, line) = run(workload, &["--trace", "0", "--corrupt-output"]);
        assert!(!ok, "{workload}: corrupted output must fail the run");
        assert!(
            line.starts_with("{\"correct\": false,"),
            "{workload}: {line}"
        );
        assert!(!line.contains("\"failed\": 0,"), "{workload}: {line}");
    }
}

#[test]
fn traced_run_prints_the_per_layer_metrics() {
    let (ok, line) = run("rerun", &["--trace", "1"]);
    assert!(ok, "{line}");
    for metric in [
        "\"executor.exec_ns_per_task\"",
        "\"trace.overhead_ratio\"",
        "\"wsq.steal_success_ratio\"",
        "\"serve.mid.latency_us_p50\"",
    ] {
        assert!(line.contains(metric), "{metric} missing: {line}");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_rfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
