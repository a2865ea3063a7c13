//! The rustflow benchmark: one command that runs a named workload against
//! the public `rustflow` API, checks its outputs and prints every metric
//! by name with its unit. See `README.md` in this directory.
//!
//! ```text
//! rfbench --workload oneshot|rerun|serve --seed N --seconds S --trace 0|1
//!         [--serve-rates LOW,MID,OVER] [--workers N] [--corrupt-output]
//! ```
//!
//! With `--trace 0` the whole run is timed untraced and the end-to-end
//! metrics are printed. With `--trace 1` half the run is untraced (for the
//! scheduler and front-door counters and the untraced latency) and half is
//! traced (for per-layer times); the per-layer metrics are printed and the
//! spans are written to `out/` in this directory. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod common;
mod oneshot;
mod rerun;
mod serve;

use common::{recorder, set_tracing, Phase, Workload};
use rfbench::layers::{attribute, Attribution};
use rfbench::machine;
use rfbench::spans::{Name, SAMPLE_EVERY};
use rfbench::stats::{median, ratio, Hist};
use rustflow::{Executor, ExecutorBuilder};
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times; `setup_s` takes the median round.
const SETUP_ROUNDS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    workers: usize,
    serve_rates: Option<[f64; 3]>,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        workers: machine::nproc(),
        serve_rates: None,
        corrupt: false,
    };
    let mut seen_seed = false;
    while let Some(flag) = it.next() {
        if flag == "--corrupt-output" {
            a.corrupt = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => {
                a.seed = value.parse().map_err(bad)?;
                seen_seed = true;
            }
            "--seconds" => a.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                }
            }
            "--workers" => a.workers = value.parse().map_err(bad)?,
            "--serve-rates" => {
                let rates: Vec<f64> = value
                    .split(',')
                    .map(|r| r.parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?;
                match rates[..] {
                    [l, m, o] if rates.iter().all(|r| r.is_finite() && *r > 0.0) => {
                        a.serve_rates = Some([l, m, o])
                    }
                    _ => return Err(format!("--serve-rates needs three positive rates: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seen_seed || a.seconds == 0 || a.workers == 0 {
        return Err("--seed, --seconds (> 0) and --workers (> 0) are required".into());
    }
    if a.workload == "serve" && a.serve_rates.is_none() {
        return Err("serve needs --serve-rates LOW,MID,OVER".into());
    }
    if !["oneshot", "rerun", "serve"].contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

fn build(a: &Args) -> Box<dyn Workload> {
    match a.workload.as_str() {
        "oneshot" => Box::new(oneshot::Oneshot::setup(
            Executor::new(a.workers),
            a.seed,
            a.corrupt,
        )),
        "rerun" => Box::new(rerun::Rerun::setup(
            Executor::new(a.workers),
            a.seed,
            a.corrupt,
        )),
        _ => Box::new(serve::Serve::setup(
            ExecutorBuilder::new()
                .workers(a.workers)
                .max_inflight(serve::MAX_INFLIGHT)
                .build(),
            a.seed,
            a.serve_rates.expect("checked in parse_args"),
            a.corrupt,
        )),
    }
}

/// Metric name, value, unit, in print order.
type Metrics = Vec<(String, f64, &'static str)>;

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpu_before = machine::cpu_times();

    // Set-up: executor, inputs, frozen graphs, warm-up. Each round builds
    // the workload from scratch after the previous round's is dropped;
    // `setup_s` is the time from process start to the first round plus
    // the median round, so one slow round does not move it.
    let startup = process_start.elapsed().as_secs_f64();
    let mut rounds = Vec::with_capacity(SETUP_ROUNDS);
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_ROUNDS {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(build(&args));
        rounds.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up round");
    let setup_s = startup + median(&mut rounds).expect("non-empty");

    let total = Duration::from_secs(args.seconds);
    let (mut metrics, attempted, failed, trace_ok) = if args.trace {
        per_layer(&args, w.as_mut(), total)
    } else {
        let p = w.phase(total, false);
        (end_to_end(&p, setup_s), p.attempted, p.failed, true)
    };
    drop(w);

    let steal = machine::steal_share(cpu_before, machine::cpu_times());
    let correct = failed == 0 && trace_ok;
    if args.trace {
        metrics.push(("machine.steal_share".into(), steal, "ratio"));
    }
    for (name, value, unit) in &metrics {
        eprintln!("{name:<40} {value:>16.4} {unit}");
    }
    println!(
        "{{\"fingerprint\": {}}}",
        machine::fingerprint_json(args.workers, steal)
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The headline latency: the median over the quieter 0.5 s windows of
/// each window's median, and the highest percentile up to p99 with at least ten samples
/// beyond it (the median when there are too few samples), with the
/// percentile used.
fn latency(p: &Phase) -> (f64, f64, f64) {
    let p50 = p.latency_p50().unwrap_or(0.0);
    let (p99, rank) = p.latency.tail(99.0).unwrap_or((p50, 50.0));
    (p50, p99, rank)
}

fn end_to_end(p: &Phase, setup_s: f64) -> Metrics {
    let (p50, _, _) = latency(p);
    vec![
        ("setup_s".into(), setup_s, "s"),
        ("tasks_per_s".into(), p.tasks_per_s, "1/s"),
        ("latency_us_p50".into(), p50, "us"),
        ("goodput_rps".into(), p.goodput_rps, "1/s"),
        ("peak_rss_mb".into(), machine::peak_rss_mb(), "MiB"),
    ]
}

/// Runs the untraced half and the traced half; returns the per-layer
/// metrics, the operations attempted and failed in both halves, and
/// whether the trace is complete.
fn per_layer(args: &Args, w: &mut dyn Workload, total: Duration) -> (Metrics, u64, u64, bool) {
    let untraced = w.phase(total / 2, false);
    let rec = recorder();
    let main_lane = rec.lane();
    set_tracing(true);
    let traced = w.phase(total / 2, true);
    set_tracing(false);
    let dropped = rec.dropped();
    let (spans, att) = attribute(rec.drain(), main_lane);
    let written = write_spans(args, &spans);
    let ok = dropped == 0 && att.incomplete == 0 && written.is_ok();
    if let Err(e) = written {
        eprintln!("rfbench: writing spans failed: {e}");
    }
    eprintln!(
        "trace: {} ops, {} spans, {} dropped, {} incomplete",
        att.ops,
        spans.len(),
        dropped,
        att.incomplete
    );
    let mut m = layer_metrics(args, w, &untraced, &traced, &att);
    m.push(("trace.spans".into(), spans.len() as f64, "count"));
    (
        m,
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
        ok,
    )
}

fn layer_metrics(
    args: &Args,
    w: &dyn Workload,
    untraced: &Phase,
    traced: &Phase,
    att: &Attribution,
) -> Metrics {
    let shape = w.shape();
    let ops = att.ops as f64;
    let per = |name: Name, count: u64| ratio(att.total_ns(name), ops * count as f64);
    let hist = |name: Name| att.per_op(name).into_iter().collect::<Hist>();
    let p50 = |name: Name| hist(name).median().unwrap_or(0.0);
    let p99 = |name: Name| hist(name).tail(99.0).map_or(0.0, |t| t.0);
    let submit = if args.workload == "serve" {
        Name::RunOnCall
    } else {
        Name::RunCall
    };
    let serve = args.workload == "serve";

    let total = untraced.stats.total();
    let executed = total.executed as f64;
    let per_ktask = |n: u64| ratio(n as f64 * 1000.0, executed);
    let executed_by: Vec<u64> = untraced.stats.workers.iter().map(|s| s.executed).collect();
    let balance = ratio(
        executed_by.iter().copied().min().unwrap_or(0) as f64,
        executed_by.iter().copied().max().unwrap_or(0) as f64,
    );
    let tenants = &untraced.stats.tenants;
    let tenant_sum = |f: fn(&rustflow::TenantStats) -> u64| tenants.iter().map(f).sum::<u64>();

    let (untraced_p50, untraced_p99, rank) = latency(untraced);
    let (traced_p50, _, _) = latency(traced);
    let lag_p50 = untraced.lag.median().unwrap_or(0.0);
    let lag_p99 = untraced.lag.tail(99.0).map_or(lag_p50, |t| t.0);
    let body_share = ratio(
        (att.sampled_body_ns * SAMPLE_EVERY as u64) as f64,
        args.workers as f64 * traced.wall.as_nanos() as f64,
    );

    let mut m: Metrics = vec![
        (
            "taskflow.emplace_ns_per_task".into(),
            per(Name::Emplace, shape.nodes),
            "ns",
        ),
        (
            "task.precede_ns_per_edge".into(),
            per(Name::Precede, shape.edges),
            "ns",
        ),
        (
            "subflow.spawn_ns_per_child".into(),
            per(Name::Spawn, shape.children),
            "ns",
        ),
        (
            "validate.ns_per_node".into(),
            per(Name::Validate, shape.nodes),
            "ns",
        ),
        (
            "topology.dispatch_ns_per_node".into(),
            per(Name::Dispatch, shape.nodes),
            "ns",
        ),
        (
            "taskflow.drop_ns_per_task".into(),
            per(Name::Drop, shape.tasks()),
            "ns",
        ),
        ("topology.run_call_us_p50".into(), p50(submit), "us"),
        (
            "executor.exec_ns_per_task".into(),
            per(Name::Exec, shape.tasks()),
            "ns",
        ),
        (
            "executor.first_task_us_p50".into(),
            p50(Name::FirstTask),
            "us",
        ),
        ("executor.finalize_us_p50".into(), p50(Name::Finalize), "us"),
        ("executor.body_share".into(), body_share, "ratio"),
        (
            "executor.cache_hit_ratio".into(),
            ratio(total.cache_hits as f64, executed),
            "ratio",
        ),
        (
            "wsq.steal_success_ratio".into(),
            ratio(total.steals as f64, total.steal_attempts as f64),
            "ratio",
        ),
        (
            "executor.steal_fail_rounds_per_ktask".into(),
            per_ktask(total.steal_fails),
            "1/ktask",
        ),
        (
            "notifier.parks_per_ktask".into(),
            per_ktask(total.parks),
            "1/ktask",
        ),
        (
            "notifier.wakes_per_ktask".into(),
            per_ktask(total.wakes_sent),
            "1/ktask",
        ),
        (
            "injector.pops_per_ktask".into(),
            per_ktask(total.injector_pops),
            "1/ktask",
        ),
        ("executor.worker_balance".into(), balance, "ratio"),
        (
            "frontdoor.run_on_call_us_p50".into(),
            p50(Name::RunOnCall),
            "us",
        ),
        (
            "frontdoor.run_on_call_us_p99".into(),
            p99(Name::RunOnCall),
            "us",
        ),
        (
            "frontdoor.queue_us_p50".into(),
            if serve { p50(Name::FirstTask) } else { 0.0 },
            "us",
        ),
        (
            "frontdoor.submitted".into(),
            tenant_sum(|t| t.submitted) as f64,
            "count",
        ),
        (
            "frontdoor.coalesced".into(),
            tenant_sum(|t| t.coalesced) as f64,
            "count",
        ),
        (
            "frontdoor.shed".into(),
            tenant_sum(|t| t.shed) as f64,
            "count",
        ),
        (
            "frontdoor.rejected".into(),
            tenant_sum(|t| {
                t.rejected_saturated
                    + t.rejected_shutdown
                    + t.rejected_infeasible
                    + t.rejected_breaker
            }) as f64,
            "count",
        ),
    ];
    for step in serve::STEPS {
        for (metric, unit) in [
            ("latency_us_p50", "us"),
            ("latency_us_p99", "us"),
            ("achieved_rps", "1/s"),
        ] {
            let name = format!("serve.{step}.{metric}");
            let value = untraced
                .extra
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or(0.0, |e| e.1);
            m.push((name, value, unit));
        }
    }
    m.extend([
        ("stats.snapshot_us".into(), p50(Name::Snapshot), "us"),
        (
            "trace.overhead_ratio".into(),
            ratio(traced_p50, untraced_p50),
            "ratio",
        ),
        ("loadgen.lag_us_p50".into(), lag_p50, "us"),
        ("loadgen.lag_us_p99".into(), lag_p99, "us"),
        (
            "fail_ratio".into(),
            ratio(
                (untraced.failed + untraced.refused) as f64,
                untraced.attempted as f64,
            ),
            "ratio",
        ),
        (
            "latency.samples".into(),
            untraced.latency.len() as f64,
            "count",
        ),
        ("latency.p99_rank".into(), rank, "percentile"),
        ("latency_us_p99".into(), untraced_p99, "us"),
        ("trace.ops".into(), ops, "count"),
    ]);
    m
}

/// Writes every span with its self time to `out/` in this directory.
fn write_spans(args: &Args, spans: &[(rfbench::spans::Span, u64)]) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}.csv", args.workload));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "run,lane,name,parent,flags,start_ns,end_ns,self_ns")?;
    for (s, own) in spans {
        writeln!(
            f,
            "{},{},{},{},{},{},{},{}",
            s.run,
            s.lane,
            s.name.label(),
            s.parent.map_or("", |p| p.label()),
            s.flags,
            s.start,
            s.end,
            own
        )?;
    }
    f.flush()
}
