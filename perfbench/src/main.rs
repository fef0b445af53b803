//! The repository benchmark: three workloads through the FastPSO stack,
//! with end-to-end metrics on the modeled V100 clock and the host clock,
//! and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solve-dense|serve-tiny|serve-overload-loss> \
//!     --seed <n> --seconds <s> --trace <0|1> [--update-reference]
//! ```
//!
//! A run sets up and runs the workload once untimed to verify it (direct
//! reference solves, serve invariants, and for the reference seed the
//! committed fingerprints), then repeats set-up → measured phase → restore
//! until `--seconds` have passed and reports medians. Every repeat must
//! reproduce the verified fingerprints and modeled metrics exactly. The
//! last line of standard output is one JSON object; the process exits
//! non-zero when any check failed.

mod probes;
mod serve;
mod solve;
mod trace;
mod util;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use util::median;
use workload::{Layers, Summary, Workload};

/// The seed whose fingerprints are pinned in `reference/`.
const REFERENCE_SEED: u64 = 1;
/// Measured repeats per run at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Set-ups timed per repeat.
const SETUPS_PER_REPEAT: usize = 3;

/// End-to-end metrics (reported with `--trace 0`) and their units.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("host_s", "s"),
    ("peak_rss_mb", "MB"),
    ("restore_s", "s"),
    ("modeled_solve_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("slo_met_frac", "frac"),
    ("goodput_s", "s"),
    ("accept_frac", "frac"),
    ("modeled_jobs_per_s", "1/s"),
];

/// Per-layer metrics (reported with `--trace 1`) and their units.
const PER_LAYER: [(&str, &str); 35] = [
    ("prng.draws_per_s", "1/s"),
    ("prng.draws", "count"),
    ("prng.attr_s", "s"),
    ("gpu_sim.update_elems_per_s", "1/s"),
    ("gpu_sim.tiled_elems_per_s", "1/s"),
    ("gpu_sim.tensor_elems_per_s", "1/s"),
    ("gpu_sim.reduce_elems_per_s", "1/s"),
    ("gpu_sim.kernel_launches", "count"),
    ("gpu_sim.dram_bytes", "B"),
    ("gpu_sim.flops", "count"),
    ("gpu_sim.lease_peak", "count"),
    ("gpu_sim.attr_s", "s"),
    ("functions.evals_per_s", "1/s"),
    ("functions.attr_s", "s"),
    ("plan.node_overhead_us", "us"),
    ("plan.residual_s", "s"),
    ("serve.tick_p50_us", "us"),
    ("serve.tick_p95_us", "us"),
    ("serve.submit_p95_us", "us"),
    ("serve.snapshot_us", "us"),
    ("serve.journal_bytes", "B"),
    ("serve.ticks", "count"),
    ("serve.queue_wait_p95_ms", "ms"),
    ("serve.launches_per_job", "count"),
    ("serve.preempts", "count"),
    ("serve.rehomes", "count"),
    ("serve.sheds", "count"),
    ("serve.downgrades", "count"),
    ("serve.recovery_s", "s"),
    ("serve.useful_frac", "frac"),
    ("perf_model.predict_us", "us"),
    ("perf_model.pred_err_p50", "frac"),
    ("perf_model.pred_err_p95", "frac"),
    ("perf_model.profiler_records", "count"),
    ("trace.overhead_frac", "frac"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    update_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: REFERENCE_SEED,
        seconds: 10.0,
        trace: false,
        update_reference: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--update-reference" => args.update_reference = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.update_reference && args.seed != REFERENCE_SEED {
        return Err(format!("--update-reference needs --seed {REFERENCE_SEED}"));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Timings of one repeat.
struct Timed {
    setup_s: Vec<f64>,
    host_s: f64,
    restore_s: f64,
    summary: Summary,
}

fn round<W: Workload>(w: &W, tr: &mut Tracer, verify: bool) -> Timed {
    // Set-up is short next to the measured phase, so each repeat sets up
    // several times (keeping the last) to give its median more samples.
    let mut setup_s = Vec::with_capacity(SETUPS_PER_REPEAT);
    let mut ready = None;
    for _ in 0..SETUPS_PER_REPEAT {
        drop(ready.take());
        let span = tr.begin("setup", "bench", None);
        let t = Instant::now();
        ready = Some(w.setup());
        setup_s.push(t.elapsed().as_secs_f64());
        tr.end(span);
    }
    let ready = ready.expect("at least one set-up per repeat");

    let span = tr.begin("round", "bench", None);
    let t = Instant::now();
    let done = w.run(ready, tr, verify);
    let host_s = t.elapsed().as_secs_f64();
    tr.end(span);

    let t = Instant::now();
    let restored = w.restore(&done, tr);
    let restore_s = t.elapsed().as_secs_f64();

    let mut summary = w.summarize(&done, verify);
    summary.failures.extend(restored.err());
    Timed {
        setup_s,
        host_s,
        restore_s,
        summary,
    }
}

fn reference_path(workload: &str) -> std::path::PathBuf {
    util::bench_dir()
        .join("reference")
        .join(format!("{workload}.txt"))
}

/// Compare the verified fingerprints with the committed reference (or
/// rewrite it with `--update-reference`).
fn check_reference(args: &Args, fingerprints: &[String]) -> Result<(), String> {
    let path = reference_path(&args.workload);
    let text: String = fingerprints.iter().map(|f| format!("{f}\n")).collect();
    if args.update_reference {
        std::fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        return Ok(());
    }
    let pinned =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if pinned == text {
        return Ok(());
    }
    let first = pinned
        .lines()
        .zip(text.lines())
        .position(|(a, b)| a != b)
        .unwrap_or(pinned.lines().count().min(text.lines().count()));
    Err(format!(
        "fingerprints differ from {} (first difference at line {})",
        path.display(),
        first + 1
    ))
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn measure<W: Workload>(w: &W, args: &Args) -> Report {
    let mut tr = Tracer::new(false);
    let verified = round(w, &mut tr, true);
    let r0 = verified.summary;
    let mut failures = r0.failures.clone();
    if args.seed == REFERENCE_SEED {
        failures.extend(check_reference(args, &r0.fingerprints).err());
    }
    let mut attempted = r0.attempted;

    let (mut setup, mut host, mut restore, mut traced) = (vec![], vec![], vec![], vec![]);
    let mut first_traced_span = None;
    let start = Instant::now();
    let min_rounds = if args.trace {
        2 * MIN_ROUNDS
    } else {
        MIN_ROUNDS
    };
    for k in 0.. {
        if k >= min_rounds && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        // Traced runs alternate traced and untraced repeats.
        let traced_round = args.trace && k % 2 == 1;
        tr.set_on(traced_round);
        if traced_round && first_traced_span.is_none() {
            first_traced_span = Some(tr.len());
        }
        let t = round(w, &mut tr, false);
        attempted += t.summary.attempted;
        failures.extend(t.summary.failures.iter().cloned());
        if t.summary.fingerprints != r0.fingerprints {
            failures.push(format!(
                "repeat {k}: fingerprints differ from the verified pass"
            ));
        }
        if t.summary.modeled != r0.modeled {
            failures.push(format!(
                "repeat {k}: modeled metrics differ from the verified pass"
            ));
        }
        if traced_round {
            traced.push(t.host_s);
        } else {
            setup.extend(t.setup_s);
            host.push(t.host_s);
            restore.push(t.restore_s);
        }
    }

    println!("workload {} (seed {})", w.name(), args.seed);
    for (k, v) in &r0.notes {
        println!("  {k}: {v}");
    }
    println!(
        "  repeats: {} untraced, {} traced",
        host.len(),
        traced.len()
    );
    println!("  host_s per repeat: {}", util::describe(&host));
    println!("  setup_s per repeat: {}", util::describe(&setup));
    println!("  restore_s per repeat: {}", util::describe(&restore));
    let failed = failures.len() as u64;
    println!(
        "  failed_frac: {} ({failed} of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    for f in failures.iter().take(20) {
        println!("  FAILED: {f}");
    }

    let mut values: Layers = BTreeMap::new();
    if args.trace {
        tr.set_on(true);
        let from = first_traced_span.unwrap_or(0);
        let p = probes::run(&w.probe_shape(), &mut tr);
        p.print();
        let (extra, extra_failures) = w.traced_layers(&mut tr, from);
        failures.extend(extra_failures);
        values.extend(r0.counts.clone());
        values.extend(extra);
        let (prng_s, gpu_s, fn_s) = r0.work.attribute(&p);
        let untraced = median(&host);
        values.insert("prng.draws_per_s", probes::Probes::per_s(&p.draw_ns));
        values.insert("prng.draws", r0.work.draws);
        values.insert("prng.attr_s", prng_s);
        values.insert(
            "gpu_sim.update_elems_per_s",
            probes::Probes::per_s(&p.update_ns),
        );
        values.insert(
            "gpu_sim.tiled_elems_per_s",
            probes::Probes::per_s(&p.tiled_ns),
        );
        values.insert(
            "gpu_sim.tensor_elems_per_s",
            probes::Probes::per_s(&p.tensor_ns),
        );
        values.insert(
            "gpu_sim.reduce_elems_per_s",
            probes::Probes::per_s(&p.reduce_ns),
        );
        values.insert("gpu_sim.attr_s", gpu_s);
        values.insert("functions.evals_per_s", probes::Probes::per_s(&p.eval_ns));
        values.insert("functions.attr_s", fn_s);
        values.insert("plan.node_overhead_us", median(&p.node_ns) / 1e3);
        values.insert("plan.residual_s", untraced - prng_s - gpu_s - fn_s);
        values.insert("perf_model.predict_us", median(&p.predict_ns) / 1e3);
        values.insert("trace.overhead_frac", median(&traced) / untraced - 1.0);
        println!(
            "  host_s attribution: prng {prng_s:.4} + gpu_sim {gpu_s:.4} + functions {fn_s:.4} \
             + residual {:.4} = {untraced:.4}",
            untraced - prng_s - gpu_s - fn_s
        );
        println!("  spans recorded: {}", tr.len());
        for (layer, s) in tr.self_seconds() {
            println!("  self time {layer}: {s:.4} s");
        }
        write_spans(&tr, w.name(), args);
    } else {
        values.insert("setup_s", median(&setup));
        values.insert("host_s", median(&host));
        values.insert("peak_rss_mb", util::peak_rss_mb());
        values.insert("restore_s", median(&restore));
        values.extend(r0.modeled.clone());
    }

    let names: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        match values.get(name) {
            Some(v) if v.is_finite() => metrics.push((name, *v, unit)),
            _ => failures.push(format!("metric {name} was not measured")),
        }
    }
    Report {
        correct: failures.is_empty(),
        attempted,
        failed: failures.len() as u64,
        metrics,
    }
}

fn write_spans(tr: &Tracer, workload: &str, args: &Args) {
    let dir = util::bench_dir().join("out");
    let path = dir.join(format!("spans-{workload}-seed{}.json", args.seed));
    let header = [
        ("workload", workload.to_string()),
        ("seed", args.seed.to_string()),
        ("git_sha", util::git_sha()),
        ("nproc", nproc().to_string()),
    ];
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tr.to_json(workload, args.seed, &header)));
    match written {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} git_sha={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        util::git_sha()
    );
    let report = match args.workload.as_str() {
        "solve-dense" => measure(&solve::SolveDense::new(args.seed), &args),
        "serve-tiny" => measure(&serve::tiny(args.seed), &args),
        "serve-overload-loss" => measure(&serve::overload(args.seed), &args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    for (name, v, unit) in &report.metrics {
        println!("  {name:<30} {v:>16.6} {unit}");
    }
    let body: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        body.join(", ")
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
