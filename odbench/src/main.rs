//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path odbench/Cargo.toml -- \
//!     --workload <warm_replay|drift_cluster|cold_converge|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every end-to-end metric by name, unit and sample count, then,
//! as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the gated end-to-end metrics with `--trace 0`,
//! the per-layer metrics (and the tracing overhead on each end-to-end
//! metric) with `--trace 1`. A traced invocation measures the untraced
//! half of its time in a child process, so both halves get their own
//! peak memory. Exits 1 when a job failed or an assertion did not hold.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use odbench::{end_to_end, out_dir, per_layer, Budget, Metric, Workload, GATED};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workload = None,
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("odbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload {
        Some(w) if args.trace => traced(w, &args),
        Some(w) => untraced(w, &args),
        None => all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One untraced pass: prints the end-to-end metrics and the result line.
fn untraced(w: Workload, args: &Args) -> bool {
    println!("workload {} seed {} untraced", w.name(), args.seed);
    let run = odbench::run(w, args.seed, Budget::Seconds(args.seconds), false);
    let (metrics, beyond) = end_to_end(&run);
    for m in &metrics {
        println!(
            "e2e {} {} {} samples={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let quiet = odbench::quiet_stretches(&run);
    let whole = odbench::figures(&run, &run.stretches);
    println!(
        "e2e_note timed figures over the {} least stolen of {} stretches (steal {:.4}; whole window {:.4}), job_p99_ms samples_beyond={beyond}",
        quiet.len(),
        run.stretches.len(),
        odbench::figures(&run, quiet.iter().copied()).steal_frac,
        whole.steal_frac
    );
    println!(
        "e2e_whole_window nodes_per_s {} job_p50_ms {} job_p99_ms {} samples={}",
        whole.nodes_per_s, whole.p50_ms, whole.p99_ms, whole.jobs
    );
    println!("counts {:?}", run.counts);
    let mut problems = run.problems.clone();
    if beyond < 10 {
        problems.push(format!("only {beyond} latency samples beyond p99, need 10"));
    }
    for p in &problems {
        eprintln!("FAIL {}: {p}", w.name());
    }
    let correct = run.failed == 0 && problems.is_empty();
    let gated = metrics
        .iter()
        .filter(|m| GATED.contains(&m.name))
        .map(|m| (m.name, m.value, m.unit));
    println!("{}", result_json(correct, run.attempted, run.failed, gated));
    correct
}

/// A traced invocation: the untraced half in a child process, the
/// traced half here; prints per-layer metrics and tracing overhead.
fn traced(w: Workload, args: &Args) -> bool {
    let half = args.seconds / 2.0;
    let child = child_output(w, args, half, false);
    let untraced: BTreeMap<&str, f64> = metric_lines(&child.lines, "e2e")
        .into_iter()
        .map(|(name, value, _)| (name, value))
        .collect();
    for line in &child.lines {
        println!("untraced: {line}");
    }

    println!("workload {} seed {} traced", w.name(), args.seed);
    let run = odbench::run(w, args.seed, Budget::Seconds(half), true);
    let (e2e, _) = end_to_end(&run);
    let tracer = run.tracer.as_ref().expect("traced pass");
    let spans_path = out_dir().join(format!("spans-{}.csv", w.name()));
    if let Err(e) = tracer.write_csv(&spans_path) {
        eprintln!("odbench: cannot write {}: {e}", spans_path.display());
    }
    println!(
        "spans: {} written to {}",
        tracer.spans().len(),
        spans_path.display()
    );
    println!(
        "span check: each job's layer spans plus its self time (handoff) sum to its latency; \
         {} jobs had queue/label clipped by their admit overlap (largest {} ns)",
        run.clipped.0, run.clipped.1
    );
    println!(
        "{:<16} {:>9} {:>9} {:>12} {:>12}",
        "layer", "spans", "per_job", "self_mean_us", "self_p50_us"
    );
    let jobs = run.counts.jobs.max(1);
    for (name, layer) in tracer.layers() {
        println!(
            "{:<16} {:>9} {:>9.3} {:>12.3} {:>12.3}",
            name,
            layer.count,
            layer.count as f64 / jobs as f64,
            layer.self_total_ns() as f64 / layer.count as f64 / 1e3,
            odbench::stats::quantile(&layer.self_ns, 0.5) as f64 / 1e3
        );
    }
    let mut metrics = per_layer(&run);
    for m in &e2e {
        println!(
            "e2e_traced {} {} {} samples={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for m in e2e.iter().filter(|m| GATED.contains(&m.name)) {
        let base = untraced.get(m.name).copied().unwrap_or(f64::NAN);
        metrics.push(Metric {
            name: overhead_name(m.name),
            value: m.value - base,
            unit: m.unit,
            samples: m.samples,
        });
    }
    for m in &metrics {
        println!(
            "layer {} {} {} samples={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for p in &run.problems {
        eprintln!("FAIL {} (traced): {p}", w.name());
    }
    let correct = child.ok && run.correct();
    let layers = metrics.iter().map(|m| (m.name, m.value, m.unit));
    println!(
        "{}",
        result_json(correct, run.attempted, run.failed, layers)
    );
    correct
}

/// The per-layer name of the tracing overhead on an end-to-end metric.
fn overhead_name(e2e: &str) -> &'static str {
    match e2e {
        "setup_s" => "trace_overhead.setup_s",
        "nodes_per_s" => "trace_overhead.nodes_per_s",
        "job_p50_ms" => "trace_overhead.job_p50_ms",
        "job_p99_ms" => "trace_overhead.job_p99_ms",
        "peak_rss_mb" => "trace_overhead.peak_rss_mb",
        _ => unreachable!("GATED lists these"),
    }
}

/// Runs every workload in its own child process; the result line
/// carries each workload's metrics under `<workload>.<metric>`.
fn all(args: &Args) -> bool {
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let child = child_output(w, args, args.seconds, args.trace);
        for line in &child.lines {
            println!("{line}");
        }
        correct &= child.ok;
        let tag = if args.trace { "layer" } else { "e2e" };
        for (name, value, unit) in metric_lines(&child.lines, tag) {
            if args.trace || GATED.contains(&name) {
                metrics.push((format!("{}.{name}", w.name()), value, unit.to_string()));
            }
        }
        if let Some(last) = child.lines.last() {
            attempted += json_u64(last, "\"attempted\": ");
            failed += json_u64(last, "\"failed\": ");
        }
    }
    let metrics = metrics.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str()));
    println!("{}", result_json(correct, attempted, failed, metrics));
    correct
}

/// `(name, value, unit)` of every `<tag> <name> <value> <unit> ...` line.
fn metric_lines<'a>(lines: &'a [String], tag: &str) -> Vec<(&'a str, f64, &'a str)> {
    lines
        .iter()
        .filter_map(|l| {
            let mut parts = l.split(' ');
            if parts.next()? != tag {
                return None;
            }
            Some((parts.next()?, parts.next()?.parse().ok()?, parts.next()?))
        })
        .collect()
}

/// The integer after `key` in a result line.
fn json_u64(line: &str, key: &str) -> u64 {
    line.split_once(key)
        .and_then(|(_, rest)| rest.split([',', '}']).next())
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

struct ChildOutput {
    ok: bool,
    lines: Vec<String>,
}

/// Runs this benchmark as a child process on one workload and collects
/// its standard output; its standard error passes through.
fn child_output(w: Workload, args: &Args, seconds: f64, trace: bool) -> ChildOutput {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let out = cmd.output().expect("run the benchmark child process");
    ChildOutput {
        ok: out.status.success(),
        lines: String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(str::to_string)
            .collect(),
    }
}

/// The result line the benchmark contract asks for.
fn result_json<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a str, f64, &'a str)>,
) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.enumerate() {
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        attempted.max(1)
    )
}
