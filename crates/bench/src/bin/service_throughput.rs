//! **Service throughput: batched multi-target labeling, cold vs warm
//! registry.**
//!
//! The `warmstart` bench measures one automaton; this one measures the
//! whole service layer: a [`SelectorServer`] registry over all six
//! built-in targets, fed a fixed-seed mixed-traffic batch
//! ([`odburg_workloads::mixed_traffic`]) with a queue sized to the
//! batch, served across 1/2/4/8 workers — once with a cold registry
//! and once warm-started from tables trained on exactly this traffic. Reported per run: jobs/s,
//! p50/p99 per-job latency, and the per-target miss counts that prove
//! the warm registry never re-enters the grow path on the seen suite.
//!
//! Results go to stdout and, as JSON, to
//! `target/service_throughput.json` (CI uploads the artifact).
//!
//! Regenerate with:
//! `cargo run --release -p odburg_bench --bin service_throughput`

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use odburg::service::{CompletedJob, JobHandle, SelectorServer, ServerConfig};
use odburg_bench::{f, row, rule_line};
use odburg_core::{persist, Histogram, Labeler, OnDemandAutomaton};
use odburg_grammar::NormalGrammar;
use odburg_workloads::{mixed_traffic, TrafficJob};

const SEED: u64 = 0xC0FFEE;
const JOBS: usize = 120;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Run {
    workers: usize,
    warm: bool,
    batch_ns: u128,
    jobs_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    misses: u64,
    nodes: u64,
}

fn main() {
    let grammars: Vec<(String, Arc<NormalGrammar>)> = odburg::targets::all()
        .into_iter()
        .map(|g| (g.name().to_owned(), Arc::new(g.normalize())))
        .collect();
    let refs: Vec<(&str, &NormalGrammar)> = grammars
        .iter()
        .map(|(n, g)| (n.as_str(), g.as_ref()))
        .collect();
    let traffic = mixed_traffic(&refs, SEED, JOBS);
    let total_nodes: usize = traffic.iter().map(|j| j.forest.len()).sum();

    // "Yesterday's service": train one automaton per target on exactly
    // the traffic it will see, and persist the tables.
    let tables_dir = PathBuf::from("target/service-tables");
    std::fs::create_dir_all(&tables_dir).expect("create tables dir");
    for (name, normal) in &grammars {
        let mut seen = odburg_ir::Forest::new();
        for job in traffic.iter().filter(|j| j.target == *name) {
            seen.append(&job.forest);
        }
        // Every target appears in a 120-job mix, but train defensively.
        if seen.is_empty() {
            seen = odburg_workloads::random_workload(normal, SEED, 16).forest;
        }
        let mut trainer = OnDemandAutomaton::new(Arc::clone(normal));
        trainer.label_forest(&seen).expect("training labels");
        persist::save_tables(
            &trainer.snapshot(),
            &tables_dir.join(format!("{name}.odbt")),
        )
        .expect("tables export");
    }

    println!(
        "Service throughput: {JOBS} mixed-target jobs ({total_nodes} nodes) over {} targets\n",
        grammars.len()
    );
    let widths = [8, 6, 10, 11, 10, 10, 8];
    row(
        &[
            "workers", "mode", "batch.ms", "jobs/s", "p50.us", "p99.us", "misses",
        ]
        .map(String::from),
        &widths,
    );
    rule_line(&widths);

    let mut runs: Vec<Run> = Vec::new();
    for &workers in &WORKER_COUNTS {
        for warm in [false, true] {
            let server = SelectorServer::with_builtin_targets(ServerConfig {
                workers,
                queue_cap: JOBS,
                tables_dir: warm.then(|| tables_dir.clone()),
                ..ServerConfig::default()
            });
            // Time submission *and* completion: masters are built at
            // first submit, so the warm registry pays its table-file
            // loads inside this window, exactly where the cold registry
            // pays table construction — the comparison is end to end.
            let t = Instant::now();
            let done = run_all(&server, &traffic);
            server.wait_idle();
            let batch_ns = t.elapsed().as_nanos();
            let telemetry = Arc::clone(server.telemetry());
            let report = server.shutdown();
            assert!(
                done.iter().all(|job| job.outcome.is_ok()),
                "sampled traffic always labels"
            );
            assert_eq!(done.len(), JOBS);
            // Conservation recomputed purely from the telemetry registry:
            // every submitted job was accepted (the queue holds the whole
            // batch) and completed.
            let totals = telemetry.totals();
            assert!(totals.conserved(), "registry conservation: {totals:?}");
            assert_eq!(totals.accepted, JOBS as u64);
            assert_eq!(totals.completed, JOBS as u64);
            let misses: u64 = report
                .per_target
                .iter()
                .map(|t| t.counters.memo_misses)
                .sum();
            for t in &report.per_target {
                assert_eq!(t.warm_started, warm, "{}: registry mode mismatch", t.target);
            }
            let latencies: Vec<Duration> = done.iter().map(|job| job.latency).collect();
            let latency = Histogram::from_durations(&latencies);
            let run = Run {
                workers,
                warm,
                batch_ns,
                jobs_per_s: JOBS as f64 / (batch_ns as f64 / 1e9),
                p50_us: latency.quantile_duration(0.50).as_nanos() as f64 / 1e3,
                p99_us: latency.quantile_duration(0.99).as_nanos() as f64 / 1e3,
                misses,
                nodes: total_nodes as u64,
            };
            row(
                &[
                    workers.to_string(),
                    if warm { "warm" } else { "cold" }.to_owned(),
                    f(batch_ns as f64 / 1e6, 2),
                    f(run.jobs_per_s, 0),
                    f(run.p50_us, 1),
                    f(run.p99_us, 1),
                    misses.to_string(),
                ],
                &widths,
            );
            runs.push(run);
        }
    }

    println!();
    for &workers in &WORKER_COUNTS {
        let cold = runs
            .iter()
            .find(|r| r.workers == workers && !r.warm)
            .unwrap();
        let warm = runs
            .iter()
            .find(|r| r.workers == workers && r.warm)
            .unwrap();
        println!(
            "{workers} worker(s): warm registry {}x faster than cold on the seen suite",
            f(cold.batch_ns as f64 / warm.batch_ns as f64, 2)
        );
    }

    let mut json = String::from("{\n  \"bench\": \"service_throughput\",\n");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"jobs\": {JOBS},");
    let _ = writeln!(json, "  \"nodes\": {total_nodes},");
    let _ = writeln!(json, "  \"targets\": {},", grammars.len());
    json.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workers\": {}, \"mode\": \"{}\", \"batch_ns\": {}, \"jobs_per_s\": {:.1}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"misses\": {}, \"nodes\": {}}}{}",
            r.workers,
            if r.warm { "warm" } else { "cold" },
            r.batch_ns,
            r.jobs_per_s,
            r.p50_us,
            r.p99_us,
            r.misses,
            r.nodes,
            if i + 1 == runs.len() { "" } else { "," },
        );
    }
    json.push_str("  ]\n}\n");
    let path = std::path::Path::new("target/service_throughput.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncannot write {}: {e}", path.display()),
    }

    // The two shape checks this bench exists for: the warm registry
    // answers the seen suite entirely from its imported tables, and that
    // makes it strictly faster than paying table construction cold.
    let warm_misses: u64 = runs.iter().filter(|r| r.warm).map(|r| r.misses).sum();
    assert_eq!(
        warm_misses, 0,
        "a warm registry must label the traffic its tables were trained on without a miss"
    );
    let cold_total: u128 = runs.iter().filter(|r| !r.warm).map(|r| r.batch_ns).sum();
    let warm_total: u128 = runs.iter().filter(|r| r.warm).map(|r| r.batch_ns).sum();
    assert!(
        warm_total < cold_total,
        "warm registry batches ({warm_total} ns) must beat cold ({cold_total} ns) on the seen suite"
    );
}

/// Submits the whole batch, then waits on every job.
fn run_all(server: &SelectorServer, traffic: &[TrafficJob]) -> Vec<CompletedJob> {
    let handles: Vec<JobHandle> = traffic
        .iter()
        .map(|job| {
            server
                .try_submit(&job.target, job.forest.clone())
                .expect("the queue holds the whole batch")
        })
        .collect();
    handles.into_iter().map(JobHandle::wait).collect()
}
