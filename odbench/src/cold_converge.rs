//! `cold_converge`: the paper's cold-start scenario through the server.
//!
//! Repeated episodes, each on a fresh one-worker `SelectorServer` with no
//! tables, one job at a time (a compiler selecting one method at a
//! time). Every [`MINIC_EVERY`]th job is a MiniC program compiled from
//! source and sent to x86ish; the rest are sampled traffic over all six
//! targets. Every episode runs the same [`EPISODE_JOBS`] jobs, so its
//! counts repeat exactly; state construction, closure and signature
//! evaluation dominate while the automaton converges.

use std::collections::VecDeque;
use std::time::Instant;

use odburg::frontend::programs;
use odburg::prelude::*;
use odburg::targets::TARGET_NAMES;
use odburg::workloads::builtin_traffic;

use crate::stats::ns;
use crate::{
    check_server_report, register_all, table_bytes, target_index, Budget, Client, Oracle, Run,
    PUBLISH_SAMPLE_EVERY,
};

/// Jobs per episode.
pub const EPISODE_JOBS: usize = 2000;

/// One job in this many is a MiniC compile.
pub const MINIC_EVERY: usize = 4;

/// Windowed hit rate at which an episode counts as converged.
const CONVERGED_HIT_RATE: f64 = 0.99;

/// MiniC compiles the windowed hit rate of [`CONVERGED_HIT_RATE`] is
/// taken over. Convergence follows the MiniC method stream: sampled
/// traffic draws fresh payloads and shapes on every job and keeps
/// missing, so a hit rate over all jobs stays far below it.
const HIT_RATE_JOBS: usize = 16;

/// Where an episode's job comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A sampled traffic job (index into the traffic).
    Traffic(usize),
    /// A built-in MiniC program (index into [`programs::all`]).
    MiniC(usize),
}

pub(crate) fn run(run: Run, seed: u64, budget: Budget) -> Run {
    let traffic = builtin_traffic(seed, EPISODE_JOBS - EPISODE_JOBS / MINIC_EVERY);
    let sources = programs::all();
    let plan = plan(seed, traffic.len(), sources.len());
    let x86 = target_index("x86ish");

    let mut client = Client::new(run, budget);
    while client.window.more() {
        let t0 = Instant::now();
        let setup = client.run.open(0, "setup", t0);
        let server = SelectorServer::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        register_all(&mut client.run, setup, |g| {
            server.register(g).expect("built-in targets register");
        });
        // Build every (empty) master now, not in the first job.
        let masters: Vec<_> = TARGET_NAMES
            .iter()
            .enumerate()
            .map(|(t, name)| {
                let i0 = Instant::now();
                let shared = server.shared(name).expect("built-in target");
                client.run.span(setup, "import", i0, Instant::now());
                client.pin_snapshot(t, shared.snapshot());
                shared
            })
            .collect();
        let t1 = Instant::now();
        client.run.close(setup, t1);
        client.run.setups_ns.push(ns(t1 - t0));
        let telemetry = std::sync::Arc::clone(server.telemetry());
        let hit_miss = || {
            masters.iter().fold((0u64, 0u64), |(h, m), s| {
                let c = s.counters();
                (h + c.memo_hits, m + c.memo_misses)
            })
        };

        client.open_window();
        let mut quarters = vec![(0u64, 0u64)];
        let mut recent: VecDeque<(u64, u64)> = VecDeque::with_capacity(HIT_RATE_JOBS);
        let mut converged = None;
        let mut nodes = 0u64;
        let mut ran = 0;
        for (i, source) in plan.iter().enumerate() {
            if !client.window.start_job() {
                break;
            }
            let (idx, target, compile_start, forest) = match *source {
                Source::Traffic(k) => (
                    k,
                    target_index(&traffic[k].target),
                    None,
                    traffic[k].forest.clone(),
                ),
                Source::MiniC(p) => {
                    let c0 = Instant::now();
                    let forest = odburg::frontend::compile(sources[p].source)
                        .expect("built-in programs compile");
                    (traffic.len() + p, x86, Some(c0), forest)
                }
            };
            let before = client
                .run
                .tracer
                .is_some()
                .then(|| masters[target].counters());
            let job = client.submit(idx as u32, target, compile_start, || {
                server
                    .try_submit(TARGET_NAMES[target], forest)
                    .map_err(|e| e.to_string())
            });
            let done = job.is_some_and(|f| client.complete(f));
            ran = i + 1;
            if let Some(before) = before {
                let c = masters[target].counters().since(&before);
                nodes += c.nodes;
                if matches!(source, Source::MiniC(_)) {
                    if recent.len() == HIT_RATE_JOBS {
                        recent.pop_front();
                    }
                    recent.push_back((c.memo_hits, c.memo_misses));
                }
                let (h, m) = recent
                    .iter()
                    .fold((0, 0), |(h, m), &(jh, jm)| (h + jh, m + jm));
                if converged.is_none()
                    && recent.len() == HIT_RATE_JOBS
                    && h as f64 >= CONVERGED_HIT_RATE * (h + m) as f64
                {
                    converged = Some(nodes);
                }
            }
            if (i + 1) % (EPISODE_JOBS / 4) == 0 {
                quarters.push(hit_miss());
            }
            if done && client.run.counts.jobs.is_multiple_of(PUBLISH_SAMPLE_EVERY) {
                client.sample_publish(&masters[target]);
            }
        }
        client.close_window();

        let mut work = WorkCounters::new();
        for m in &masters {
            work.merge(&m.counters());
        }
        client.run.counts.add_work(&work);
        if ran > 0 && work.states_built == 0 {
            client
                .run
                .problem("cold_converge: an episode built no states".to_string());
        }
        if ran == EPISODE_JOBS {
            let rate = |a: (u64, u64), b: (u64, u64)| {
                let (h, m) = (b.0 - a.0, b.1 - a.1);
                h as f64 / (h + m).max(1) as f64
            };
            let (first, last) = (
                rate(quarters[0], quarters[1]),
                rate(quarters[3], quarters[4]),
            );
            if last <= first {
                client.run.problem(format!(
                    "cold_converge: hit rate did not climb ({first:.4} in the first quarter, {last:.4} in the last)"
                ));
            }
            if client.run.tracer.is_some() {
                client.run.converge_nodes.push(converged.unwrap_or(nodes));
            }
        }
        let report = server.shutdown();
        check_server_report(
            &mut client.run,
            "cold_converge",
            telemetry.totals(),
            &report,
        );
        client.run.table_bytes.push(table_bytes(&report));
    }
    client.end_window();

    let mut oracle = Oracle::new();
    client.finish(|idx| {
        let idx = idx as usize;
        match traffic.get(idx) {
            Some(job) => oracle.cost(target_index(&job.target), &job.forest),
            None => {
                let forest = odburg::frontend::compile(sources[idx - traffic.len()].source)
                    .map_err(|e| e.to_string())?;
                oracle.cost(x86, &forest)
            }
        }
    })
}

/// The episode's job order: every [`MINIC_EVERY`]th job a MiniC
/// program, the others the traffic in order. The programs come in
/// seeded shuffles of the whole suite, so every seed compiles each
/// program equally often and only their order depends on the seed.
fn plan(seed: u64, traffic: usize, programs: usize) -> Vec<Source> {
    let mut state = seed;
    let mut next = || {
        // SplitMix64.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut deck: Vec<usize> = Vec::new();
    let mut next_traffic = 0;
    (0..traffic + traffic / (MINIC_EVERY - 1))
        .map(|i| {
            if i % MINIC_EVERY != MINIC_EVERY - 1 {
                next_traffic += 1;
                return Source::Traffic(next_traffic - 1);
            }
            if deck.is_empty() {
                deck = (0..programs).collect();
                for k in (1..programs).rev() {
                    deck.swap(k, (next() % (k as u64 + 1)) as usize);
                }
            }
            Source::MiniC(deck.pop().expect("refilled above"))
        })
        .collect()
}
