//! `warm_replay`: the served steady state.
//!
//! A `SelectorServer` with one worker and the six built-in targets,
//! warm-started from tables trained on exactly the `builtin_traffic` job
//! set it then replays in cycles, [`WINDOW`] jobs outstanding. The grow
//! path and publication must do no work here (asserted), so admission,
//! queue handoff, the dense warm walk and reduce carry the whole job.
//!
//! The run is a series of rounds, each on a freshly built server that
//! replays the set [`ROUND_CYCLES`] times. Every server is equally warm,
//! so the rounds measure the same steady state, and `setup_s`, the median
//! over the rounds, samples set-up across the whole run rather than its
//! first moments.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use odburg::prelude::*;
use odburg::targets::TARGET_NAMES;
use odburg::workloads::builtin_traffic;

use crate::stats::ns;
use crate::{
    check_server_report, register_all, table_bytes, target_index, train, Budget, Client, Oracle,
    Run, WorkDir, PUBLISH_SAMPLE_EVERY, WINDOW,
};

/// Size of the replayed (and trained) job set.
pub const REPLAY_JOBS: usize = 3000;

/// Replays of the job set per server.
const ROUND_CYCLES: usize = 2;

pub(crate) fn run(run: Run, seed: u64, budget: Budget) -> Run {
    let jobs = builtin_traffic(seed, REPLAY_JOBS);
    let targets: Vec<usize> = jobs.iter().map(|j| target_index(&j.target)).collect();
    let work = WorkDir::new(run.workload);
    let trained = work.0.join("trained");
    train(&jobs, &trained);

    let mut client = Client::new(run, budget);
    while client.window.more() {
        // The previous round's server has shut down and exported its
        // tables; each round starts from the trained files.
        let tables_dir = work.copy_of(&trained, "server");
        let t0 = Instant::now();
        let setup = client.run.open(0, "setup", t0);
        let server = SelectorServer::new(ServerConfig {
            workers: 1,
            tables_dir: Some(tables_dir),
            ..ServerConfig::default()
        });
        register_all(&mut client.run, setup, |g| {
            server.register(g).expect("built-in targets register");
        });
        // Force every lazy warm-start import now, not in the first job.
        for (t, name) in TARGET_NAMES.iter().enumerate() {
            let i0 = Instant::now();
            let shared = server.shared(name).expect("trained tables import");
            client.run.span(setup, "import", i0, Instant::now());
            client.pin_snapshot(t, shared.snapshot());
        }
        let t1 = Instant::now();
        client.run.close(setup, t1);
        client.run.setups_ns.push(ns(t1 - t0));
        let telemetry = Arc::clone(server.telemetry());
        let (work0, published0) = server_work(&server);
        let publications0 = client.run.counts.publications;

        client.open_window();
        let mut inflight = VecDeque::with_capacity(WINDOW);
        let mut next = 0usize;
        loop {
            while inflight.len() < WINDOW
                && next < ROUND_CYCLES * jobs.len()
                && client.window.start_job()
            {
                let i = next % jobs.len();
                next += 1;
                let forest = jobs[i].forest.clone();
                let submitted = client.submit(i as u32, targets[i], None, || {
                    server
                        .try_submit(&jobs[i].target, forest)
                        .map_err(|e| e.to_string())
                });
                inflight.extend(submitted);
            }
            let Some(f) = inflight.pop_front() else { break };
            let target = f.target;
            if client.complete(f) && client.run.counts.jobs.is_multiple_of(PUBLISH_SAMPLE_EVERY) {
                let shared = server
                    .shared(TARGET_NAMES[target])
                    .expect("built-in target");
                client.sample_publish(&shared);
            }
        }
        client.close_window();

        let (work1, published1) = server_work(&server);
        let delta = work1.since(&work0);
        client.run.counts.add_work(&delta);
        let published = (published1 - published0) as u64;
        if delta.memo_misses != 0 || published != 0 {
            client.run.problem(format!(
                "warm_replay: {} memo misses and {published} publications in the timed window, expected none",
                delta.memo_misses
            ));
        }
        let pinned_new = client.run.counts.publications - publications0;
        if pinned_new != published {
            client.run.problem(format!(
                "warm_replay: {pinned_new} jobs pinned a new snapshot but {published} were published"
            ));
        }
        let report = server.shutdown();
        check_server_report(&mut client.run, "warm_replay", telemetry.totals(), &report);
        client.run.table_bytes.push(table_bytes(&report));
    }
    client.end_window();

    let mut oracle = Oracle::new();
    client.finish(|idx| oracle.cost(targets[idx as usize], &jobs[idx as usize].forest))
}

/// Labeling counters and publication count of every target master of a
/// server, summed.
fn server_work(server: &SelectorServer) -> (WorkCounters, usize) {
    let mut work = WorkCounters::new();
    let mut published = 0;
    for name in TARGET_NAMES {
        let shared = server.shared(name).expect("built-in target");
        work.merge(&shared.counters());
        published += shared.snapshots_published();
    }
    (work, published)
}
