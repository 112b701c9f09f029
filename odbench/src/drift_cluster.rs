//! `drift_cluster`: unseen traffic against a warm two-shard cluster that
//! ships its tables.
//!
//! Each round builds a `ShardCluster` of [`SHARDS`] shards with one
//! worker each, both warm-started from tables trained on the run's seed,
//! and feeds it [`ROUND_JOBS`] jobs of a different seed ([`drift_seed`]),
//! [`WINDOW`] outstanding. After every [`SHIP_EVERY`] jobs the client
//! lets the window drain and ships every target from its writer to the
//! replica. Nearly every job misses some transitions while almost no
//! states are new, so publication at full table size and shipping
//! dominate. After each ship round every replica must serve the
//! writer's `(epoch, states)` tables. Rounds repeat until the budget is
//! spent; each round is the same, so its counts repeat exactly.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use odburg::cluster::{
    ChannelTransport, ClusterConfig, ShardCluster, ShipError, ShipTransport, Shipment,
};
use odburg::prelude::*;
use odburg::select::persist::{inspect_snapshot, read_tables_from};
use odburg::targets::TARGET_NAMES;
use odburg::workloads::builtin_traffic;

use crate::stats::ns;
use crate::{
    register_all, table_bytes, target_index, train, Budget, Client, Oracle, Run, WorkDir, WINDOW,
};

/// Shards in the cluster (one worker each: two worker threads in all).
pub const SHARDS: usize = 2;

/// Size of the trained job set both shards warm-start from.
const TRAIN_JOBS: usize = 3000;

/// Jobs of the unseen stream each round feeds its fresh cluster.
pub const ROUND_JOBS: usize = 3000;

/// Jobs between two ship rounds.
pub const SHIP_EVERY: usize = 200;

/// The seed of the unseen stream: the trained seed's traffic never
/// repeats in it.
pub fn drift_seed(seed: u64) -> u64 {
    seed ^ 0xD21F_7D21_F7D2_1F7D
}

pub(crate) fn run(run: Run, seed: u64, budget: Budget) -> Run {
    let trained_jobs = builtin_traffic(seed, TRAIN_JOBS);
    let stream = builtin_traffic(drift_seed(seed), ROUND_JOBS);
    let targets: Vec<usize> = stream.iter().map(|j| target_index(&j.target)).collect();
    // One already-trained job per target primes each shard's import.
    let primers: Vec<&Forest> = TARGET_NAMES
        .iter()
        .map(|t| {
            &trained_jobs
                .iter()
                .find(|j| j.target == *t)
                .expect("the trained set covers every target")
                .forest
        })
        .collect();
    let normals: Vec<Arc<NormalGrammar>> = odburg::targets::all()
        .iter()
        .map(|g| Arc::new(g.normalize()))
        .collect();
    let work = WorkDir::new(run.workload);
    let trained = work.0.join("trained");
    train(&trained_jobs, &trained);

    let mut client = Client::new(run, budget);
    while client.window.more() {
        // The previous round's cluster has shut down and exported its
        // tables; each round starts from the trained files.
        for shard in 0..SHARDS {
            work.copy_of(&trained, &format!("round/shard-{shard}"));
        }
        let t0 = Instant::now();
        let setup = client.run.open(0, "setup", t0);
        let cluster = ShardCluster::new(ClusterConfig {
            shards: SHARDS,
            server: ServerConfig {
                workers: 1,
                tables_dir: Some(work.0.join("round")),
                ..ServerConfig::default()
            },
            ..ClusterConfig::default()
        });
        register_all(&mut client.run, setup, |g| {
            cluster.register(g).expect("built-in targets register");
        });
        prime(&mut client, &cluster, setup, &primers);
        let t1 = Instant::now();
        client.run.close(setup, t1);
        client.run.setups_ns.push(ns(t1 - t0));

        client.open_window();
        let mut inflight = VecDeque::with_capacity(WINDOW);
        let mut next = 0usize;
        let mut submitted = 0usize;
        let mut publications = client.run.counts.publications;
        loop {
            while inflight.len() < WINDOW
                && submitted < SHIP_EVERY
                && next < stream.len()
                && client.window.start_job()
            {
                let i = next;
                next += 1;
                submitted += 1;
                let forest = stream[i].forest.clone();
                let job = client.submit(i as u32, targets[i], None, || {
                    cluster
                        .submit(&stream[i].target, forest)
                        .map(|s| s.handle)
                        .map_err(|e| e.to_string())
                });
                inflight.extend(job);
            }
            if let Some(f) = inflight.pop_front() {
                client.complete(f);
                continue;
            }
            if submitted < SHIP_EVERY {
                break;
            }
            // The window has drained: ship at a quiescent point, so the
            // shipped tables (and bytes) are the same on every run.
            if client.run.counts.publications == publications {
                client.run.problem(format!(
                    "drift_cluster: no publication in {SHIP_EVERY} jobs"
                ));
            }
            publications = client.run.counts.publications;
            let shipped = ship_round(&mut client.run, &cluster);
            client.close_window();
            for (t, tables) in shipped.iter().enumerate() {
                sample_publish_shipped(&mut client.run, &normals[t], tables);
            }
            check_replicas(&mut client.run, &cluster, &primers);
            client.open_window();
            submitted = 0;
        }
        client.close_window();

        for (name, telemetry) in cluster.shard_telemetries() {
            let totals = telemetry.totals();
            if !totals.conserved() {
                client.run.problem(format!(
                    "drift_cluster {name}: telemetry not conserved: {totals:?}"
                ));
            }
        }
        let report = cluster.shutdown();
        if !report.conserved() || report.failed + report.rejected + report.shed > 0 {
            client
                .run
                .problem(format!("drift_cluster: cluster accounting {report:?}"));
        }
        let mut bytes = 0;
        for shard in &report.per_shard {
            for t in &shard.report.per_target {
                client.run.counts.add_work(&t.counters);
            }
            bytes += table_bytes(&shard.report);
        }
        client.run.table_bytes.push(bytes);
    }
    client.end_window();

    let mut oracle = Oracle::new();
    client.finish(|idx| oracle.cost(targets[idx as usize], &stream[idx as usize].forest))
}

/// Forces every shard's lazy warm-start import with one submission of
/// an already-trained job per target, pinned to each shard in turn, and
/// records the writer's snapshot for publication tracking.
fn prime(client: &mut Client, cluster: &ShardCluster, setup: u32, primers: &[&Forest]) {
    for (t, name) in TARGET_NAMES.iter().enumerate() {
        let writer = cluster.writer(name).expect("registered").shard;
        for shard in 0..SHARDS {
            let i0 = Instant::now();
            let probed = probe(cluster, name, shard, primers[t]);
            client.run.span(setup, "import", i0, Instant::now());
            match probed {
                Ok(snapshot) if shard == writer => client.pin_snapshot(t, snapshot),
                Ok(_) => {}
                Err(e) => client.run.problem(format!(
                    "drift_cluster: priming {name} on shard {shard}: {e}"
                )),
            }
        }
    }
}

/// Runs an already-trained job on `shard` and returns the snapshot it
/// was labeled against: the tables that shard serves.
fn probe(
    cluster: &ShardCluster,
    name: &str,
    shard: usize,
    forest: &Forest,
) -> Result<Arc<AutomatonSnapshot>, String> {
    cluster.pin(name, shard).map_err(|e| e.to_string())?;
    let submitted = cluster.submit(name, forest.clone());
    cluster.unpin(name);
    let done = submitted.map_err(|e| e.to_string())?.handle.wait();
    match &done.outcome {
        Ok(pinned) => Ok(Arc::clone(pinned.snapshot())),
        Err(e) => Err(e.to_string()),
    }
}

/// Checks, after a ship round, that every replica of every target serves
/// tables with its writer's `(epoch, states)` key: the key the install
/// fence orders shipments by, so a round that failed to install newer
/// tables leaves a replica behind. Also counts the memoized transitions
/// the replica still lacks (the fence refuses shipments that add
/// transitions but no states). Probes run with the timed window closed.
fn check_replicas(run: &mut Run, cluster: &ShardCluster, primers: &[&Forest]) {
    for (t, name) in TARGET_NAMES.iter().enumerate() {
        let writer = cluster.writer(name).expect("registered").shard;
        let probed: Result<Vec<_>, String> = (0..SHARDS)
            .map(|shard| probe(cluster, name, shard, primers[t]).map(|s| s.stats()))
            .collect();
        let stats = match probed {
            Ok(stats) => stats,
            Err(e) => {
                run.problem(format!("drift_cluster: probing {name}: {e}"));
                continue;
            }
        };
        let w = &stats[writer];
        for (shard, r) in stats.iter().enumerate().filter(|&(s, _)| s != writer) {
            if (r.epoch, r.states) != (w.epoch, w.states) {
                run.problem(format!(
                    "drift_cluster: after shipping {name}, replica {shard} serves (epoch, states) \
                     ({}, {}) but the writer ({}, {})",
                    r.epoch, r.states, w.epoch, w.states
                ));
            }
            run.replica_lag
                .push(w.transitions.saturating_sub(r.transitions) as u64);
        }
    }
}

/// Ships every target from its writer to the replica: one
/// `ship_target` call each, or, when tracing, the same stages called one
/// by one so each gets its span. Returns the shipped tables of each
/// target when tracing (for [`sample_publish_shipped`]).
fn ship_round(run: &mut Run, cluster: &ShardCluster) -> Vec<Vec<u8>> {
    let r0 = Instant::now();
    let round = run.open(0, "ship_round", r0);
    let mut shipped_tables = Vec::new();
    for name in TARGET_NAMES {
        let s0 = Instant::now();
        let shipped = if run.tracer.is_some() {
            ship_traced(run, cluster, round, name, s0).map(|shipment| {
                let bytes = shipment.bytes.len();
                shipped_tables.push(shipment.bytes);
                bytes
            })
        } else {
            cluster.ship_target(name).map(|report| {
                run.counts.ship_installs += report.installed.len() as u64;
                run.counts.ship_skips += report.already_current.len() as u64;
                report.bytes
            })
        };
        let s1 = Instant::now();
        match shipped {
            Ok(bytes) => {
                run.ships_ns.push(ns(s1 - s0));
                run.counts.ship_calls += 1;
                run.counts.shipped_bytes += bytes as u64;
            }
            Err(e) => run.problem(format!("drift_cluster: shipping {name}: {e}")),
        }
    }
    run.close(round, Instant::now());
    shipped_tables
}

/// `ShardCluster::ship_target`'s steps, called one by one through the
/// public API so that each stage gets its span: `ship_encode` is
/// `prepare_shipment`, framing, and the self-decode and snapshot
/// inspection `ship_target` does for its report; `ship_install` is, per
/// replica, framing, the in-process channel, decoding and
/// `deliver_shipment`.
fn ship_traced(
    run: &mut Run,
    cluster: &ShardCluster,
    round: u32,
    name: &str,
    s0: Instant,
) -> Result<Shipment, ShipError> {
    let ship = run.open(round, "ship", s0);
    let shipment = cluster.prepare_shipment(name)?;
    let decoded = Shipment::decode(&shipment.encode())?;
    inspect_snapshot(&decoded.bytes[..])?;
    run.span(ship, "ship_encode", s0, Instant::now());
    let writer = cluster.writer(name).expect("registered").shard;
    for idx in (0..SHARDS).filter(|&i| i != writer && cluster.is_alive(i)) {
        let i0 = Instant::now();
        let delivered = over_channel(&shipment).and_then(|s| cluster.deliver_shipment(idx, &s));
        run.span(ship, "ship_install", i0, Instant::now());
        match delivered {
            Ok(_) => run.counts.ship_installs += 1,
            Err(ShipError::Install(InstallError::Stale { .. })) => run.counts.ship_skips += 1,
            Err(e) => return Err(e),
        }
    }
    run.close(ship, Instant::now());
    Ok(shipment)
}

/// Sends `shipment` through an in-process channel and decodes what
/// arrives, as `ship_target` does for each replica.
fn over_channel(shipment: &Shipment) -> Result<Shipment, ShipError> {
    let (mut tx, mut rx) = ChannelTransport::pair();
    tx.send(&shipment.encode())?;
    let frame = rx
        .recv()?
        .expect("a channel pair delivers the frame just sent");
    Shipment::decode(&frame)
}

/// Times one freeze + index build at the writer's current table size.
/// The cluster exposes no shard's master, so the master is rebuilt from
/// the tables the writer just shipped, and its `snapshot()` is timed.
fn sample_publish_shipped(run: &mut Run, normal: &Arc<NormalGrammar>, tables: &[u8]) {
    let snapshot = read_tables_from(tables, Arc::clone(normal), OnDemandConfig::default())
        .expect("shipped tables read back");
    let master = OnDemandAutomaton::from_snapshot(&snapshot);
    let p0 = Instant::now();
    let published = master.snapshot();
    let p1 = Instant::now();
    drop(published);
    run.span(0, "publish_sample", p0, p1);
}
