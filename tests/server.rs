//! The new failure surface of the long-running [`SelectorServer`]:
//! queue-full backpressure, deadline expiry racing completion, and
//! graceful shutdown with pinned labelings straddling a compaction —
//! every successful labeling cross-checked **bit-identically** (full
//! instruction sequence + total cost) against a fresh [`DpLabeler`]
//! oracle, exactly as `tests/service_fuzz.rs` does for the batch path.
//!
//! The conservation law under test everywhere: every submitted job is
//! either completed, typed-rejected (`QueueFull`), or deadline-expired
//! — never silently lost, including across `shutdown()`.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use odburg::prelude::*;
use odburg::service::{
    FairConfig, JobError, JobHandle, JobOptions, SchedPolicy, SelectorServer, ServerConfig,
    SubmitError,
};
use odburg::workloads::TreeSampler;

use common::random_grammar;

/// The oracle: a fresh iburg-style dynamic-programming labeler, built
/// from scratch for one forest, reduced to instructions.
fn dp_reduction(forest: &Forest, normal: &Arc<NormalGrammar>) -> Reduction {
    let mut dp = DpLabeler::new(Arc::clone(normal));
    let labeling = dp.label_forest(forest).expect("dp labels sampled trees");
    odburg::codegen::reduce_forest(forest, normal, &labeling).expect("dp reduces")
}

/// A grammar whose dynamic cost depends on the constant's value, so
/// distinct constants keep minting signatures — the compaction churn
/// driver.
fn churn_grammar() -> Arc<NormalGrammar> {
    let mut g = odburg::grammar::parse_grammar(
        r#"
        %grammar churn
        %start stmt
        %dyncost val
        reg: ConstI8 [val]
        reg: AddI8(reg, reg) (1)
        stmt: StoreI8(reg, reg) (1)
        "#,
    )
    .unwrap();
    g.bind_dyncost(
        "val",
        Arc::new(|forest: &Forest, node: odburg::ir::NodeId| {
            let v = forest.node(node).payload().as_int().unwrap_or(0);
            RuleCost::Finite((v.unsigned_abs() % 911) as u16)
        }),
    )
    .unwrap();
    Arc::new(g.normalize())
}

fn churn_forest(k: i64) -> Forest {
    let mut f = Forest::new();
    let root = odburg::ir::parse_sexpr(
        &mut f,
        &format!(
            "(StoreI8 (ConstI8 {k}) (AddI8 (ConstI8 {}) (ConstI8 1)))",
            k + 13
        ),
    )
    .unwrap();
    f.add_root(root);
    f
}

/// Multi-threaded backpressure stress: four submitters flood a tiny
/// queue served by one worker. Every `try_submit` outcome is either an
/// accepted handle (which must resolve with a correct labeling) or a
/// typed `QueueFull` — and the final report's conservation must account
/// for every single attempt.
#[test]
fn queue_full_backpressure_never_loses_a_job() {
    const SUBMITTERS: usize = 4;
    const PER_THREAD: usize = 200;

    let normal = churn_grammar();
    let server = Arc::new(SelectorServer::new(ServerConfig {
        workers: 1,
        queue_cap: 4,
        ..ServerConfig::default()
    }));
    server
        .register_normal("churn", Arc::clone(&normal))
        .unwrap();

    let accepted = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..SUBMITTERS {
            let server = Arc::clone(&server);
            let normal = Arc::clone(&normal);
            let accepted = &accepted;
            let rejected = &rejected;
            let completed = &completed;
            scope.spawn(move || {
                let mut handles: Vec<(JobHandle, Forest)> = Vec::new();
                for i in 0..PER_THREAD {
                    let k = (t * PER_THREAD + i) as i64;
                    let forest = churn_forest(k);
                    match server.try_submit("churn", forest.clone()) {
                        Ok(handle) => {
                            accepted.fetch_add(1, Ordering::Relaxed);
                            handles.push((handle, forest));
                        }
                        Err(SubmitError::QueueFull { capacity }) => {
                            assert_eq!(capacity, 4);
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected rejection: {other}"),
                    }
                }
                // Every accepted job resolves, and resolves *correctly*.
                for (handle, forest) in handles {
                    let done = handle.wait();
                    let got = done.reduce().expect("accepted jobs label");
                    let want = dp_reduction(&forest, &normal);
                    assert_eq!(got.instructions, want.instructions);
                    assert_eq!(got.total_cost, want.total_cost);
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let accepted = accepted.load(Ordering::Relaxed);
    let rejected = rejected.load(Ordering::Relaxed);
    let completed = completed.load(Ordering::Relaxed);
    assert_eq!(
        accepted + rejected,
        (SUBMITTERS * PER_THREAD) as u64,
        "every try_submit outcome is typed"
    );
    assert_eq!(completed, accepted, "no accepted job may be lost");
    assert!(
        rejected > 0,
        "a 4-slot queue under 4 flooding submitters must exert backpressure"
    );

    let report = server.shutdown();
    assert_eq!(report.accepted, accepted);
    assert_eq!(report.rejected, rejected);
    assert_eq!(report.completed + report.deadline_missed, report.accepted);
    assert_eq!(report.deadline_missed, 0, "no deadlines were set");
    let churn = server.telemetry().target("churn");
    assert_eq!(churn.counts.snapshot().rejected, rejected);
    assert!(churn.maintenance.count() > 0, "quanta ran between jobs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Deadline expiry racing completion: jobs with tiny random
    /// deadlines race the worker. Whatever the interleaving, each
    /// outcome is either a bit-identical-to-DP labeling or a typed
    /// `DeadlineExceeded` — and the tallies conserve all of them.
    #[test]
    fn deadline_expiry_races_completion_without_losing_jobs(seed in 0u64..1_000_000) {
        // Derive the racing deadline from the seed: 0..400us spans
        // "always expired" through "usually labeled".
        let deadline_us = seed % 400;
        let normal = Arc::new(random_grammar(seed).normalize());
        let server = SelectorServer::new(ServerConfig {
            workers: 1,
            queue_cap: 64,
            ..ServerConfig::default()
        });
        server.register_normal("race", Arc::clone(&normal)).unwrap();

        let mut handles: Vec<(JobHandle, Forest)> = Vec::new();
        for salt in 0..6u64 {
            let mut sampler = TreeSampler::new(&normal, seed ^ (salt << 8));
            let forest = sampler.sample_forest(4);
            let handle = server
                .try_submit_with(
                    "race",
                    forest.clone(),
                    JobOptions {
                        deadline: Some(Duration::from_micros(deadline_us)),
                        ..JobOptions::default()
                    },
                )
                .expect("a 64-slot queue accepts 6 jobs");
            handles.push((handle, forest));
        }

        let mut labeled = 0u64;
        let mut expired = 0u64;
        for (handle, forest) in handles {
            let done = handle.wait();
            match &done.outcome {
                Ok(_) => {
                    labeled += 1;
                    let got = done.reduce().expect("labeled jobs reduce");
                    let want = dp_reduction(&forest, &normal);
                    prop_assert_eq!(
                        &got.instructions, &want.instructions,
                        "seed {}: racing deadline corrupted a labeling", seed
                    );
                    prop_assert_eq!(got.total_cost, want.total_cost);
                }
                Err(JobError::DeadlineExceeded { .. }) => {
                    expired += 1;
                    prop_assert!(done.latency.is_zero(), "expired jobs are never labeled");
                }
                Err(e @ (JobError::Label(_) | JobError::Panicked { .. })) => {
                    return Err(TestCaseError::fail(format!("sampled trees must label: {e}")));
                }
            }
        }
        let report = server.shutdown();
        prop_assert_eq!(report.accepted, 6);
        prop_assert_eq!(report.completed, labeled);
        prop_assert_eq!(report.deadline_missed, expired);
        prop_assert_eq!(labeled + expired, 6, "conservation across the race");
        let race = server.telemetry().target(&report.per_target[0].target);
        prop_assert_eq!(race.counts.snapshot().deadline_missed, expired);
    }
}

/// Graceful shutdown with pinned labelings straddling compactions: a
/// compacting budget churns the target's tables while completed jobs
/// are *held* across epochs and across `shutdown()` itself. Every held
/// pin must keep reducing bit-identically to the oracle no matter how
/// many compactions replaced the tables underneath it.
#[test]
fn shutdown_with_pins_straddling_compaction_is_bit_identical() {
    let normal = churn_grammar();
    let server = SelectorServer::new(ServerConfig {
        workers: 2,
        queue_cap: 512,
        memory_budget: Some(MemoryBudget::compact(10 * 1024, 0.5)),
        ..ServerConfig::default()
    });
    server
        .register_normal("churn", Arc::clone(&normal))
        .unwrap();

    // Enough distinct constants to trip the 10 KiB budget repeatedly.
    let mut held: Vec<(odburg::service::CompletedJob, Reduction)> = Vec::new();
    let mut handles: Vec<(JobHandle, Forest)> = Vec::new();
    for k in 0..160 {
        let forest = churn_forest(k * 7);
        let handle = server
            .try_submit("churn", forest.clone())
            .expect("roomy queue");
        handles.push((handle, forest));
    }
    for (handle, forest) in handles {
        let done = handle.wait();
        let want = dp_reduction(&forest, &normal);
        let got = done.reduce().expect("churn jobs label");
        assert_eq!(got.instructions, want.instructions);
        assert_eq!(got.total_cost, want.total_cost);
        if held.len() < 12 {
            // Keep early pins alive across all later compactions.
            held.push((done, want));
        }
    }

    // The budget must actually have tripped (otherwise this test pins
    // nothing across anything).
    let master = server.shared("churn").unwrap();
    let counters = master.counters();
    assert!(counters.compactions > 0, "churn must compact: {counters}");
    assert!(server.telemetry().target("churn").maintenance.count() > 0);
    assert!(
        master.accounted_bytes().total() <= 10 * 1024,
        "maintenance quanta keep the budget"
    );

    // Shutdown while the pins are still alive…
    let report = server.shutdown();
    assert_eq!(report.completed, 160);
    assert_eq!(report.completed + report.deadline_missed, report.accepted);
    assert!(report.per_target[0].pressure.is_some(), "pressure recorded");

    // …and the pinned labelings still reduce identically afterwards:
    // their snapshots outlive the server, the compactions, everything.
    for (done, want) in &held {
        let again = done.reduce().expect("pins survive shutdown");
        assert_eq!(&again.instructions, &want.instructions);
        assert_eq!(again.total_cost, want.total_cost);
    }
}

/// Governed persistence at the API level: `shutdown()` re-exports each
/// built master's tables into the tables directory, and a fresh server
/// warm-starts from them, answering the seen traffic with zero misses.
#[test]
fn shutdown_reexports_tables_and_heat_survives_restart() {
    let dir = std::env::temp_dir().join("odburg-server-reexport");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let traffic: Vec<Forest> = (0..8).map(|k| churn_forest(k * 3)).collect();

    // First life: cold, learns the traffic, exports at shutdown.
    let server = SelectorServer::new(ServerConfig {
        workers: 1,
        tables_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    server.register_normal("churn", churn_grammar()).unwrap();
    let handles: Vec<JobHandle> = traffic
        .iter()
        .map(|f| server.try_submit("churn", f.clone()).unwrap())
        .collect();
    for h in handles {
        assert!(h.wait().outcome.is_ok());
    }
    let report = server.shutdown();
    assert_eq!(report.exported_tables, vec!["churn".to_owned()]);
    assert!(
        report.export_errors.is_empty(),
        "{:?}",
        report.export_errors
    );
    assert!(dir.join("churn.odbt").exists());

    // Second life: warm-starts from the export; the same traffic never
    // enters the grow path.
    let server = SelectorServer::new(ServerConfig {
        workers: 1,
        tables_dir: Some(dir),
        ..ServerConfig::default()
    });
    server.register_normal("churn", churn_grammar()).unwrap();
    let handles: Vec<JobHandle> = traffic
        .iter()
        .map(|f| server.try_submit("churn", f.clone()).unwrap())
        .collect();
    for h in handles {
        assert!(h.wait().outcome.is_ok());
    }
    let report = server.shutdown();
    let churn = &report.per_target[0];
    assert!(churn.warm_started, "second life must be warm");
    assert_eq!(churn.counters.memo_misses, 0, "{}", churn.counters);
    assert_eq!(churn.counters.states_built, 0);
}

// ---------------------------------------------------------------------
// Scheduler coverage: EDF ordering, admission purging, fair queueing.
// The deterministic wedge: a grammar whose dynamic cost blocks on a
// gate, so one plug job pins the single worker while the test arranges
// the queue — pop order is then exactly the scheduler's order.
// ---------------------------------------------------------------------

/// A reusable two-phase gate: the worker announces it has *entered* the
/// dyncost closure (the wedge is in place), the test *opens* it.
#[derive(Default)]
struct Gate {
    /// (open, entered)
    state: Mutex<(bool, bool)>,
    cond: Condvar,
}

impl Gate {
    fn enter_and_wait(&self) {
        let mut st = self.state.lock().unwrap();
        st.1 = true;
        self.cond.notify_all();
        while !st.0 {
            st = self.cond.wait(st).unwrap();
        }
    }

    fn open(&self) {
        let mut st = self.state.lock().unwrap();
        st.0 = true;
        self.cond.notify_all();
    }

    fn wait_entered(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.1 {
            st = self.cond.wait(st).unwrap();
        }
    }
}

/// A grammar whose dyncost wedges on `gate` — labeling its plug forest
/// parks the worker until the test opens the gate.
fn gated_grammar(gate: Arc<Gate>) -> Arc<NormalGrammar> {
    let mut g = odburg::grammar::parse_grammar(
        r#"
        %grammar wedge
        %start stmt
        %dyncost gate
        reg: ConstI8 [gate]
        stmt: StoreI8(reg, reg) (1)
        "#,
    )
    .unwrap();
    g.bind_dyncost(
        "gate",
        Arc::new(move |_: &Forest, _: odburg::ir::NodeId| {
            gate.enter_and_wait();
            RuleCost::Finite(1)
        }),
    )
    .unwrap();
    Arc::new(g.normalize())
}

/// A grammar whose dyncost appends `(tag, value)` to a shared log.
/// Distinct constants mint distinct signatures, so every job's labeling
/// evaluates the closure for its own constant — with a single worker,
/// the deduplicated log is the scheduler's pop order.
fn recording_grammar(
    name: &str,
    tag: &'static str,
    log: Arc<Mutex<Vec<(&'static str, i64)>>>,
) -> Arc<NormalGrammar> {
    let mut g = odburg::grammar::parse_grammar(&format!(
        "%grammar {name}\n%start stmt\n%dyncost rec\n\
         reg: ConstI8 [rec]\nstmt: StoreI8(reg, reg) (1)\n"
    ))
    .unwrap();
    g.bind_dyncost(
        "rec",
        Arc::new(move |forest: &Forest, node: odburg::ir::NodeId| {
            let v = forest.node(node).payload().as_int().unwrap_or(0);
            log.lock().unwrap().push((tag, v));
            RuleCost::Finite(1)
        }),
    )
    .unwrap();
    Arc::new(g.normalize())
}

fn plug_forest() -> Forest {
    let mut f = Forest::new();
    let root = odburg::ir::parse_sexpr(&mut f, "(StoreI8 (ConstI8 0) (ConstI8 1))").unwrap();
    f.add_root(root);
    f
}

/// `(StoreI8 (ConstI8 k) (ConstI8 k))` — one distinct constant per job.
fn tagged_forest(k: i64) -> Forest {
    let mut f = Forest::new();
    let root =
        odburg::ir::parse_sexpr(&mut f, &format!("(StoreI8 (ConstI8 {k}) (ConstI8 {k}))")).unwrap();
    f.add_root(root);
    f
}

/// First occurrence of each logged value, in log order.
fn dedup_log(log: &[(&'static str, i64)]) -> Vec<(&'static str, i64)> {
    let mut seen = std::collections::HashSet::new();
    log.iter().filter(|e| seen.insert(**e)).copied().collect()
}

/// Regression (the queue-slots bug): a bounded queue full of
/// already-expired jobs must not reject fresh feasible submits. The
/// capacity check first purges dead work — completing it as
/// `DeadlineExceeded` — so the new job is accepted; before the fix this
/// was a spurious `QueueFull`.
#[test]
fn expired_queued_jobs_do_not_hold_queue_slots() {
    let gate = Arc::new(Gate::default());
    let server = SelectorServer::new(ServerConfig {
        workers: 1,
        queue_cap: 4,
        ..ServerConfig::default()
    });
    server
        .register_normal("wedge", gated_grammar(Arc::clone(&gate)))
        .unwrap();
    server.register_normal("churn", churn_grammar()).unwrap();

    // Wedge the single worker, then fill every bounded slot with jobs
    // that are already dead on arrival.
    let plug = server.try_submit("wedge", plug_forest()).unwrap();
    gate.wait_entered();
    let dead: Vec<JobHandle> = (0..4)
        .map(|k| {
            server
                .try_submit_with(
                    "churn",
                    churn_forest(k),
                    JobOptions {
                        deadline: Some(Duration::ZERO),
                        ..JobOptions::default()
                    },
                )
                .expect("zero-deadline jobs are accepted, then expire")
        })
        .collect();
    assert_eq!(server.queue_depth(), 4, "queue is nominally full");

    // The fresh submit purges the dead work instead of bouncing off it.
    let live = server
        .try_submit("churn", churn_forest(99))
        .expect("a queue full of expired jobs must not reject live work");

    // The purged jobs were completed as deadline-missed at admission —
    // their handles resolve *before* the worker is even unwedged.
    for handle in dead {
        let done = handle.wait();
        assert!(
            matches!(done.outcome, Err(JobError::DeadlineExceeded { .. })),
            "purged jobs expire, not label"
        );
        assert!(done.latency.is_zero(), "expired jobs are never labeled");
    }

    gate.open();
    assert!(plug.wait().outcome.is_ok());
    assert!(live.wait().outcome.is_ok());

    let report = server.shutdown();
    assert_eq!(report.accepted, 6);
    assert_eq!(report.completed, 2);
    assert_eq!(report.deadline_missed, 4);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.shed, 0);
    assert_eq!(report.completed + report.deadline_missed, report.accepted);
    assert_eq!(
        report.submitted,
        report.accepted + report.rejected + report.shed
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// EDF ordering under the wedge: with the worker pinned, jobs with
    /// random distinct deadlines (plus a no-deadline tail) are queued,
    /// and the recorded labeling order must be exactly
    /// deadline-sorted with the no-deadline jobs last in arrival order.
    /// The aggregate EDF-optimality check rides along: serving the same
    /// deadline multiset in EDF order can never miss more unit-time
    /// jobs than arrival order does.
    #[test]
    fn edf_orders_by_deadline_and_never_misses_more_than_fifo(seed in 0u64..1_000_000) {
        const JOBS: u64 = 8;

        // A seed-derived permutation of 1..=JOBS as relative ranks.
        let mut ranks: Vec<u64> = (1..=JOBS).collect();
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for i in (1..ranks.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ranks.swap(i, (s >> 33) as usize % (i + 1));
        }

        // Aggregate optimality on the abstract schedule (unit service
        // time, deadline = rank time units): EDF misses <= FIFO misses.
        let fifo_misses = ranks.iter().enumerate()
            .filter(|(i, r)| (*i as u64 + 1) > **r).count();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        let edf_misses = sorted.iter().enumerate()
            .filter(|(i, r)| (*i as u64 + 1) > **r).count();
        prop_assert!(edf_misses <= fifo_misses,
            "EDF missed {edf_misses} > FIFO {fifo_misses} for ranks {ranks:?}");

        // The real scheduler: deadlines far enough out that nothing
        // expires, spaced by rank so the sort order is unambiguous.
        let gate = Arc::new(Gate::default());
        let log = Arc::new(Mutex::new(Vec::new()));
        let server = SelectorServer::new(ServerConfig {
            workers: 1,
            queue_cap: 64,
            sched: SchedPolicy::Edf,
            ..ServerConfig::default()
        });
        server.register_normal("wedge", gated_grammar(Arc::clone(&gate))).unwrap();
        server
            .register_normal("rec", recording_grammar("rec", "rec", Arc::clone(&log)))
            .unwrap();

        let plug = server.try_submit("wedge", plug_forest()).unwrap();
        gate.wait_entered();

        let mut handles = Vec::new();
        for (i, rank) in ranks.iter().enumerate() {
            let handle = server.try_submit_with(
                "rec",
                tagged_forest(i as i64),
                JobOptions {
                    deadline: Some(Duration::from_secs(600 + rank * 60)),
                    ..JobOptions::default()
                },
            ).unwrap();
            handles.push(handle);
        }
        // Two no-deadline stragglers: they must pop last, arrival order.
        for k in [100i64, 101] {
            handles.push(server.try_submit("rec", tagged_forest(k)).unwrap());
        }

        gate.open();
        for handle in handles {
            prop_assert!(handle.wait().outcome.is_ok());
        }
        let _ = plug.wait();

        let order: Vec<i64> = dedup_log(&log.lock().unwrap())
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        let mut want: Vec<i64> = (0..JOBS as usize)
            .map(|i| i as i64)
            .collect();
        want.sort_by_key(|&i| ranks[i as usize]);
        want.extend([100, 101]);
        prop_assert_eq!(order, want, "seed {}: ranks {:?}", seed, ranks);
        server.shutdown();
    }
}

/// Per-target fair queueing bounds a cold target's wait under a
/// hot-target flood: with deficit round-robin (weight 1 each), the
/// cold jobs interleave one-per-round instead of waiting out all
/// twenty hot jobs.
#[test]
fn fair_queueing_bounds_cold_target_wait_under_hot_flood() {
    let gate = Arc::new(Gate::default());
    let log = Arc::new(Mutex::new(Vec::new()));
    let server = SelectorServer::new(ServerConfig {
        workers: 1,
        queue_cap: 64,
        fair: Some(FairConfig::default()),
        ..ServerConfig::default()
    });
    server
        .register_normal("wedge", gated_grammar(Arc::clone(&gate)))
        .unwrap();
    server
        .register_normal("hot", recording_grammar("hot", "hot", Arc::clone(&log)))
        .unwrap();
    server
        .register_normal("cold", recording_grammar("cold", "cold", Arc::clone(&log)))
        .unwrap();

    let plug = server.try_submit("wedge", plug_forest()).unwrap();
    gate.wait_entered();

    let mut handles = Vec::new();
    for k in 0..20 {
        handles.push(server.try_submit("hot", tagged_forest(k)).unwrap());
    }
    for k in 0..3 {
        handles.push(server.try_submit("cold", tagged_forest(100 + k)).unwrap());
    }

    gate.open();
    for handle in handles {
        assert!(handle.wait().outcome.is_ok());
    }
    let _ = plug.wait();

    let order = dedup_log(&log.lock().unwrap());
    assert_eq!(order.len(), 23);
    // DRR with equal weights alternates hot/cold while both have work:
    // the i-th cold job (i from 1) pops within the first 2*i jobs —
    // without fair queueing it would sit behind all twenty hot jobs.
    for (i, pos) in order
        .iter()
        .enumerate()
        .filter(|(_, (tag, _))| *tag == "cold")
        .map(|(pos, _)| pos)
        .enumerate()
    {
        let nth = i + 1;
        assert!(
            pos < 2 * nth,
            "cold job #{nth} popped at position {} (order: {order:?})",
            pos + 1
        );
    }
    let report = server.shutdown();
    assert_eq!(report.completed, 24);
}
