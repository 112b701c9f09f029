//! Stress tests for the snapshot-based concurrent labeling core: many
//! threads hammer one [`SharedOnDemand`] with random grammar-sampled
//! forests, and every labeling must be bit-identical (state contents,
//! per-nonterminal costs, chosen rules) to what the single-threaded
//! [`OnDemandAutomaton`] computes for the same forest.

use std::sync::Arc;

use odburg::prelude::*;
use odburg::workloads::TreeSampler;

/// Per-nonterminal `(normalized cost, chosen rule)` pairs of one node.
type DecisionRecord = Vec<(u32, Option<u32>)>;
/// One record per node of one forest.
type ForestRecords = Vec<DecisionRecord>;

/// The full per-node decision record: for every nonterminal the
/// normalized cost and the chosen rule. Two labelings that agree on this
/// are bit-identical for every consumer (reducer included).
fn record(data: &odburg::select::StateData, num_nts: usize) -> DecisionRecord {
    (0..num_nts)
        .map(|i| {
            let nt = odburg::grammar::NtId(i as u16);
            (data.cost(nt).raw(), data.rule(nt).map(|r| r.0))
        })
        .collect()
}

fn stress_target(target: &str, threads: usize, forests_per_thread: usize) {
    let grammar = odburg::targets::by_name(target).unwrap();
    let normal = Arc::new(grammar.normalize());
    let num_nts = normal.num_nts();

    // Pre-sample every thread's forests deterministically so the
    // single-threaded reference can replay them.
    let all_forests: Vec<Vec<Forest>> = (0..threads)
        .map(|t| {
            let mut sampler = TreeSampler::new(&normal, 0xC0FFEE ^ (t as u64) << 8);
            (0..forests_per_thread)
                .map(|_| sampler.sample_forest(6))
                .collect()
        })
        .collect();

    let shared = Arc::new(SharedOnDemand::new(OnDemandAutomaton::new(normal.clone())));

    // Concurrent run: collect each forest's full decision records.
    let concurrent: Vec<Vec<ForestRecords>> = std::thread::scope(|scope| {
        let handles: Vec<_> = all_forests
            .iter()
            .map(|forests| {
                let shared = Arc::clone(&shared);
                scope.spawn(move || {
                    forests
                        .iter()
                        .map(|forest| {
                            let pinned = shared.label_forest_pinned(forest).unwrap();
                            forest
                                .iter()
                                .map(|(id, _)| record(pinned.state_data(id), num_nts))
                                .collect::<Vec<_>>()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Single-threaded reference run over the same forests.
    let mut reference = OnDemandAutomaton::new(normal.clone());
    for (t, forests) in all_forests.iter().enumerate() {
        for (i, forest) in forests.iter().enumerate() {
            let labeling = reference.label_forest(forest).unwrap();
            for (id, _) in forest.iter() {
                let expect = record(reference.state(labeling.state_of(id)), num_nts);
                assert_eq!(
                    concurrent[t][i][id.index()],
                    expect,
                    "{target}: thread {t} forest {i} node {id} diverged from \
                     the single-threaded automaton"
                );
            }
        }
    }

    // The shared automaton converged to the same machine: identical
    // state/transition counts as the reference that saw every forest.
    let shared_stats = shared.stats();
    let ref_stats = reference.stats();
    assert_eq!(
        shared_stats.states, ref_stats.states,
        "{target}: state count"
    );
    assert_eq!(
        shared_stats.signatures, ref_stats.signatures,
        "{target}: signature count"
    );
}

#[test]
fn snapshot_path_matches_single_threaded_on_x86ish() {
    stress_target("x86ish", 8, 12);
}

#[test]
fn snapshot_path_matches_single_threaded_on_riscish() {
    stress_target("riscish", 4, 16);
}

#[test]
fn snapshot_path_matches_single_threaded_on_jvmish() {
    stress_target("jvmish", 8, 8);
}

#[test]
fn warm_shared_path_takes_no_writer_trips() {
    // After a full warmup pass, relabeling the same forests must answer
    // everything from the published snapshot: no new publications, all
    // memo hits.
    let grammar = odburg::targets::x86ish();
    let normal = Arc::new(grammar.normalize());
    let mut sampler = TreeSampler::new(&normal, 0xAB);
    let forests: Vec<Forest> = (0..10).map(|_| sampler.sample_forest(5)).collect();

    let shared = Arc::new(SharedOnDemand::new(OnDemandAutomaton::new(normal)));
    for f in &forests {
        shared.label_forest(f).unwrap();
    }
    let published = shared.snapshots_published();

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let shared = Arc::clone(&shared);
            let forests = &forests;
            scope.spawn(move || {
                for f in forests {
                    shared.label_forest(f).unwrap();
                }
            });
        }
    });
    assert_eq!(
        shared.snapshots_published(),
        published,
        "warm relabeling must not publish (i.e. must not take the writer lock)"
    );
}

#[test]
fn concurrent_flushes_stay_correct() {
    // Tiny budget + Flush policy + concurrent threads: epochs advance
    // under the readers' feet, and every labeling must still reduce to
    // the dp-optimal cost.
    let grammar = odburg::targets::jvmish();
    let normal = Arc::new(grammar.normalize());
    let mut sampler = TreeSampler::new(&normal, 0xF1);
    let forests: Vec<Forest> = (0..12).map(|_| sampler.sample_forest(4)).collect();

    // Reference costs from dp.
    let mut dp = DpLabeler::new(normal.clone());
    let expected: Vec<Cost> = forests
        .iter()
        .map(|f| {
            let l = dp.label_forest(f).unwrap();
            odburg::codegen::reduce_forest(f, &normal, &l)
                .unwrap()
                .total_cost
        })
        .collect();

    let auto = OnDemandAutomaton::with_config(
        normal.clone(),
        OnDemandConfig {
            // Between the largest single forest (34 states) and the
            // whole workload (46): each forest survives its own relabel,
            // but the set keeps forcing flushes.
            state_budget: 36,
            budget_policy: BudgetPolicy::Flush,
            ..OnDemandConfig::default()
        },
    );
    let shared = Arc::new(SharedOnDemand::new(auto));

    std::thread::scope(|scope| {
        for _ in 0..6 {
            let shared = Arc::clone(&shared);
            let normal = Arc::clone(&normal);
            let forests = &forests;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..3 {
                    for (i, f) in forests.iter().enumerate() {
                        let pinned = shared.label_forest_pinned(f).unwrap();
                        let cost = odburg::codegen::reduce_forest(f, &normal, &pinned.chooser())
                            .unwrap()
                            .total_cost;
                        assert_eq!(
                            cost, expected[i],
                            "round {round} forest {i}: flush broke optimality"
                        );
                    }
                }
            });
        }
    });
    assert!(
        shared.stats().flushes > 0,
        "the tiny budget must actually force flushes"
    );
}

#[test]
fn registry_churn_keeps_retired_snapshots_bounded() {
    // The hazard-pointer `arc_swap` shim under service-shaped registry
    // churn: client threads keep submitting batches to a SelectorServer
    // and waiting on them, while its master re-publishes a snapshot on nearly
    // every job (a value-dependent dynamic cost interns a fresh
    // signature per distinct constant), while a dedicated writer thread
    // churns the same master directly. Throughout:
    //
    // * no labeling may observe a torn snapshot — every finished job must
    //   reduce to exactly the DpLabeler-optimal cost, and
    // * `snapshots_retained()` must stay bounded by what can still be
    //   referenced (live pins + readers mid-forest), never grow with the
    //   publication count.
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let mut grammar = odburg::grammar::parse_grammar(
        r#"
        %start stmt
        %dyncost val
        reg: ConstI8 [val]
        reg: AddI8(reg, reg) (1)
        stmt: StoreI8(reg, reg) (1)
        "#,
    )
    .unwrap();
    // The residue space is wide enough that the constant ranges below
    // (drainers < 32_000, writer < 45_000, final probe above both) map
    // to *disjoint* cost residues — so the final probe is guaranteed to
    // intern a fresh signature, publish, and prune.
    grammar
        .bind_dyncost(
            "val",
            Arc::new(|forest: &Forest, node| {
                let v = forest.node(node).payload().as_int().unwrap_or(0);
                RuleCost::Finite((v.unsigned_abs() % 50_000) as u16)
            }),
        )
        .unwrap();
    let normal = Arc::new(grammar.normalize());

    const DRAIN_THREADS: i64 = 4;
    const ROUNDS: i64 = 12;
    const JOBS_PER_ROUND: i64 = 4;
    let server = SelectorServer::new(ServerConfig {
        workers: 2,
        queue_cap: (DRAIN_THREADS * JOBS_PER_ROUND) as usize,
        ..ServerConfig::default()
    });
    server
        .register_normal("churn", Arc::clone(&normal))
        .unwrap();
    let shared = server.shared("churn").unwrap();

    let forest_for = |k: i64| {
        let mut f = Forest::new();
        let root = odburg::ir::parse_sexpr(
            &mut f,
            &format!(
                "(StoreI8 (ConstI8 {k}) (AddI8 (ConstI8 {}) (ConstI8 1)))",
                k + 1
            ),
        )
        .unwrap();
        f.add_root(root);
        f
    };
    // The optimal cost is value-dependent; oracle it per constant.
    let dp_cost = |f: &Forest| {
        let mut dp = DpLabeler::new(Arc::clone(&normal));
        let l = dp.label_forest(f).unwrap();
        odburg::codegen::reduce_forest(f, &normal, &l)
            .unwrap()
            .total_cost
    };

    let max_retained = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // The writer: churns the master directly, re-publishing
        // snapshots underneath the draining batches, and samples the
        // retire-list length while doing so.
        {
            let shared = Arc::clone(&shared);
            let stop = &stop;
            let max_retained = &max_retained;
            scope.spawn(move || {
                let mut k = 32_000;
                while !stop.load(Ordering::Relaxed) && k < 45_000 {
                    shared.label_forest(&forest_for(k)).unwrap();
                    k += 1;
                    max_retained.fetch_max(shared.snapshots_retained(), Ordering::Relaxed);
                }
            });
        }
        let handles: Vec<_> = (0..DRAIN_THREADS)
            .map(|t| {
                let server = &server;
                let dp_cost = &dp_cost;
                let forest_for = &forest_for;
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        let handles: Vec<JobHandle> = (0..JOBS_PER_ROUND)
                            .map(|j| {
                                // Distinct constants per (thread, round, job):
                                // almost every job takes the grow path.
                                let k = t * 10_000 + round * 100 + j;
                                server.try_submit("churn", forest_for(k)).unwrap()
                            })
                            .collect();
                        // Concurrent batches share the worker pool; every
                        // job this thread gets back must be untorn.
                        for handle in handles {
                            let result = handle.wait();
                            let red = result.reduce().unwrap_or_else(|e| {
                                panic!("thread {t} round {round}: torn labeling: {e}")
                            });
                            assert_eq!(
                                red.total_cost,
                                dp_cost(&result.forest),
                                "thread {t} round {round}: labeling disagrees with dp"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });

    let published = shared.snapshots_published();
    assert!(
        published >= (DRAIN_THREADS * ROUNDS) as usize,
        "churn workload must actually publish (got {published})"
    );
    // Bounded while under load: at most one pinned snapshot per
    // in-flight job (each round pins JOBS_PER_ROUND * DRAIN_THREADS at
    // worst) plus a guard per thread — far below the publication count.
    let bound = (DRAIN_THREADS * JOBS_PER_ROUND * DRAIN_THREADS + DRAIN_THREADS + 2) as usize;
    let observed = max_retained
        .load(Ordering::Relaxed)
        .max(shared.snapshots_retained());
    assert!(
        observed <= bound,
        "retire list grew with publications: {observed} retained (bound {bound}, {published} published)"
    );
    // Quiescent: with every pin dropped, the next publication reclaims
    // all but what a reader could still hold. The probe constant's cost
    // residue is outside every range used above, so this labeling is
    // guaranteed to intern a new signature and publish (i.e. prune).
    let published_before_probe = shared.snapshots_published();
    shared.label_forest(&forest_for(45_001)).unwrap();
    assert!(
        shared.snapshots_published() > published_before_probe,
        "probe must publish"
    );
    assert!(
        shared.snapshots_retained() <= 1,
        "quiescent retire list must collapse, got {}",
        shared.snapshots_retained()
    );
}
