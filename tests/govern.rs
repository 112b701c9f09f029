//! Memory-governor integration tests: compaction must be invisible to
//! selection quality. Labelings taken before, across and after
//! compaction epochs — including pinned labelings that straddle a
//! compaction — must reduce to instruction sequences bit-identical to a
//! fresh `DpLabeler` oracle, while the accounted table bytes stay under
//! the budget.

mod common;

use std::sync::Arc;

use odburg::prelude::*;

use common::run_all;

/// A grammar where every distinct constant mints a distinct signature
/// *and* a distinct normalized state (the imm/reg spread is the value),
/// so churny traffic grows all table components without bound.
fn churn_grammar() -> Arc<NormalGrammar> {
    let mut g = parse_grammar(
        r#"
        %grammar govchurn
        %start stmt
        %dyncost val
        imm: ConstI8 (0)
        reg: ConstI8 [val]
        reg: AddI8(reg, imm) (1)
        reg: AddI8(reg, reg) (1)
        stmt: StoreI8(reg, reg) (1)
        "#,
    )
    .unwrap();
    g.bind_dyncost(
        "val",
        Arc::new(|forest: &Forest, node| {
            let v = forest.node(node).payload().as_int().unwrap_or(0);
            RuleCost::Finite((v.unsigned_abs() % 257) as u16)
        }),
    )
    .unwrap();
    Arc::new(g.normalize())
}

fn churn_forest(k: u64) -> Forest {
    let mut f = Forest::new();
    let root = parse_sexpr(
        &mut f,
        &format!(
            "(StoreI8 (AddI8 (ConstI8 {k}) (ConstI8 {})) (AddI8 (ConstI8 {}) (ConstI8 {k})))",
            k + 1,
            k % 4, // a hot leaf in every forest
        ),
    )
    .unwrap();
    f.add_root(root);
    f
}

fn oracle_reduction(normal: &Arc<NormalGrammar>, forest: &Forest) -> Reduction {
    let mut dp = DpLabeler::new(Arc::clone(normal));
    let labeling = dp.label_forest(forest).unwrap();
    reduce_forest(forest, normal, &labeling).unwrap()
}

#[test]
fn compaction_epoch_labelings_are_bit_identical_to_dp() {
    let normal = churn_grammar();
    let byte_budget = 10 * 1024;
    let auto = OnDemandAutomaton::with_config(
        Arc::clone(&normal),
        OnDemandConfig {
            budget_policy: BudgetPolicy::Compact {
                byte_budget,
                retain_fraction: 0.5,
            },
            ..OnDemandConfig::default()
        },
    );
    let shared = SharedOnDemand::new(auto);

    // Pins taken along the way, each with the oracle's answer at the
    // time; they must still resolve identically after later compactions.
    let mut straddlers: Vec<(Forest, PinnedLabeling, Reduction)> = Vec::new();
    for k in 0..120 {
        let forest = churn_forest(k * 10);
        let pinned = shared.label_forest_pinned(&forest).unwrap();
        let expected = oracle_reduction(&normal, &forest);

        // Bit-identical now: full instruction sequence and total cost.
        let got = reduce_forest(&forest, pinned.snapshot().grammar(), &pinned.chooser()).unwrap();
        assert_eq!(got.instructions, expected.instructions, "forest {k}");
        assert_eq!(got.total_cost, expected.total_cost, "forest {k}");

        // The writer-side compaction keeps the accounted bytes bounded
        // at every observation point.
        assert!(
            shared.accounted_bytes().total() <= byte_budget,
            "bytes exceeded the budget after forest {k}"
        );
        // Pin only in the first half, so every pin has compactions
        // happening after it (the second half's churn guarantees that).
        if k % 17 == 0 && k < 60 {
            straddlers.push((forest, pinned, expected));
        }
    }
    let counters = shared.counters();
    assert!(
        counters.compactions > 0,
        "the churn must actually compact: {counters}"
    );
    assert!(counters.states_evicted > 0);

    // Every straddling pin still reduces bit-identically against its
    // own (retired) epoch's tables, however many compactions happened
    // since it was taken.
    for (i, (forest, pinned, expected)) in straddlers.iter().enumerate() {
        let got = reduce_forest(forest, pinned.snapshot().grammar(), &pinned.chooser()).unwrap();
        assert_eq!(got.instructions, expected.instructions, "straddler {i}");
        assert_eq!(got.total_cost, expected.total_cost, "straddler {i}");
        assert!(
            pinned.snapshot().epoch() < shared.snapshot().epoch(),
            "straddler {i} must actually span a compaction epoch"
        );
    }
}

#[test]
fn single_threaded_compact_policy_is_bit_identical_to_dp() {
    let normal = churn_grammar();
    let byte_budget = 8 * 1024;
    let mut auto = OnDemandAutomaton::with_config(
        Arc::clone(&normal),
        OnDemandConfig {
            budget_policy: BudgetPolicy::Compact {
                byte_budget,
                retain_fraction: 0.5,
            },
            ..OnDemandConfig::default()
        },
    );
    for k in 0..150 {
        let forest = churn_forest(k * 7);
        let labeling = auto.label_forest(&forest).unwrap();
        let got = reduce_forest(&forest, &normal, &labeling.chooser(&auto)).unwrap();
        let expected = oracle_reduction(&normal, &forest);
        assert_eq!(got.instructions, expected.instructions, "forest {k}");
        assert_eq!(got.total_cost, expected.total_cost, "forest {k}");
        assert!(
            auto.accounted_bytes().total() <= byte_budget,
            "bytes exceeded the budget after forest {k}"
        );
    }
    assert!(auto.stats().compactions > 0, "the churn must compact");
}

#[test]
fn service_budget_enforcement_is_bit_identical_to_dp() {
    // Both pressure actions, through the whole server stack: every job
    // of every batch — batches before, at and after enforcement — must
    // reduce exactly like the oracle.
    let normal = churn_grammar();
    for budget in [
        MemoryBudget::compact(10 * 1024, 0.5),
        MemoryBudget::flush(10 * 1024),
    ] {
        let server = SelectorServer::new(ServerConfig {
            workers: 2,
            memory_budget: Some(budget),
            ..ServerConfig::default()
        });
        server
            .register_normal("churn", Arc::clone(&normal))
            .unwrap();
        let master = server.shared("churn").unwrap();
        let mut held: Vec<(CompletedJob, Reduction)> = Vec::new();
        for round in 0..30 {
            let done = run_all(
                &server,
                (0..8u64).map(|i| ("churn", churn_forest(round * 80 + i * 9))),
            );
            assert!(done.iter().all(|job| job.outcome.is_ok()), "round {round}");
            assert!(
                master.accounted_bytes().total() <= 10 * 1024,
                "round {round}"
            );
            for job in done {
                let expected = oracle_reduction(&normal, &job.forest);
                let got = job.reduce().unwrap();
                assert_eq!(got.instructions, expected.instructions);
                assert_eq!(got.total_cost, expected.total_cost);
                if held.len() < 6 {
                    held.push((job, expected));
                }
            }
        }
        let pressured = server.shutdown().per_target[0].pressure.is_some();
        assert!(pressured, "{budget:?} never tripped");
        // Early jobs, pinned to long-retired epochs, still agree.
        for (job, expected) in &held {
            let got = job.reduce().unwrap();
            assert_eq!(got.instructions, expected.instructions);
            assert_eq!(got.total_cost, expected.total_cost);
        }
    }
}
