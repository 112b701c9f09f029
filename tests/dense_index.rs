//! Differential properties of a published snapshot's dense warm-path
//! index against the master automaton's `FxHashMap` tables it is built
//! from.
//!
//! The dense index (per-operator open-addressed transition slots, flat
//! projection table, signature probe — see `odburg_core::dense`) is the
//! only table a snapshot keeps, and a *pure projection* of the master's
//! hash tables at publication: every memoized key must resolve to the
//! same state through both structures, every unseen key must miss
//! through both, and the dense warm walk must agree node for node with
//! a hash walk over the master's probes (`common::hash_walk`). These
//! properties are checked over random grammars and random forests, in
//! both child-projection modes, and — because compaction rebuilds the
//! index from remapped state ids — across a `BudgetPolicy::Compact`
//! epoch change. Every master mutation publishes, so the snapshot read
//! after labeling always mirrors the master's current tables.

mod common;

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use odburg::prelude::*;
use odburg::workloads::TreeSampler;

use common::{hash_walk, random_grammar};

/// Labels `trees` sampled forests through a fresh shared automaton so
/// its snapshot memoizes a realistic mix of transitions, projections
/// and signatures.
fn warmed(
    seed: u64,
    project_children: bool,
    trees: usize,
) -> (Arc<NormalGrammar>, Vec<Forest>, SharedOnDemand) {
    let normal = Arc::new(random_grammar(seed).normalize());
    let shared = SharedOnDemand::new(OnDemandAutomaton::with_config(
        Arc::clone(&normal),
        OnDemandConfig {
            project_children,
            ..OnDemandConfig::default()
        },
    ));
    let mut sampler = TreeSampler::new(&normal, seed ^ 0xD15E);
    let forests: Vec<Forest> = (0..trees).map(|_| sampler.sample_forest(6)).collect();
    for forest in &forests {
        shared.label_forest(forest).expect("sampled forests label");
    }
    (normal, forests, shared)
}

/// Every memoized transition and projection of the master resolves
/// identically through the snapshot's dense index and the master's hash
/// tables, the index holds no entry beyond them, and single-component
/// mutations of every memoized key (a near-collision stress for the
/// open-addressed probe) miss or hit identically.
fn assert_index_agrees(snap: &AutomatonSnapshot, master: &OnDemandAutomaton) {
    let transitions = master.raw_transitions();
    assert!(!transitions.is_empty(), "warmed master has transitions");
    let projections = master.raw_projections();
    let stats = snap.stats();
    assert_eq!(
        stats.transitions,
        transitions.len(),
        "index transition count"
    );
    assert_eq!(stats.cached_projections, projections.len());
    for t in &transitions {
        assert_eq!(
            snap.lookup_raw_dense(t.op, t.kids, t.sig),
            Some(t.state),
            "memoized key missed the dense probe"
        );
        assert_eq!(master.lookup_raw(t.op, t.kids, t.sig), Some(t.state));
        for (dop, dk0, dk1, ds) in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)] {
            let op = t.op.wrapping_add(dop);
            let kids = [t.kids[0].wrapping_add(dk0), t.kids[1].wrapping_add(dk1)];
            let sig = t.sig.wrapping_add(ds);
            assert_eq!(
                snap.lookup_raw_dense(op, kids, sig),
                master.lookup_raw(op, kids, sig),
                "mutated key ({op}, {kids:?}, {sig}) disagrees"
            );
        }
    }
    for p in projections {
        assert_eq!(
            snap.project_raw_dense(p.full, p.op, p.pos),
            Some(p.projection)
        );
        assert_eq!(master.project_raw(p.full, p.op, p.pos), Some(p.projection));
        let missed = (
            odburg::select::StateId(p.full.0.wrapping_add(1)),
            p.op,
            p.pos.wrapping_add(1),
        );
        assert_eq!(
            snap.project_raw_dense(missed.0, missed.1, missed.2),
            master.project_raw(missed.0, missed.1, missed.2)
        );
    }
}

/// The dense walk and the hash walk over the master answer the same
/// forest with the same state prefix and the same `NoCover` outcome; a
/// fully warmed forest resolves completely with zero misses through
/// both.
fn assert_walks_agree(
    snap: &AutomatonSnapshot,
    master: &OnDemandAutomaton,
    forest: &Forest,
    fully_warm: bool,
) {
    let mut dense_counters = WorkCounters::new();
    let dense = snap.label_warm(forest, &mut dense_counters);
    let hash = hash_walk(master, forest);
    assert_eq!(dense.states, hash.states, "walk states diverge");
    assert_eq!(dense.nocover, hash.nocover, "walk NoCover outcomes diverge");
    if fully_warm {
        assert_eq!(dense.states.len(), forest.len(), "warm forest missed");
        assert!(dense.nocover.is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Dense/hash agreement on every memoized key, near-miss mutations
    /// of them, random unseen keys, whole-forest walks and the
    /// signature probe — in both projection modes.
    #[test]
    fn dense_index_agrees_with_hash_tables(seed in 0u64..(1u64 << 48)) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA9EE);
        let project = rng.gen_bool(0.5);
        let (_, forests, shared) = warmed(seed, project, 10);
        let snap = shared.snapshot();
        shared.with_read(|master| -> Result<(), TestCaseError> {
            assert_index_agrees(&snap, master);
            for forest in &forests {
                assert_walks_agree(&snap, master, forest, true);
            }
            for _ in 0..32 {
                let (op, kid0, kid1, sig) = (
                    rng.gen_range(0..u16::MAX),
                    rng.gen_range(0..u32::MAX),
                    rng.gen_range(0..u32::MAX),
                    rng.gen_range(0..u32::MAX),
                );
                prop_assert_eq!(
                    snap.lookup_raw_dense(op, [kid0, kid1], sig),
                    master.lookup_raw(op, [kid0, kid1], sig)
                );
            }
            for _ in 0..16 {
                let costs: Vec<RuleCost> = (0..rng.gen_range(0..4usize))
                    .map(|_| {
                        if rng.gen_bool(0.3) {
                            RuleCost::Infinite
                        } else {
                            RuleCost::Finite(rng.gen_range(0..8))
                        }
                    })
                    .collect();
                prop_assert_eq!(
                    snap.find_signature_dense(&costs),
                    master.find_signature(&costs),
                    "signature probe disagrees on {:?}", costs
                );
            }
            Ok(())
        })?;
    }

    /// A forest the snapshot has never seen stops the dense walk and the
    /// hash walk at the same node with the same prefix (the resume
    /// contract of the grow path does not depend on which structure
    /// answered).
    #[test]
    fn unseen_forests_miss_identically(seed in 0u64..(1u64 << 48)) {
        let (normal, _, shared) = warmed(seed, false, 4);
        let snap = shared.snapshot();
        let mut sampler = TreeSampler::new(&normal, seed ^ 0xF4E57);
        for _ in 0..6 {
            let fresh = sampler.sample_forest(6);
            shared.with_read(|master| assert_walks_agree(&snap, master, &fresh, false));
        }
    }

    /// Compaction rebuilds the dense index over a remapped state arena
    /// (new `StateId`s, retained-entry subsets): the rebuilt index must
    /// satisfy exactly the same agreement properties as the original.
    #[test]
    fn dense_index_survives_compact_rebuild(seed in 0u64..(1u64 << 48)) {
        // Measure how big the warm tables get, then replay the same
        // workload under half that budget so compaction must trigger.
        let (normal, forests, shared) = warmed(seed, false, 14);
        let full_bytes = shared.accounted_bytes().total();
        let compacting = SharedOnDemand::new(OnDemandAutomaton::with_config(
            Arc::clone(&normal),
            OnDemandConfig {
                budget_policy: BudgetPolicy::Compact {
                    byte_budget: (full_bytes / 2).max(2048),
                    retain_fraction: 0.5,
                },
                ..OnDemandConfig::default()
            },
        ));
        let mut sampler = TreeSampler::new(&normal, seed ^ 0xC0117AC7);
        for forest in &forests {
            compacting.label_forest(forest).expect("labels under budget");
        }
        for _ in 0..10 {
            let forest = sampler.sample_forest(8);
            compacting.label_forest(&forest).expect("labels under budget");
        }
        // Tiny grammars can stay under the floor budget; the rebuilt
        // index is only observable when compaction actually ran.
        if compacting.counters().compactions > 0 {
            let snap = compacting.snapshot();
            assert!(snap.epoch() > 0, "compaction advances the epoch");
            compacting.with_read(|master| assert_index_agrees(&snap, master));
            // Forests labeled through the compacting automaton most
            // recently are warm in the fresh epoch; both walks must
            // agree on them against the rebuilt index.
            let warm = sampler.sample_forest(8);
            compacting.label_forest(&warm).expect("labels");
            let snap = compacting.snapshot();
            compacting.with_read(|master| assert_walks_agree(&snap, master, &warm, true));
        }
    }
}
