//! Differential properties of a published snapshot's dense warm-path
//! index against the master automaton's `FxHashMap` tables it mirrors.
//!
//! The dense index (per-operator open-addressed transition regions,
//! projection table, signature probe — see `odburg_core::dense`) is the
//! only table a snapshot keeps, and holds exactly the master's hash
//! tables at publication: every memoized key must resolve to the
//! same state through both structures, every unseen key must miss
//! through both, and the dense warm walk must agree node for node with
//! a hash walk over the master's probes (`common::hash_walk`). These
//! properties are checked over random grammars and random forests, in
//! both child-projection modes, and — because compaction rebuilds the
//! index from remapped state ids — across a `BudgetPolicy::Compact`
//! epoch change. Every master mutation publishes, so the snapshot read
//! after labeling always mirrors the master's current tables.
//!
//! The master grows its index in place and a publication shares every
//! region it did not touch, so the index a snapshot holds is the product
//! of a history of copy-on-write inserts and region regrowths. The
//! publication tests hold every snapshot of such a history against a
//! from-scratch batch build over the master's hash tables
//! (`snapshot_rebuilt`), check that older snapshots pinned along the
//! way never change, and check the warm walks' selections against the
//! DP oracle.

mod common;

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use odburg::grammar::{NormalRuleId, NtId};
use odburg::ir::NodeId;
use odburg::prelude::*;
use odburg::select::persist;
use odburg::select::{SnapshotStats, StateId, StateLookup};
use odburg::workloads::{builtin_traffic, TreeSampler};

use common::{hash_walk, random_grammar, total_cost};

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

/// The seven keys probed around one memoized transition: itself and
/// single-component mutations (near-collisions for the open-addressed
/// probe).
fn near_keys(op: u16, kids: [u32; 2], sig: u32) -> [(u16, [u32; 2], u32); 6] {
    [
        (op, kids, sig),
        (op.wrapping_add(1), kids, sig),
        (op.wrapping_sub(1), kids, sig),
        (op, [kids[0].wrapping_add(1), kids[1]], sig),
        (op, [kids[0], kids[1].wrapping_add(1)], sig),
        (op, kids, sig.wrapping_add(1)),
    ]
}

/// A probe key set for `master`'s current tables: every memoized
/// transition with its near misses, plus random keys (half of them in
/// the populated id ranges, so some hit).
fn probe_keys(master: &OnDemandAutomaton, rng: &mut StdRng) -> Vec<(u16, [u32; 2], u32)> {
    let mut keys: Vec<_> = master
        .raw_transitions()
        .iter()
        .flat_map(|t| near_keys(t.op, t.kids, t.sig))
        .collect();
    let ids = master.stats().states as u32 + 2;
    for i in 0..64 {
        keys.push(if i % 2 == 0 {
            (
                rng.gen_range(0..512),
                [rng.gen_range(0..ids), rng.gen_range(0..ids)],
                rng.gen_range(0..4),
            )
        } else {
            (
                rng.gen_range(0..u16::MAX),
                [rng.gen_range(0..u32::MAX), u32::MAX],
                rng.gen_range(0..u32::MAX),
            )
        });
    }
    keys
}

/// Random dynamic-cost vectors for the signature probe.
fn random_costs(rng: &mut StdRng) -> Vec<RuleCost> {
    (0..rng.gen_range(0..4usize))
        .map(|_| {
            if rng.gen_bool(0.3) {
                RuleCost::Infinite
            } else {
                RuleCost::Finite(rng.gen_range(0..8))
            }
        })
        .collect()
}

fn exported(snap: &AutomatonSnapshot) -> Vec<u8> {
    let mut bytes = Vec::new();
    persist::write_tables_to(snap, &mut bytes).expect("export succeeds");
    bytes
}

/// A published snapshot against a from-scratch batch build over the
/// master's hash tables at the same moment: the same stats (entry
/// counts and accounted bytes), the same enumeration (the export
/// enumerates and sorts the index, so equal bytes mean equal entry
/// sets), and the same answer on every memoized key, every near miss,
/// random unseen keys, every projection and its near miss, and the
/// signature probe — on top of the agreement with the hash tables
/// themselves.
fn assert_matches_batch_build(
    snap: &AutomatonSnapshot,
    master: &OnDemandAutomaton,
    rng: &mut StdRng,
) {
    let batch = master.snapshot_rebuilt();
    assert_eq!(snap.stats(), batch.stats(), "stats diverge from a rebuild");
    assert_eq!(exported(snap), exported(&batch), "enumerations diverge");
    assert_index_agrees(snap, master);
    for (op, kids, sig) in probe_keys(master, rng) {
        let want = master.lookup_raw(op, kids, sig);
        assert_eq!(batch.lookup_raw_dense(op, kids, sig), want);
        assert_eq!(
            snap.lookup_raw_dense(op, kids, sig),
            want,
            "key ({op}, {kids:?}, {sig}) disagrees with a rebuild"
        );
    }
    for p in master.raw_projections() {
        for (full, pos) in [(p.full, p.pos), (StateId(p.full.0 + 1), p.pos ^ 1)] {
            assert_eq!(
                snap.project_raw_dense(full, p.op, pos),
                batch.project_raw_dense(full, p.op, pos)
            );
        }
    }
    for _ in 0..16 {
        let costs = random_costs(rng);
        let want = master.find_signature(&costs);
        assert_eq!(batch.find_signature_dense(&costs), want);
        assert_eq!(snap.find_signature_dense(&costs), want, "{costs:?}");
    }
}

/// A [`RuleChooser`] over a warm walk's states against its snapshot.
struct WalkChooser<'a> {
    snap: &'a AutomatonSnapshot,
    states: &'a [StateId],
}

impl RuleChooser for WalkChooser<'_> {
    fn rule_for(&self, node: NodeId, nt: NtId) -> Option<NormalRuleId> {
        self.snap.rule_in_state(self.states[node.index()], nt)
    }
}

/// The snapshot answers `forest` completely through the dense walk, and
/// what it selects costs exactly what the DP oracle's selection costs.
fn assert_walk_matches_dp(snap: &AutomatonSnapshot, normal: &Arc<NormalGrammar>, forest: &Forest) {
    let walk = snap.label_warm(forest, &mut WorkCounters::new());
    assert!(walk.nocover.is_none());
    assert_eq!(
        walk.states.len(),
        forest.len(),
        "labeled forest must be warm"
    );
    let chooser = WalkChooser {
        snap,
        states: &walk.states,
    };
    let mut dp = DpLabeler::new(Arc::clone(normal));
    let dp_labeling = dp.label_forest(forest).expect("dp labels");
    assert_eq!(
        total_cost(forest, normal, &chooser),
        total_cost(forest, normal, &dp_labeling),
        "dense walk selection diverges from the DP oracle"
    );
}

/// What a snapshot answered when it was published, for checking that
/// it never changes while the master keeps growing.
struct Pinned {
    snap: Arc<AutomatonSnapshot>,
    stats: SnapshotStats,
    export: Vec<u8>,
    keys: Vec<(u16, [u32; 2], u32)>,
    answers: Vec<Option<StateId>>,
    forest: Forest,
    states: Vec<StateId>,
}

impl Pinned {
    fn record(
        snap: Arc<AutomatonSnapshot>,
        master: &OnDemandAutomaton,
        forest: &Forest,
        rng: &mut StdRng,
    ) -> Pinned {
        let keys = probe_keys(master, rng);
        let answers = keys
            .iter()
            .map(|&(op, kids, sig)| snap.lookup_raw_dense(op, kids, sig))
            .collect();
        let states = snap.label_warm(forest, &mut WorkCounters::new()).states;
        Pinned {
            stats: snap.stats(),
            export: exported(&snap),
            snap,
            keys,
            answers,
            forest: forest.clone(),
            states,
        }
    }

    fn assert_unchanged(&self) {
        assert_eq!(self.snap.stats(), self.stats, "pinned stats changed");
        assert_eq!(exported(&self.snap), self.export, "pinned tables changed");
        for (&(op, kids, sig), &answer) in self.keys.iter().zip(&self.answers) {
            assert_eq!(self.snap.lookup_raw_dense(op, kids, sig), answer);
        }
        let walk = self.snap.label_warm(&self.forest, &mut WorkCounters::new());
        assert_eq!(walk.states, self.states, "pinned walk changed");
    }
}

/// One node whose operator no random grammar covers: labeling it
/// memoizes a dead transition (and that operator's first one).
fn dead_forest() -> Forest {
    let mut f = Forest::new();
    let root = odburg::ir::parse_sexpr(&mut f, "(ConstF8 #1.0)").unwrap();
    f.add_root(root);
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A history of publications over random grammars, in both
    /// projection modes, through region regrowth, dead transitions, a
    /// flush and a compaction: every published snapshot matches a batch
    /// build of the master's tables, its warm walks match the DP oracle,
    /// and every snapshot pinned along the way answers afterwards
    /// exactly as it did when it was published.
    #[test]
    fn every_publication_matches_a_batch_build(seed in 0u64..(1u64 << 48)) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9B11);
        let normal = Arc::new(random_grammar(seed).normalize());
        let shared = SharedOnDemand::new(OnDemandAutomaton::with_config(
            Arc::clone(&normal),
            OnDemandConfig {
                project_children: rng.gen_bool(0.5),
                ..OnDemandConfig::default()
            },
        ));
        let mut sampler = TreeSampler::new(&normal, seed ^ 0x5A3);
        let dead = dead_forest();
        let mut pinned = Vec::new();
        for step in 0..12 {
            match step {
                4 => {
                    shared.enforce_budget(&MemoryBudget::flush(1)).expect("flushes");
                }
                8 => {
                    let half = shared.accounted_bytes().total() / 2;
                    shared.enforce_budget(&MemoryBudget::compact(half, 0.5)).expect("compacts");
                }
                _ => {}
            }
            let forest = sampler.sample_forest(3);
            shared.label_forest(&forest).expect("sampled forests label");
            if step % 3 == 1 {
                prop_assert!(
                    matches!(shared.label_forest(&dead), Err(LabelError::NoCover { .. })),
                    "the dead forest must not cover"
                );
            }
            let snap = shared.snapshot();
            shared.with_read(|master| {
                assert_matches_batch_build(&snap, master, &mut rng);
                if step % 2 == 0 {
                    pinned.push(Pinned::record(Arc::clone(&snap), master, &forest, &mut rng));
                }
            });
            assert_walk_matches_dp(&snap, &normal, &forest);
        }
        for p in &pinned {
            p.assert_unchanged();
        }
    }
}

/// The same properties on a real target whose dynamic costs intern new
/// signatures as traffic arrives, in both projection modes: x86ish
/// regions hold hundreds of transitions, so each has regrown across
/// load one half several times by the end.
#[test]
fn x86ish_publications_match_batch_builds_as_tables_grow() {
    let normal = Arc::new(odburg::targets::x86ish().normalize());
    let jobs: Vec<Forest> = builtin_traffic(11, 240)
        .into_iter()
        .filter(|j| j.target == "x86ish")
        .map(|j| j.forest)
        .collect();
    assert!(jobs.len() >= 24, "{} x86ish jobs", jobs.len());
    for project_children in [false, true] {
        let mut rng = StdRng::seed_from_u64(0x86);
        let shared = SharedOnDemand::new(OnDemandAutomaton::with_config(
            Arc::clone(&normal),
            OnDemandConfig {
                project_children,
                ..OnDemandConfig::default()
            },
        ));
        let mut pinned = Vec::new();
        let mut first: Option<SnapshotStats> = None;
        for (i, forest) in jobs.iter().enumerate() {
            shared.label_forest(forest).expect("x86ish traffic labels");
            if i % 6 != 0 && i + 1 != jobs.len() {
                continue;
            }
            let snap = shared.snapshot();
            shared.with_read(|master| {
                assert_matches_batch_build(&snap, master, &mut rng);
                if i % 12 == 0 {
                    pinned.push(Pinned::record(Arc::clone(&snap), master, forest, &mut rng));
                }
            });
            assert_walk_matches_dp(&snap, &normal, forest);
            first.get_or_insert(snap.stats());
        }
        let (first, last) = (first.unwrap(), shared.snapshot().stats());
        assert!(
            last.signatures > first.signatures,
            "traffic must intern new signatures: {first:?} -> {last:?}"
        );
        assert!(last.transitions > 4 * first.transitions.max(1));
        for p in &pinned {
            p.assert_unchanged();
        }
    }
}
