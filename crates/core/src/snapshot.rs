//! Immutable, shareable snapshots of an on-demand automaton.
//!
//! The concurrent labeling core ([`SharedOnDemand`](crate::SharedOnDemand))
//! separates the automaton into two halves:
//!
//! * an **immutable snapshot** (this module): the state arenas plus one
//!   [dense index](crate::dense) over the master's transition table,
//!   projection cache and signature interner, frozen at a point in time
//!   and published behind an atomically swappable pointer. The index is
//!   the snapshot's only copy of those tables; it shares every region
//!   the master has not written to since, so publishing one costs the
//!   number of operators and states, not of transitions. Reader threads
//!   label whole forests against a snapshot with *zero* locks and zero
//!   shared-memory writes — every operation is a read of immutable
//!   data;
//! * a **single-writer grow path**: the mutable master automaton behind a
//!   mutex, entered only when a forest contains a transition the current
//!   snapshot has not seen. The writer computes the missing states and
//!   publishes a fresh snapshot.
//!
//! Because the master automaton is append-only within an epoch (state,
//! transition and signature ids are never reassigned until a
//! [`BudgetPolicy::Flush`](crate::BudgetPolicy) wipe or a heat-guided
//! [compaction](crate::govern) starts the next epoch), any prefix of a
//! forest labeled against an older snapshot remains valid against the
//! newer master — the slow path can resume exactly where the fast path
//! stopped.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use odburg_grammar::{CostExpr, DynCostFn, NormalGrammar, NormalRuleId, NtId, RuleCost};
use odburg_ir::{Forest, NodeId, Op, OpId, NUM_OPS};

use crate::counters::WorkCounters;
use crate::dense::{self, DenseIndex};
use crate::govern::{self, ComponentBytes};
use crate::label::StateLookup;
use crate::ondemand::OnDemandConfig;
use crate::signature::SigId;
use crate::state::{StateData, StateId};

pub(crate) const NO_CHILD: u32 = u32::MAX;

/// The maximum operator arity a [`TransKey`] can represent.
///
/// **Invariant:** every [`Op`] in the IR has `arity() <= MAX_ARITY`.
/// `TransKey.kids` is a fixed array of this size, and both the lookup and
/// the insert paths take exactly `op.arity()` child states — an operator
/// with more children would silently truncate the key and alias unrelated
/// transitions. The labeling entry points `debug_assert!` this bound, and
/// `snapshot::tests::all_ops_fit_the_transition_key` locks it in against
/// future IR extensions (growing `kids` is the fix if one ever exceeds
/// it).
pub(crate) const MAX_ARITY: usize = 2;

/// Transition-table key: `(operator, child states, dynamic-cost
/// signature)` — the lookup the paper performs per node.
///
/// `kids` holds exactly `op.arity()` child states (see [`MAX_ARITY`]);
/// unused slots are [`NO_CHILD`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TransKey {
    pub op: u16,
    pub kids: [u32; MAX_ARITY],
    pub sig: SigId,
}

/// Size statistics of a snapshot, including the per-component byte
/// accounting the memory governor budgets against (see
/// [`govern`](crate::govern)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Epoch the snapshot belongs to (see [`AutomatonSnapshot::epoch`]).
    pub epoch: u64,
    /// States in the arena.
    pub states: usize,
    /// Projected states (projection mode only; 0 otherwise).
    pub projections: usize,
    /// Memoized transitions.
    pub transitions: usize,
    /// `(state, op, position)` projection-cache entries.
    pub cached_projections: usize,
    /// Interned dynamic-cost signatures.
    pub signatures: usize,
    /// Accounted bytes per component.
    pub bytes: ComponentBytes,
}

/// An immutable, dense-indexed copy of an on-demand automaton's tables,
/// safe to read from any number of threads without synchronization.
///
/// Snapshots are created by
/// [`OnDemandAutomaton::snapshot`](crate::OnDemandAutomaton::snapshot)
/// and published by [`SharedOnDemand`](crate::SharedOnDemand); state ids
/// in a snapshot agree with the master automaton of the same epoch.
#[derive(Debug)]
pub struct AutomatonSnapshot {
    epoch: u64,
    grammar: Arc<NormalGrammar>,
    config: OnDemandConfig,
    states: Vec<Arc<StateData>>,
    /// The projected-state arena (projection mode only; empty otherwise).
    /// Transition keys reference these ids through the projection cache,
    /// and a warm-started master needs the arena to keep interning
    /// consistently — so it is part of the snapshot and of the persisted
    /// format.
    projections: Vec<Arc<StateData>>,
    /// The dense warm-path index (see [`crate::dense`]): per-operator
    /// transition regions, the projection table, the signature table
    /// and structure-of-arrays state facts. It is the snapshot's only
    /// copy of the transitions, projections and signatures, and shares
    /// every region the master has not written to since this snapshot
    /// was published. Never serialized — built at
    /// [`persist`](crate::persist) import.
    dense: DenseIndex,
    /// Per-state touch counters for this epoch, bumped (relaxed) by the
    /// lock-free fast path once per forest and folded into the writer's
    /// heat at compaction time. Not part of the persisted format and
    /// not compared by [`SnapshotStats`].
    heat: Box<[AtomicU32]>,
    /// Flattened dynamic-cost dispatch (see [`DynEvalTable`]), shared
    /// with the master that published this snapshot.
    dyn_eval: Arc<DynEvalTable>,
}

/// Flattened warm-path dispatch for dynamic-cost evaluation: the
/// resolved cost function of every dynamic base rule, grouped by
/// operator id, plus the dynamic chain rules' functions. It depends only
/// on the grammar, so it is built once per automaton and shared through
/// an `Arc` with every snapshot the automaton publishes; a warm eval is
/// one sequential slice read and the indirect call itself — the walk
/// through the fat [`NormalRule`] and
/// [`DynCost`](odburg_grammar::DynCost) tables (two dependent cache
/// lines each) happens once per automaton instead of once per node.
/// Constant grammar-derived metadata, outside the byte accounting like
/// the grammar `Arc` itself.
pub(crate) struct DynEvalTable {
    /// `base[op]` — cost functions of the op's dynamic base rules, in
    /// the same order `dynamic_base_rules` reports them.
    base: Box<[Box<[DynCostFn]>]>,
    /// Cost functions of the dynamic chain rules, in order.
    chains: Box<[DynCostFn]>,
}

impl std::fmt::Debug for DynEvalTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynEvalTable")
            .field("ops", &self.base.iter().filter(|b| !b.is_empty()).count())
            .field("chains", &self.chains.len())
            .finish_non_exhaustive()
    }
}

impl DynEvalTable {
    pub(crate) fn build(grammar: &NormalGrammar) -> Self {
        let resolve = |&r: &NormalRuleId| -> DynCostFn {
            match grammar.rule(r).cost {
                CostExpr::Dynamic(id) => grammar.dyncosts()[id.0 as usize].func.clone(),
                // Dynamic rule lists only hold `Dynamic`-cost rules, but
                // degrade gracefully if that ever changes.
                CostExpr::Fixed(c) => Arc::new(move |_: &Forest, _: NodeId| RuleCost::Finite(c)),
            }
        };
        DynEvalTable {
            base: (0..NUM_OPS as u16)
                .map(|id| match Op::from_id(OpId(id)) {
                    Some(op) => grammar.dynamic_base_rules(op).iter().map(resolve).collect(),
                    None => Box::default(),
                })
                .collect(),
            chains: grammar.dynamic_chain_rules().iter().map(resolve).collect(),
        }
    }

    /// Whether a node with operator `op` provably has the empty
    /// dynamic-cost signature: the grammar has no dynamic chain rules
    /// and no dynamic base rules for the op. Carried into the dense
    /// index's regions as their static-signature bit.
    pub(crate) fn sig_static(&self, op: u16) -> bool {
        self.chains.is_empty()
            && Op::from_id(OpId(op)).is_some()
            && self.base.get(op as usize).is_some_and(|b| b.is_empty())
    }

    /// Evaluates the dynamic-cost rules applicable at `node` into
    /// `scratch`, returning `false` when there are none — the node's
    /// signature is statically [`SigId::EMPTY`]. The warm walk then
    /// resolves the filled scratch through the dense signature probe.
    /// `scratch` is a caller-owned buffer reused across nodes so the
    /// warm loop never allocates per node; per eval the cost is one
    /// sequential function-pointer read and the cost function itself.
    #[inline]
    fn eval(
        &self,
        forest: &Forest,
        node: NodeId,
        op: Op,
        counters: &mut WorkCounters,
        scratch: &mut Vec<RuleCost>,
    ) -> bool {
        let base = &*self.base[op.id().0 as usize];
        let chains = &*self.chains;
        if base.is_empty() && chains.is_empty() {
            return false;
        }
        scratch.clear();
        for f in base {
            scratch.push(f(forest, node));
        }
        for f in chains {
            scratch.push(f(forest, node));
        }
        counters.dyncost_evals += (base.len() + chains.len()) as u64;
        true
    }
}

/// Outcome of a warm (snapshot-only) labeling walk: the arena-order
/// prefix of nodes answered from the snapshot, and whether that prefix
/// resolved a node to the dead state (`NoCover`).
///
/// `states.len() == forest.len()` with `nocover == None` means the
/// whole forest was answered warm.
#[derive(Debug)]
pub struct WarmWalk {
    /// Resolved states, indexed by node id, for a contiguous prefix of
    /// the arena — exactly the prefix contract the grow path resumes
    /// from.
    pub states: Vec<StateId>,
    /// The first prefix node whose state derives nothing, if any.
    pub nocover: Option<NodeId>,
}

impl AutomatonSnapshot {
    /// Assembles a snapshot from state arenas and the dense index over
    /// the same tables (a master's clone of its live index at
    /// publication, or an index built over freshly parsed tables).
    pub(crate) fn new(
        epoch: u64,
        grammar: Arc<NormalGrammar>,
        config: OnDemandConfig,
        states: Vec<Arc<StateData>>,
        projections: Vec<Arc<StateData>>,
        dense: DenseIndex,
        dyn_eval: Arc<DynEvalTable>,
    ) -> Self {
        let heat = (0..states.len()).map(|_| AtomicU32::new(0)).collect();
        AutomatonSnapshot {
            epoch,
            grammar,
            config,
            states,
            projections,
            dense,
            heat,
            dyn_eval,
        }
    }

    /// Records one touch per state in `states` (relaxed; heat is a
    /// statistic, not synchronization). Called once per forest by the
    /// lock-free fast path with the prefix of states it resolved.
    pub(crate) fn record_heat(&self, states: &[StateId]) {
        for &sid in states {
            if let Some(cell) = self.heat.get(sid.0 as usize) {
                cell.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Copies `prev`'s heat into this snapshot when both belong to the
    /// same epoch (state ids line up; the arena is append-only within an
    /// epoch). Called at publication so fast-path heat survives grow
    /// publications; across epochs heat restarts (the master carries a
    /// decayed copy through compaction).
    pub(crate) fn adopt_heat(&self, prev: &AutomatonSnapshot) {
        if self.epoch != prev.epoch {
            return;
        }
        for (cell, old) in self.heat.iter().zip(prev.heat.iter()) {
            cell.store(old.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the per-state touch counters.
    pub(crate) fn heat_counts(&self) -> Vec<u32> {
        self.heat
            .iter()
            .map(|cell| cell.load(Ordering::Relaxed))
            .collect()
    }

    pub(crate) fn states_arena(&self) -> &[Arc<StateData>] {
        &self.states
    }

    pub(crate) fn projections_arena(&self) -> &[Arc<StateData>] {
        &self.projections
    }

    /// The dense index — the snapshot's only copy of the transitions,
    /// projections and signatures, enumerated by persist export and by
    /// [`OnDemandAutomaton::from_snapshot`](crate::OnDemandAutomaton::from_snapshot).
    pub(crate) fn dense(&self) -> &DenseIndex {
        &self.dense
    }

    pub(crate) fn dyn_eval(&self) -> &Arc<DynEvalTable> {
        &self.dyn_eval
    }

    /// The flush epoch this snapshot belongs to. State ids are only
    /// comparable between snapshots (or labelings) of the same epoch; see
    /// the epoch discussion on
    /// [`BudgetPolicy::Flush`](crate::BudgetPolicy).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The grammar the automaton selects for.
    pub fn grammar(&self) -> &Arc<NormalGrammar> {
        &self.grammar
    }

    /// The configuration the master automaton was created with.
    pub fn config(&self) -> OnDemandConfig {
        self.config
    }

    /// Size statistics, including per-component byte accounting: the
    /// entry counts come from the dense index, and the numbers equal
    /// the publishing master's
    /// [`accounted_bytes`](crate::OnDemandAutomaton::accounted_bytes).
    pub fn stats(&self) -> SnapshotStats {
        let counts = self.dense.counts();
        SnapshotStats {
            epoch: self.epoch,
            states: self.states.len(),
            projections: self.projections.len(),
            transitions: counts.transitions,
            cached_projections: counts.cached_projections,
            signatures: counts.signatures,
            bytes: govern::component_bytes(
                &self.states,
                &self.projections,
                counts,
                self.dense.byte_size(),
            ),
        }
    }

    /// The data of a state.
    pub fn state(&self, id: StateId) -> &StateData {
        &self.states[id.0 as usize]
    }

    /// Labels as much of `forest` as this snapshot can answer, using
    /// the dense index and a **level-batched** walk over the arena.
    /// The arena order is itself a level schedule — every child is
    /// created (and therefore resolved) strictly before its parent — so
    /// the walk consumes the forest as one in-place run of ascending
    /// levels: sequential, prefetch-friendly reads of the node arena
    /// and of the growing state buffer, with the whole previous level's
    /// states already sitting contiguously when a parent is reached.
    /// (An explicit counting-sort into per-level runs was measured and
    /// rejected: the scatter pass plus the reordered — i.e. random —
    /// arena reads cost more than the batching saved, since the slot
    /// regions it tried to keep hot already fit in cache.)
    ///
    /// Per node the walk is exactly the dense probes: a bounded
    /// flat-slot probe per transition (plus one per child in projection
    /// mode) and a flat dead-flag read — no hashing, no `Arc` chase.
    /// Misses stop the walk (the grow path recomputes from the returned
    /// arena prefix); dense probes are counted as
    /// [`WorkCounters::table_lookups`].
    pub fn label_warm(&self, forest: &Forest, counters: &mut WorkCounters) -> WarmWalk {
        if self.config.project_children {
            self.label_warm_impl::<true>(forest, counters)
        } else {
            self.label_warm_impl::<false>(forest, counters)
        }
    }

    /// The warm walk, monomorphized per projection mode so the
    /// non-projection loop carries no projection code at all.
    fn label_warm_impl<const PROJECT: bool>(
        &self,
        forest: &Forest,
        counters: &mut WorkCounters,
    ) -> WarmWalk {
        let dense = &self.dense;
        let dyn_eval = &*self.dyn_eval;
        let mut states: Vec<StateId> = Vec::with_capacity(forest.len());
        let mut scratch: Vec<RuleCost> = Vec::new();
        // Per-node tallies accumulate in locals and flush once — the
        // loop writes no memory but the states vector.
        let mut nodes = 0u64;
        let mut hits = 0u64;
        let mut nocover = None;
        'walk: for (id, node) in forest.iter() {
            let op = node.op();
            let opid = op.id().0;
            nodes += 1;
            // One group-header load per node serves both the
            // statically-empty-signature bit and the probe below.
            let g = dense.group(opid);
            // Child-state gather with a compile-time trip count
            // (`MAX_ARITY == 2`), fully unrolled by the optimizer.
            let mut kids = [NO_CHILD; MAX_ARITY];
            let ch = node.children();
            for (i, kid) in kids.iter_mut().enumerate() {
                let Some(&c) = ch.get(i) else { break };
                let s = states[c.index()].0;
                *kid = if PROJECT {
                    match dense.project(s, opid, i as u8) {
                        Some(p) => p.0,
                        None => break 'walk,
                    }
                } else {
                    s
                };
            }
            // A node of an all-fixed-cost operator never touches the
            // grammar's dynamic-rule tables; dynamic nodes resolve
            // their cost vector through the dense signature probe
            // instead of the interner's hash map.
            let sig = if g.sig_static() || !dyn_eval.eval(forest, id, op, counters, &mut scratch) {
                SigId::EMPTY
            } else {
                match dense.find_sig(&scratch) {
                    Some(s) => s,
                    None => break 'walk,
                }
            };
            // The probe result carries the dead flag in its top bit, so
            // the `NoCover` check costs no extra load.
            match dense.lookup_enc(g, kids[0], kids[1], sig.0) {
                Some(enc) => {
                    if enc & dense::DEAD_BIT != 0 {
                        nocover = Some(id);
                        break 'walk;
                    }
                    hits += 1;
                    states.push(StateId(enc));
                }
                None => break 'walk,
            }
        }
        counters.nodes += nodes;
        counters.table_lookups += nodes;
        counters.memo_hits += hits;
        WarmWalk { states, nocover }
    }

    /// Raw transition probe through the dense index (no projection
    /// resolution — `kids` are the key's own child ids); must agree with
    /// the publishing master's
    /// [`lookup_raw`](crate::OnDemandAutomaton::lookup_raw) on every
    /// key, seen or unseen.
    pub fn lookup_raw_dense(&self, op: u16, kids: [u32; 2], sig: u32) -> Option<StateId> {
        self.dense.lookup(op, kids[0], kids[1], sig)
    }

    /// Raw projection-cache probe through the dense index; must agree
    /// with the master's
    /// [`project_raw`](crate::OnDemandAutomaton::project_raw) everywhere.
    pub fn project_raw_dense(&self, full: StateId, op: u16, pos: u8) -> Option<StateId> {
        self.dense.project(full.0, op, pos)
    }

    /// Signature probe through the dense table; must agree with the
    /// master's
    /// [`find_signature`](crate::OnDemandAutomaton::find_signature) (the
    /// interner's hash map) on every cost vector, interned or not.
    pub fn find_signature_dense(&self, costs: &[RuleCost]) -> Option<SigId> {
        self.dense.find_sig(costs)
    }
}

impl StateLookup for AutomatonSnapshot {
    /// Answered from the dense index's flat rule array (no `Arc`
    /// chase). Bounds-checked: a stale id from an earlier flush epoch
    /// can exceed this snapshot's arena; it must degrade to "no rule"
    /// (the reducer reports `MissingRule`), never panic. Ids valid for
    /// this snapshot's epoch are unaffected.
    fn rule_in_state(&self, state: StateId, nt: NtId) -> Option<NormalRuleId> {
        debug_assert_eq!(
            self.dense.rule(state, nt),
            self.states.get(state.0 as usize).and_then(|s| s.rule(nt)),
            "dense rule array must mirror the state arena"
        );
        self.dense.rule(state, nt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Labeler;
    use crate::ondemand::OnDemandAutomaton;
    use odburg_grammar::parse_grammar;
    use odburg_ir::{parse_sexpr, Forest};

    fn warmed() -> (OnDemandAutomaton, Forest) {
        let g = parse_grammar(
            r#"
            %start stmt
            addr: reg (0)
            reg: ConstI8 (1)
            reg: LoadI8(addr) (1)
            reg: AddI8(reg, reg) (1)
            stmt: StoreI8(addr, reg) (1)
            "#,
        )
        .unwrap()
        .normalize();
        let mut auto = OnDemandAutomaton::new(Arc::new(g));
        let mut f = Forest::new();
        let root = parse_sexpr(
            &mut f,
            "(StoreI8 (ConstI8 0) (AddI8 (LoadI8 (ConstI8 4)) (ConstI8 2)))",
        )
        .unwrap();
        f.add_root(root);
        auto.label_forest(&f).unwrap();
        (auto, f)
    }

    /// The snapshot's warm walk over `forest`, which must resolve every
    /// node.
    fn warm_states(snap: &AutomatonSnapshot, forest: &Forest) -> Vec<StateId> {
        let walk = snap.label_warm(forest, &mut WorkCounters::new());
        assert!(walk.nocover.is_none());
        assert_eq!(walk.states.len(), forest.len(), "warm snapshot must hit");
        walk.states
    }

    #[test]
    fn snapshot_reproduces_warm_labeling() {
        let (auto, forest) = warmed();
        let snap = auto.snapshot();
        assert_eq!(snap.stats().states, auto.stats().states);
        assert_eq!(snap.stats().transitions, auto.stats().transitions);
        // Re-label the forest against the snapshot only.
        let states = warm_states(&snap, &forest);
        // Same states as the master automaton assigns.
        let relabeled = {
            let mut auto = auto;
            auto.label_forest(&forest).unwrap()
        };
        assert_eq!(relabeled.states(), &states[..]);
    }

    #[test]
    fn snapshot_misses_unseen_transitions() {
        let (auto, _) = warmed();
        let snap = auto.snapshot();
        // A (op, kids) combination never labeled: Load of the Add state.
        let mut f = Forest::new();
        let root = parse_sexpr(
            &mut f,
            "(StoreI8 (ConstI8 0) (LoadI8 (AddI8 (LoadI8 (ConstI8 4)) (ConstI8 2))))",
        )
        .unwrap();
        f.add_root(root);
        let walk = snap.label_warm(&f, &mut WorkCounters::new());
        assert!(walk.nocover.is_none());
        assert!(walk.states.len() < f.len(), "the unseen node must miss");
        let stop = f.node(NodeId(walk.states.len() as u32));
        let load: Op = "LoadI8".parse().unwrap();
        let add: Op = "AddI8".parse().unwrap();
        assert_eq!(stop.op(), load);
        assert_eq!(f.node(stop.children()[0]).op(), add);
    }

    #[test]
    fn all_ops_fit_the_transition_key() {
        // Locks in the TransKey invariant: every operator the IR can
        // express has arity <= MAX_ARITY, so the fixed `kids` array never
        // truncates. If a future IR extension adds a wider operator,
        // this test fails and `kids: [u32; MAX_ARITY]` must grow with it.
        use odburg_ir::{ALL_KINDS, ALL_TYPE_TAGS};
        for kind in ALL_KINDS {
            for ty in ALL_TYPE_TAGS {
                let op = Op::new(kind, ty);
                assert!(
                    op.arity() <= MAX_ARITY,
                    "operator {op} has arity {} > MAX_ARITY={MAX_ARITY}",
                    op.arity()
                );
            }
        }
    }

    #[test]
    fn stats_break_bytes_down_per_component() {
        let (auto, _) = warmed();
        let snap = auto.snapshot();
        let stats = snap.stats();
        assert!(stats.bytes.states > 0);
        assert!(stats.bytes.transitions > 0);
        assert!(stats.bytes.signatures > 0);
        assert_eq!(stats.bytes.projections, 0, "direct mode has no projections");
        assert_eq!(stats.bytes.projection_cache, 0);
        assert_eq!(stats.bytes.total(), auto.accounted_bytes().total());
        assert_eq!(stats.bytes, auto.accounted_bytes());
    }

    #[test]
    fn heat_is_recorded_and_adopted_within_an_epoch() {
        let (auto, forest) = warmed();
        let snap = auto.snapshot();
        assert!(snap.heat_counts().iter().all(|&h| h == 0));
        let states = warm_states(&snap, &forest);
        snap.record_heat(&states);
        let heat = snap.heat_counts();
        assert_eq!(
            heat.iter().map(|&h| h as usize).sum::<usize>(),
            forest.len()
        );

        // Publication within the epoch carries the heat forward…
        let next = auto.snapshot();
        next.adopt_heat(&snap);
        assert_eq!(next.heat_counts(), heat);
        // …but a snapshot from another epoch starts cold.
        let mut flushed = OnDemandAutomaton::from_snapshot(&next);
        flushed.clear();
        let other_epoch = flushed.snapshot();
        other_epoch.adopt_heat(&snap);
        assert!(other_epoch.heat_counts().iter().all(|&h| h == 0));
    }

    #[test]
    fn snapshot_is_decoupled_from_master_growth() {
        let (mut auto, _) = warmed();
        let snap = auto.snapshot();
        let before = snap.stats().states;
        let mut f = Forest::new();
        let root = parse_sexpr(
            &mut f,
            "(StoreI8 (ConstI8 0) (AddI8 (AddI8 (ConstI8 1) (ConstI8 2)) (ConstI8 3)))",
        )
        .unwrap();
        f.add_root(root);
        auto.label_forest(&f).unwrap();
        assert!(auto.stats().transitions > snap.stats().transitions);
        assert_eq!(snap.stats().states, before, "snapshot must stay frozen");
    }
}
