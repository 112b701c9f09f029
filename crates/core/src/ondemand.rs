//! The on-demand tree-parsing automaton — the contribution of the
//! reproduced paper.
//!
//! The automaton starts empty. To label a node the labeler forms the
//! transition key *(operator, child states, dynamic-cost signature)* and
//! looks it up in a hash table:
//!
//! * **hit** (the overwhelmingly common case once the automaton has
//!   warmed up): the node's state is the cached one — labeling cost is a
//!   single hash probe, like an offline automaton;
//! * **miss**: the state is computed right here with one
//!   dynamic-programming step ([`compute_state`]), hash-consed, memoized,
//!   and used — the cost of an iburg-style labeler, paid once per
//!   distinct transition instead of once per node.
//!
//! Because compiler IR is extremely repetitive, the automaton converges
//! after a few hundred nodes and nearly all lookups hit. Dynamic costs
//! are folded into the key as a [signature](crate::signature), which an
//! offline automaton cannot do.

use std::sync::Arc;

use odburg_grammar::{NormalGrammar, NormalRuleId, NtId, RuleCost};
use odburg_ir::{Forest, NodeId, Op};

use crate::compute::compute_state;
use crate::counters::WorkCounters;
use crate::dense::DenseIndex;
use crate::fxhash::FxHashMap;
use crate::govern::{self, CompactionStats, ComponentBytes};
use crate::label::{LabelError, Labeler, Labeling, StateLookup};
use crate::signature::{SigId, SignatureInterner};
use crate::snapshot::{AutomatonSnapshot, DynEvalTable, TransKey, NO_CHILD};
use crate::state::{StateData, StateId, StateSet};

/// What to do when the automaton outgrows its budget.
#[derive(Debug, Clone, Copy, Default)]
pub enum BudgetPolicy {
    /// Fail with [`LabelError::StateBudgetExceeded`].
    #[default]
    Error,
    /// Flush every state, transition and signature and relabel the
    /// current forest from scratch — bounded memory at the price of
    /// re-warming (the memory-management strategy a long-running JIT
    /// wants). Applies to [`OnDemandAutomaton::label_forest`]; the
    /// incremental [`OnDemandAutomaton::label_node`] path still reports
    /// the error because its caller holds state ids a flush would
    /// invalidate.
    ///
    /// # Epoch semantics under the snapshot-based shared automaton
    ///
    /// A flush starts a new **epoch** (see
    /// [`OnDemandAutomaton::epoch`]): the state arena, transition table
    /// and signature interner are replaced, so state ids from different
    /// epochs are unrelated values. The concurrent
    /// [`SharedOnDemand`](crate::SharedOnDemand) handles this without
    /// ever invalidating in-flight readers:
    ///
    /// * every published [`AutomatonSnapshot`] carries its epoch, and a
    ///   replaced snapshot stays alive exactly as long as something can
    ///   still reference it — a reader that loaded it before the flush
    ///   keeps labeling against its frozen tables, and a pinned labeling
    ///   keeps its epoch's tables alive indefinitely; replaced snapshots
    ///   nothing references are dropped on the next publication;
    /// * a reader entering the writer lock compares its snapshot's epoch
    ///   with the master's and restarts the forest from scratch on a
    ///   mismatch (labelings never mix state ids across epochs);
    /// * callers that hold labelings across forests should use
    ///   [`SharedOnDemand::label_forest_pinned`](crate::SharedOnDemand::label_forest_pinned),
    ///   which returns the labeling together with the exact snapshot it
    ///   refers to.
    Flush,
    /// Keep the tables under a **byte budget** by evicting cold states
    /// instead of wiping everything: when the accounted bytes
    /// ([`OnDemandAutomaton::accounted_bytes`]) exceed `byte_budget`, a
    /// single-writer [compaction](crate::govern) pass rebuilds the
    /// tables retaining only the hottest states that fit
    /// `retain_fraction * byte_budget` bytes, remapping state,
    /// projection and signature ids into a **new epoch**.
    ///
    /// Epoch semantics are exactly [`BudgetPolicy::Flush`]'s — a
    /// compaction bumps the epoch, in-flight readers of the shared
    /// automaton finish against their frozen snapshot, and pinned
    /// labelings keep their epoch's tables alive — but warm states
    /// survive, so steady-state miss rates stay close to the unbounded
    /// automaton's. A state-budget overflow under this policy also
    /// compacts (and retries the forest once), mirroring `Flush`.
    Compact {
        /// Accounted table bytes above which the automaton compacts.
        byte_budget: usize,
        /// Fraction of `byte_budget` the compacted tables may occupy
        /// (clamped to `0.05..=1.0`); the rest is headroom for regrowth
        /// before the next pass.
        retain_fraction: f32,
    },
}

// Manual impls because `retain_fraction` is an `f32`: two policies are
// equal when their fractions are bit-identical, which is reflexive (the
// CLI and persist layer only produce finite fractions).
impl PartialEq for BudgetPolicy {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (BudgetPolicy::Error, BudgetPolicy::Error)
            | (BudgetPolicy::Flush, BudgetPolicy::Flush) => true,
            (
                BudgetPolicy::Compact {
                    byte_budget: a,
                    retain_fraction: x,
                },
                BudgetPolicy::Compact {
                    byte_budget: b,
                    retain_fraction: y,
                },
            ) => a == b && x.to_bits() == y.to_bits(),
            _ => false,
        }
    }
}

impl Eq for BudgetPolicy {}

/// Configuration of an [`OnDemandAutomaton`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnDemandConfig {
    /// Project child states onto the operand nonterminals of the operator
    /// before forming the transition key.
    ///
    /// Projection adds one cache probe per child but makes more nodes
    /// share transitions (the offline automaton's *representer state*
    /// compression applied lazily). Default: `false` — the paper's direct
    /// `(op, child states)` key.
    pub project_children: bool,
    /// Maximum number of states before labeling fails with
    /// [`LabelError::StateBudgetExceeded`]. Guards against grammars whose
    /// automata do not converge.
    pub state_budget: usize,
    /// What happens when the budget is hit.
    pub budget_policy: BudgetPolicy,
}

impl Default for OnDemandConfig {
    fn default() -> Self {
        OnDemandConfig {
            project_children: false,
            state_budget: 1 << 20,
            budget_policy: BudgetPolicy::Error,
        }
    }
}

/// Size statistics of an on-demand automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnDemandStats {
    /// Hash-consed states created so far.
    pub states: usize,
    /// Memoized transitions.
    pub transitions: usize,
    /// Distinct dynamic-cost signatures (1 = none beyond the empty one).
    pub signatures: usize,
    /// Total accounted heap bytes (see
    /// [`OnDemandAutomaton::accounted_bytes`] for the per-component
    /// breakdown).
    pub bytes: usize,
    /// Times the automaton was flushed by [`BudgetPolicy::Flush`] or
    /// [`OnDemandAutomaton::clear`].
    pub flushes: usize,
    /// Heat-guided [compaction](crate::govern) passes run so far.
    pub compactions: usize,
}

/// The on-demand tree-parsing automaton.
///
/// Create once per grammar and reuse across compilations (that is the
/// point: a JIT keeps one automaton alive and it keeps getting faster).
///
/// # Examples
///
/// ```
/// use odburg_core::{Labeler, OnDemandAutomaton};
/// use odburg_grammar::parse_grammar;
/// use odburg_ir::{parse_sexpr, Forest};
/// use std::sync::Arc;
///
/// let g = parse_grammar(
///     "%start reg\nreg: ConstI8 (1)\nreg: AddI8(reg, reg) (1)\n",
/// )?;
/// let mut auto = OnDemandAutomaton::new(Arc::new(g.normalize()));
/// let mut f = Forest::new();
/// let root = parse_sexpr(&mut f, "(AddI8 (ConstI8 1) (ConstI8 2))")?;
/// f.add_root(root);
/// let labeling = auto.label_forest(&f)?;
/// let chooser = labeling.chooser(&auto);
/// # let _ = chooser;
/// assert_eq!(auto.stats().states, 2); // one for Const, one for Add
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct OnDemandAutomaton {
    grammar: Arc<NormalGrammar>,
    config: OnDemandConfig,
    states: StateSet,
    projections: StateSet,
    transitions: FxHashMap<TransKey, StateId>,
    projection_cache: FxHashMap<(StateId, u16, u8), StateId>,
    signatures: SignatureInterner,
    counters: WorkCounters,
    /// Current epoch: bumped by every flush *and* every compaction;
    /// state ids are only meaningful within one epoch.
    epoch: u64,
    flushes: usize,
    compactions: usize,
    /// Per-state touch counters for the current epoch (indexed by
    /// `StateId`), bumped once per labeled node; compaction evicts the
    /// coldest states by this measure. Reset by a flush, carried over
    /// (halved) by a compaction.
    heat: Vec<u64>,
    /// The snapshots' flattened dynamic-cost dispatch: a function of
    /// the grammar alone, built once and shared with every published
    /// snapshot.
    dyn_eval: Arc<DynEvalTable>,
    /// The live dense index over the tables above, grown with every
    /// memoized entry. Its regions are shared with the snapshots this
    /// automaton published until the next write to them (see
    /// [`crate::dense`]).
    dense: DenseIndex,
}

/// One memoized transition in raw `(op, kids, sig)` form, for
/// diagnostics and differential tests against the dense index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawTransition {
    /// Operator id (`Op::id`).
    pub op: u16,
    /// Child keys (full state ids, or projection ids in projection
    /// mode); unused slots are `u32::MAX`.
    pub kids: [u32; 2],
    /// Dynamic-cost signature id.
    pub sig: u32,
    /// The memoized target state.
    pub state: StateId,
}

/// One memoized projection-cache entry in raw form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawProjection {
    /// The full child state being projected.
    pub full: StateId,
    /// Operator id of the parent.
    pub op: u16,
    /// Child position under the parent.
    pub pos: u8,
    /// The projected state.
    pub projection: StateId,
}

impl OnDemandAutomaton {
    /// Creates an empty automaton for `grammar` with default
    /// configuration.
    pub fn new(grammar: Arc<NormalGrammar>) -> Self {
        Self::with_config(grammar, OnDemandConfig::default())
    }

    /// Creates an empty automaton with an explicit configuration.
    pub fn with_config(grammar: Arc<NormalGrammar>, config: OnDemandConfig) -> Self {
        let dyn_eval = Arc::new(DynEvalTable::build(&grammar));
        Self::from_tables(
            grammar,
            config,
            0,
            Vec::new(),
            Vec::new(),
            FxHashMap::default(),
            FxHashMap::default(),
            SignatureInterner::new(),
            dyn_eval,
            None,
        )
    }

    /// Assembles a master from tables whose ids already agree with each
    /// other (a parsed table file, or a snapshot's enumerated index),
    /// starting at `epoch` with fresh counters and no heat. `dense` is
    /// the index over exactly these tables when the caller has one (a
    /// snapshot's); `None` builds it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_tables(
        grammar: Arc<NormalGrammar>,
        config: OnDemandConfig,
        epoch: u64,
        states: Vec<Arc<StateData>>,
        projections: Vec<Arc<StateData>>,
        transitions: FxHashMap<TransKey, StateId>,
        projection_cache: FxHashMap<(StateId, u16, u8), StateId>,
        signatures: SignatureInterner,
        dyn_eval: Arc<DynEvalTable>,
        dense: Option<DenseIndex>,
    ) -> Self {
        let dense = dense.unwrap_or_else(|| {
            let view = govern::TableView {
                states: &states,
                projections: &projections,
                transitions: &transitions,
                projection_cache: &projection_cache,
                signatures: &signatures,
                project_children: config.project_children,
            };
            DenseIndex::build(&view, |op| dyn_eval.sig_static(op))
        });
        OnDemandAutomaton {
            grammar,
            config,
            heat: vec![0; states.len()],
            states: StateSet::from_arena(states),
            projections: StateSet::from_arena(projections),
            transitions,
            projection_cache,
            signatures,
            counters: WorkCounters::new(),
            epoch,
            flushes: 0,
            compactions: 0,
            dyn_eval,
            dense,
        }
    }

    /// Discards every state, transition, projection and signature,
    /// returning the automaton to its freshly-created (cold) condition
    /// and starting a new epoch. Work counters are preserved (and record
    /// the flush).
    pub fn clear(&mut self) {
        self.states = StateSet::new();
        self.projections = StateSet::new();
        self.transitions = FxHashMap::default();
        self.projection_cache = FxHashMap::default();
        self.signatures = SignatureInterner::new();
        self.dense = DenseIndex::default();
        self.heat.clear();
        self.epoch += 1;
        self.flushes += 1;
        self.counters.flushes += 1;
    }

    /// The grammar this automaton selects for.
    pub fn grammar(&self) -> &Arc<NormalGrammar> {
        &self.grammar
    }

    /// The current epoch. State ids are only meaningful within one
    /// epoch; a [`clear`](OnDemandAutomaton::clear) (or a
    /// [`BudgetPolicy::Flush`]) and a
    /// [`compact`](OnDemandAutomaton::compact) (or
    /// [`BudgetPolicy::Compact`]) each start the next one.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Freezes the automaton's current tables into an immutable
    /// [`AutomatonSnapshot`].
    ///
    /// The master grows its dense index as it memoizes, so the snapshot
    /// builds nothing: it shares the state data and every index region
    /// by reference count and copies only the per-state rule rows. No
    /// hash map is copied and no region is rebuilt. Publication cost is
    /// therefore proportional to the number of operators and states,
    /// not to the number of transitions; the regions the master writes
    /// to afterwards are copied on that first write, so the price of a
    /// publication shows up as O(growth) on the grow path.
    pub fn snapshot(&self) -> AutomatonSnapshot {
        self.snapshot_with(self.dense.clone())
    }

    /// Like [`snapshot`](Self::snapshot), but with a dense index built
    /// from scratch over the hash tables — the batch build import and
    /// compaction use — instead of the live index the master grows.
    /// O(transitions); for diagnostics and the dense-index differential
    /// tests, which hold every publication against it.
    pub fn snapshot_rebuilt(&self) -> AutomatonSnapshot {
        self.snapshot_with(self.build_index())
    }

    fn snapshot_with(&self, dense: DenseIndex) -> AutomatonSnapshot {
        AutomatonSnapshot::new(
            self.epoch(),
            Arc::clone(&self.grammar),
            self.config,
            self.states.arena().to_vec(),
            self.projections.arena().to_vec(),
            dense,
            Arc::clone(&self.dyn_eval),
        )
    }

    /// A from-scratch dense index over the current hash tables.
    fn build_index(&self) -> DenseIndex {
        let dyn_eval = &self.dyn_eval;
        DenseIndex::build(&self.table_view(), |op| dyn_eval.sig_static(op))
    }

    /// Reconstructs a mutable master automaton from a snapshot — the
    /// warm-start and replica-install path. The master shares the
    /// snapshot's dense index (its regions are copied on the master's
    /// first write to each); only the hash tables are rebuilt from it,
    /// with signatures re-interned in id order so every id is
    /// preserved. The returned automaton labels
    /// everything the snapshot has seen without a single memo miss and
    /// grows from there; its epoch continues from the snapshot's.
    ///
    /// Combined with the [`persist`](crate::persist) module this lets a
    /// restarted process resume at yesterday's hit rates; a table file
    /// can also be imported straight into a master with
    /// [`persist::import_automaton`](crate::persist::import_automaton),
    /// which skips this rebuild.
    pub fn from_snapshot(snapshot: &AutomatonSnapshot) -> Self {
        let dense = snapshot.dense();
        let counts = dense.counts();
        let mut transitions =
            FxHashMap::with_capacity_and_hasher(counts.transitions, Default::default());
        transitions.extend(dense.transitions());
        let mut projection_cache =
            FxHashMap::with_capacity_and_hasher(counts.cached_projections, Default::default());
        projection_cache.extend(dense.projections());
        let mut signatures = SignatureInterner::new();
        for (id, costs) in dense.signatures().enumerate().skip(1) {
            let interned = signatures.intern(&costs);
            debug_assert_eq!(interned, SigId(id as u32), "signature ids are preserved");
        }
        Self::from_tables(
            Arc::clone(snapshot.grammar()),
            snapshot.config(),
            snapshot.epoch(),
            snapshot.states_arena().to_vec(),
            snapshot.projections_arena().to_vec(),
            transitions,
            projection_cache,
            signatures,
            Arc::clone(snapshot.dyn_eval()),
            Some(dense.clone()),
        )
    }

    /// The configuration.
    pub fn config(&self) -> OnDemandConfig {
        self.config
    }

    /// Current size statistics.
    pub fn stats(&self) -> OnDemandStats {
        OnDemandStats {
            states: self.states.len(),
            transitions: self.transitions.len(),
            signatures: self.signatures.len(),
            bytes: self.accounted_bytes().total(),
            flushes: self.flushes,
            compactions: self.compactions,
        }
    }

    /// Per-component byte accounting of the current tables — the number
    /// [`BudgetPolicy::Compact`] and service
    /// [`MemoryBudget`](crate::MemoryBudget)s compare against. Computed
    /// the same way for live masters, published snapshots
    /// ([`SnapshotStats::bytes`](crate::SnapshotStats::bytes)) and
    /// persisted table files
    /// ([`persist::inspect_tables`](crate::persist::inspect_tables)).
    ///
    /// Computed from the live dense index's per-region entry counts and
    /// sizes plus the state arenas — O(ops + states), never a sweep of
    /// the transition table.
    pub fn accounted_bytes(&self) -> ComponentBytes {
        let bytes = govern::component_bytes(
            self.states.arena(),
            self.projections.arena(),
            self.dense.counts(),
            self.dense.byte_size(),
        );
        debug_assert_eq!(bytes, govern::account_tables(&self.table_view()));
        bytes
    }

    fn table_view(&self) -> govern::TableView<'_> {
        govern::TableView {
            states: self.states.arena(),
            projections: self.projections.arena(),
            transitions: &self.transitions,
            projection_cache: &self.projection_cache,
            signatures: &self.signatures,
            project_children: self.config.project_children,
        }
    }

    /// Rebuilds the tables retaining only the hottest states that fit
    /// `target_bytes`, starting a **new epoch** — the memory governor's
    /// surgical alternative to [`clear`](OnDemandAutomaton::clear). See
    /// [`govern`](crate::govern) for the algorithm and
    /// [`BudgetPolicy::Compact`] for when this runs automatically.
    ///
    /// `extra_heat` folds in touch counts gathered outside the master
    /// (the shared automaton passes the published snapshot's fast-path
    /// counters); pass `&[]` when there are none. Evicted entries are
    /// forgotten memoization only — a later miss recomputes them — so
    /// labelings before and after a compaction select identical
    /// instructions at identical costs.
    pub fn compact(&mut self, target_bytes: usize, extra_heat: &[u32]) -> CompactionStats {
        let combined: Vec<u64> = (0..self.states.len())
            .map(|i| {
                self.heat.get(i).copied().unwrap_or(0)
                    + extra_heat.get(i).copied().unwrap_or(0) as u64
            })
            .collect();
        let compacted = govern::compact_tables(&self.table_view(), &combined, target_bytes);
        self.states = StateSet::from_arena(compacted.states);
        self.projections = StateSet::from_arena(compacted.projections);
        self.transitions = compacted.transitions;
        self.projection_cache = compacted.projection_cache;
        self.signatures = compacted.signatures;
        self.heat = compacted.heat;
        self.dense = self.build_index();
        self.epoch += 1;
        self.compactions += 1;
        self.counters.compactions += 1;
        self.counters.states_evicted += compacted.stats.evicted_states as u64;
        compacted.stats
    }

    /// The data of a state.
    pub fn state(&self, id: StateId) -> &StateData {
        self.states.get(id)
    }

    /// Looks up an already-interned dynamic-cost signature without
    /// interning.
    pub fn find_signature(&self, costs: &[RuleCost]) -> Option<SigId> {
        self.signatures.find(costs)
    }

    /// Every memoized transition in raw form (unspecified order), for
    /// diagnostics and the dense-index differential tests.
    pub fn raw_transitions(&self) -> Vec<RawTransition> {
        self.transitions
            .iter()
            .map(|(k, &v)| RawTransition {
                op: k.op,
                kids: k.kids,
                sig: k.sig.0,
                state: v,
            })
            .collect()
    }

    /// Every projection-cache entry in raw form (unspecified order).
    pub fn raw_projections(&self) -> Vec<RawProjection> {
        self.projection_cache
            .iter()
            .map(|(&(full, op, pos), &proj)| RawProjection {
                full,
                op,
                pos,
                projection: proj,
            })
            .collect()
    }

    /// Raw transition probe (no projection resolution — `kids` are the
    /// key's own child ids, unused slots `u32::MAX`).
    pub fn lookup_raw(&self, op: u16, kids: [u32; 2], sig: u32) -> Option<StateId> {
        self.transitions
            .get(&TransKey {
                op,
                kids,
                sig: SigId(sig),
            })
            .copied()
    }

    /// Raw projection-cache probe.
    pub fn project_raw(&self, full: StateId, op: u16, pos: u8) -> Option<StateId> {
        self.projection_cache.get(&(full, op, pos)).copied()
    }

    /// Non-mutating transition lookup: `Some(state)` if the transition for
    /// `(op, kids, sig)` is already memoized, `None` on a miss.
    pub fn peek_transition(&self, op: Op, kid_states: &[StateId], sig: SigId) -> Option<StateId> {
        debug_assert!(
            op.arity() <= crate::snapshot::MAX_ARITY,
            "operator {op} has arity {} beyond what TransKey can hold",
            op.arity()
        );
        debug_assert!(
            kid_states.len() >= op.arity(),
            "peek_transition needs all {} child states of {op}, got {}",
            op.arity(),
            kid_states.len()
        );
        let mut key = TransKey {
            op: op.id().0,
            kids: [NO_CHILD; crate::snapshot::MAX_ARITY],
            sig,
        };
        for (i, &k) in kid_states.iter().take(op.arity()).enumerate() {
            key.kids[i] = if self.config.project_children {
                self.projection_cache.get(&(k, op.id().0, i as u8))?.0
            } else {
                k.0
            };
        }
        self.transitions.get(&key).copied()
    }

    /// Labels a single node given its children's states.
    ///
    /// Exposed for incremental drivers (JITs that label while building the
    /// forest); most callers use
    /// [`label_forest`](OnDemandAutomaton::label_forest).
    ///
    /// # Errors
    ///
    /// [`LabelError::NoCover`] if the grammar cannot derive the node at
    /// all, [`LabelError::StateBudgetExceeded`] if the automaton grew past
    /// its budget.
    pub fn label_node(
        &mut self,
        forest: &Forest,
        node: NodeId,
        kid_states: &[StateId],
    ) -> Result<StateId, LabelError> {
        let op = forest.node(node).op();
        // TransKey invariant (see `snapshot::MAX_ARITY`): a wider
        // operator would silently truncate the key and alias transitions.
        debug_assert!(
            op.arity() <= crate::snapshot::MAX_ARITY,
            "operator {op} has arity {} beyond what TransKey can hold",
            op.arity()
        );
        debug_assert_eq!(
            kid_states.len(),
            op.arity(),
            "label_node takes exactly op.arity() child states"
        );
        self.counters.nodes += 1;

        // 1. Evaluate dynamic costs and intern the signature (fast: most
        //    grammars have no dynamic rules at most operators).
        let (sig, dyn_rules) = self.evaluate_signature(forest, node, op);

        // 2. The fast path: one hash lookup.
        let mut key = TransKey {
            op: op.id().0,
            kids: [NO_CHILD; crate::snapshot::MAX_ARITY],
            sig,
        };
        for (i, &k) in kid_states.iter().enumerate() {
            key.kids[i] = if self.config.project_children {
                self.project_child(op, i, k).0
            } else {
                k.0
            };
        }
        self.counters.hash_lookups += 1;
        if let Some(&state) = self.transitions.get(&key) {
            self.counters.memo_hits += 1;
            self.touch(state);
            return Ok(state);
        }

        // 3. The slow path: compute, intern, memoize — in the hash table
        //    and in the live dense index the next snapshot shares.
        self.counters.memo_misses += 1;
        let state = self.build_state(op, &key, kid_states, &dyn_rules)?;
        self.transitions.insert(key, state);
        let dead = self.states.get(state).is_dead();
        let dyn_eval = &self.dyn_eval;
        self.dense
            .insert_transition(&key, state, dead, |op| dyn_eval.sig_static(op));
        self.touch(state);
        Ok(state)
    }

    /// Total entries across all tables — an O(1) "did anything grow?"
    /// signal (entries are append-only within an epoch, so equality
    /// means the accounted bytes are unchanged too).
    fn table_entries(&self) -> usize {
        self.states.len()
            + self.projections.len()
            + self.transitions.len()
            + self.projection_cache.len()
            + self.signatures.len()
    }

    /// Bumps the epoch-scoped touch counter of `state` (one array write
    /// per labeled node — the price of heat tracking on the
    /// single-threaded path).
    fn touch(&mut self, state: StateId) {
        let i = state.0 as usize;
        if self.heat.len() <= i {
            self.heat.resize(i + 1, 0);
        }
        self.heat[i] += 1;
    }

    /// Evaluates the dynamic rules relevant at `node`, returning the
    /// interned signature and the (rule, cost) pairs for the slow path.
    fn evaluate_signature(
        &mut self,
        forest: &Forest,
        node: NodeId,
        op: Op,
    ) -> (SigId, Vec<(NormalRuleId, RuleCost)>) {
        if !self.grammar.has_dynamic_rules() {
            return (SigId::EMPTY, Vec::new());
        }
        let base = self.grammar.dynamic_base_rules(op);
        let chains = self.grammar.dynamic_chain_rules();
        if base.is_empty() && chains.is_empty() {
            return (SigId::EMPTY, Vec::new());
        }
        let mut pairs = Vec::with_capacity(base.len() + chains.len());
        let mut costs = Vec::with_capacity(base.len() + chains.len());
        for &rule in base.iter().chain(chains) {
            self.counters.dyncost_evals += 1;
            let c = self.grammar.rule_cost_at(rule, forest, node);
            pairs.push((rule, c));
            costs.push(c);
        }
        self.counters.hash_lookups += 1;
        let known = self.signatures.len();
        let sig = self.signatures.intern(&costs);
        if self.signatures.len() > known {
            let indexed = self.dense.insert_signature(&costs);
            debug_assert_eq!(indexed, sig, "index and interner assign the same ids");
        }
        (sig, pairs)
    }

    fn project_child(&mut self, op: Op, pos: usize, kid: StateId) -> StateId {
        let cache_key = (kid, op.id().0, pos as u8);
        self.counters.hash_lookups += 1;
        if let Some(&p) = self.projection_cache.get(&cache_key) {
            return p;
        }
        let projected = self
            .states
            .get(kid)
            .project(self.grammar.operand_nts(op, pos));
        let (pid, _) = self.projections.intern(projected);
        self.projection_cache.insert(cache_key, pid);
        self.dense.insert_projection(kid, op.id().0, pos as u8, pid);
        pid
    }

    fn build_state(
        &mut self,
        op: Op,
        key: &TransKey,
        kid_states: &[StateId],
        dyn_rules: &[(NormalRuleId, RuleCost)],
    ) -> Result<StateId, LabelError> {
        // Gather child state data (projected or full, matching the key).
        let kid_data: Vec<&StateData> = if self.config.project_children {
            key.kids[..op.arity()]
                .iter()
                .map(|&k| self.projections.get(StateId(k)))
                .collect()
        } else {
            kid_states.iter().map(|&k| self.states.get(k)).collect()
        };
        let dyn_cost = |rule: NormalRuleId| {
            dyn_rules
                .iter()
                .find(|(r, _)| *r == rule)
                .map(|&(_, c)| c)
                .unwrap_or(RuleCost::Infinite)
        };
        let state = compute_state(&self.grammar, op, &kid_data, dyn_cost, &mut self.counters);
        let (id, new) = self.states.intern(state);
        if new {
            self.dense.push_state(self.states.get(id));
            self.counters.states_built += 1;
            if self.states.len() > self.config.state_budget {
                return Err(LabelError::StateBudgetExceeded {
                    budget: self.config.state_budget,
                });
            }
        }
        Ok(id)
    }
}

impl OnDemandAutomaton {
    fn label_forest_once(&mut self, forest: &Forest) -> Result<Labeling, LabelError> {
        let mut states: Vec<StateId> = Vec::with_capacity(forest.len());
        let mut kid_buf: Vec<StateId> = Vec::with_capacity(2);
        for (id, node) in forest.iter() {
            kid_buf.clear();
            for &c in node.children() {
                kid_buf.push(states[c.index()]);
            }
            let state = self.label_node(forest, id, &kid_buf)?;
            if self.states.get(state).is_dead() {
                return Err(LabelError::NoCover {
                    node: id,
                    op: node.op(),
                });
            }
            states.push(state);
        }
        Ok(Labeling::from_states(states))
    }
}

impl Labeler for OnDemandAutomaton {
    type Output = Labeling;

    fn label_forest(&mut self, forest: &Forest) -> Result<Labeling, LabelError> {
        // Bytes only move when a table gained an entry; this count is
        // the O(1) gate that keeps warm (all-hit) forests from paying
        // the O(tables) accounting sweep below.
        let entries_before = self.table_entries();
        match self.label_forest_once(forest) {
            Err(LabelError::StateBudgetExceeded { .. })
                if self.config.budget_policy == BudgetPolicy::Flush =>
            {
                // Bounded-memory mode: drop the whole automaton and give
                // this forest one fresh start. A second overflow means
                // the single forest alone exceeds the budget.
                self.clear();
                self.label_forest_once(forest)
            }
            Err(LabelError::StateBudgetExceeded { .. })
                if matches!(self.config.budget_policy, BudgetPolicy::Compact { .. }) =>
            {
                // Governed mode: evict the cold tail instead of wiping
                // everything, then give this forest one fresh start (its
                // prefix is hot by construction — it was just touched).
                let BudgetPolicy::Compact {
                    byte_budget,
                    retain_fraction,
                } = self.config.budget_policy
                else {
                    unreachable!("guarded by the match arm");
                };
                self.compact(
                    govern::compact_target_bytes(byte_budget, retain_fraction),
                    &[],
                );
                self.label_forest_once(forest)
            }
            Ok(labeling) => {
                if let BudgetPolicy::Compact {
                    byte_budget,
                    retain_fraction,
                } = self.config.budget_policy
                {
                    if self.table_entries() != entries_before
                        && self.accounted_bytes().total() > byte_budget
                    {
                        // The forest grew the tables past the budget:
                        // compact (this forest's states are at peak
                        // heat, so its working set survives) and
                        // relabel, so the ids handed back belong to the
                        // post-compaction epoch the automaton is left
                        // in.
                        self.compact(
                            govern::compact_target_bytes(byte_budget, retain_fraction),
                            &[],
                        );
                        return self.label_forest_once(forest);
                    }
                }
                Ok(labeling)
            }
            result => result,
        }
    }

    fn counters(&self) -> WorkCounters {
        self.counters
    }

    fn reset_counters(&mut self) {
        self.counters.reset();
    }

    fn name(&self) -> &'static str {
        "ondemand"
    }
}

impl StateLookup for OnDemandAutomaton {
    fn rule_in_state(&self, state: StateId, nt: NtId) -> Option<NormalRuleId> {
        self.states.get(state).rule(nt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odburg_grammar::parse_grammar;
    use odburg_ir::parse_sexpr;

    const DEMO: &str = r#"
        %grammar demo
        %start stmt
        addr: reg (0)
        reg: ConstI8 (1)
        reg: LoadI8(addr) (1)
        reg: AddI8(reg, reg) (1)
        stmt: StoreI8(addr, reg) (1)
        stmt: StoreI8(addr, AddI8(LoadI8(addr), reg)) (1)
    "#;

    fn demo_automaton() -> OnDemandAutomaton {
        let g = parse_grammar(DEMO).unwrap().normalize();
        OnDemandAutomaton::new(Arc::new(g))
    }

    fn forest_of(src: &str) -> (Forest, NodeId) {
        let mut f = Forest::new();
        let root = parse_sexpr(&mut f, src).unwrap();
        f.add_root(root);
        (f, root)
    }

    #[test]
    fn second_forest_is_all_hits() {
        let mut auto = demo_automaton();
        let (f, _) = forest_of("(StoreI8 (ConstI8 0) (AddI8 (LoadI8 (ConstI8 0)) (ConstI8 5)))");
        auto.label_forest(&f).unwrap();
        assert!(auto.counters().memo_misses > 0);
        auto.reset_counters();
        auto.label_forest(&f).unwrap();
        assert_eq!(auto.counters().memo_misses, 0, "relabeling must not miss");
        assert_eq!(auto.counters().memo_hits as usize, f.len());
    }

    #[test]
    fn states_match_paper_structure() {
        // The running example has 6 automaton states (Fig. 5 of the
        // CC'18 background; the same grammar without constraints).
        let mut auto = demo_automaton();
        let (f, _) = forest_of("(StoreI8 (ConstI8 0) (AddI8 (LoadI8 (ConstI8 0)) (ConstI8 5)))");
        auto.label_forest(&f).unwrap();
        let (f2, _) = forest_of("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        auto.label_forest(&f2).unwrap();
        // Reg-leaf, Load, Plus(load,reg), Plus(reg,reg), Store(rmw), Store.
        assert_eq!(auto.stats().states, 6);
    }

    #[test]
    fn uncovered_node_errors() {
        let mut auto = demo_automaton();
        let (f, root) = forest_of("(MulF8 (ConstF8 #1.0) (ConstF8 #2.0))");
        let err = auto.label_forest(&f).unwrap_err();
        match err {
            LabelError::NoCover { node, .. } => assert!(node <= root),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn state_budget_enforced() {
        let g = parse_grammar(DEMO).unwrap().normalize();
        let mut auto = OnDemandAutomaton::with_config(
            Arc::new(g),
            OnDemandConfig {
                state_budget: 1,
                ..OnDemandConfig::default()
            },
        );
        let (f, _) = forest_of("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        assert!(matches!(
            auto.label_forest(&f),
            Err(LabelError::StateBudgetExceeded { budget: 1 })
        ));
    }

    #[test]
    fn projection_mode_shares_more() {
        let (f, _) = forest_of("(StoreI8 (ConstI8 0) (AddI8 (LoadI8 (ConstI8 0)) (ConstI8 5)))");
        let g = Arc::new(parse_grammar(DEMO).unwrap().normalize());
        let mut direct = OnDemandAutomaton::new(g.clone());
        direct.label_forest(&f).unwrap();
        let mut projected = OnDemandAutomaton::with_config(
            g,
            OnDemandConfig {
                project_children: true,
                ..OnDemandConfig::default()
            },
        );
        projected.label_forest(&f).unwrap();
        // Both must produce the same number of *states*; projection can
        // only reduce the number of distinct transitions, never change
        // the states' semantics.
        assert_eq!(direct.stats().states, projected.stats().states);
        assert!(projected.stats().transitions <= direct.stats().transitions);
    }

    #[test]
    fn compact_evicts_cold_and_keeps_hot() {
        let mut auto = demo_automaton();
        let (hot, _) = forest_of("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        let (cold, _) = forest_of("(StoreI8 (ConstI8 0) (LoadI8 (ConstI8 4)))");
        // Make the add-shaped working set hot, touch the load shape once.
        for _ in 0..8 {
            auto.label_forest(&hot).unwrap();
        }
        auto.label_forest(&cold).unwrap();
        let before = auto.accounted_bytes().total();
        let epoch_before = auto.epoch();

        // A target just below the current footprint evicts exactly the
        // coldest tail that no longer fits — the load shape, touched
        // once, goes first.
        let stats = auto.compact(before - 1, &[]);
        assert!(stats.evicted_states > 0, "{stats:?}");
        assert!(stats.bytes_after < before, "{stats:?}");
        assert_eq!(auto.epoch(), epoch_before + 1, "compaction starts an epoch");
        assert_eq!(auto.stats().compactions, 1);
        assert_eq!(auto.counters().compactions, 1);
        assert_eq!(auto.counters().states_evicted, stats.evicted_states as u64);

        // The hot working set survived: relabeling it misses nothing.
        auto.reset_counters();
        auto.label_forest(&hot).unwrap();
        assert_eq!(auto.counters().memo_misses, 0, "hot set must survive");
        // The cold shape was evicted and re-learns (correctly) on a miss.
        auto.label_forest(&cold).unwrap();
        assert!(auto.counters().memo_misses > 0, "cold set must be evicted");
    }

    #[test]
    fn compact_policy_keeps_bytes_under_budget() {
        // A grammar whose dynamic cost depends on the constant's value:
        // every distinct constant interns a new signature and mints new
        // transitions, so the tables grow without bound — unless
        // governed.
        let mut g = parse_grammar(
            r#"
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
            Arc::new(|forest: &Forest, node| {
                let v = forest.node(node).payload().as_int().unwrap_or(0);
                odburg_grammar::RuleCost::Finite((v.unsigned_abs() % 999) as u16)
            }),
        )
        .unwrap();
        let byte_budget = 16 * 1024;
        let mut auto = OnDemandAutomaton::with_config(
            Arc::new(g.normalize()),
            OnDemandConfig {
                budget_policy: BudgetPolicy::Compact {
                    byte_budget,
                    retain_fraction: 0.5,
                },
                ..OnDemandConfig::default()
            },
        );
        for k in 0..400 {
            let (f, _) = forest_of(&format!("(StoreI8 (ConstI8 {k}) (ConstI8 {}))", k + 1000));
            auto.label_forest(&f).unwrap();
            assert!(
                auto.accounted_bytes().total() <= byte_budget,
                "bytes exceeded the budget after forest {k}"
            );
        }
        assert!(
            auto.stats().compactions > 0,
            "churn must trigger compaction"
        );
    }

    #[test]
    fn dynamic_costs_split_states() {
        let g = parse_grammar(
            r#"
            %start reg
            %dyncost imm8
            reg: ConstI8 [imm8]
            reg: ConstI8 (4)
            reg: AddI8(reg, reg) (1)
            "#,
        )
        .unwrap();
        let mut g = g;
        g.bind_dyncost(
            "imm8",
            Arc::new(|forest, node| match forest.node(node).payload().as_int() {
                Some(v) if (-128..128).contains(&v) => RuleCost::Finite(1),
                _ => RuleCost::Infinite,
            }),
        )
        .unwrap();
        let mut auto = OnDemandAutomaton::new(Arc::new(g.normalize()));
        let (f, _) = forest_of("(AddI8 (ConstI8 5) (ConstI8 5000))");
        let labeling = auto.label_forest(&f).unwrap();
        // The two constants must be in different states: one uses the
        // immediate rule, the other the expensive rule.
        assert_ne!(labeling.state_of(NodeId(0)), labeling.state_of(NodeId(1)));
        assert!(auto.stats().signatures >= 3); // empty + applicable + not
    }
}
