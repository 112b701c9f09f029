//! Thread-safe shared on-demand automata for concurrent JIT compilation.
//!
//! Two implementations live here:
//!
//! * [`SharedOnDemand`] — the **snapshot-based concurrent core**. The
//!   automaton's tables are published as an immutable
//!   [`AutomatonSnapshot`] behind an atomically swappable pointer
//!   ([`arc_swap::ArcSwap`]); reader threads label entire forests against
//!   the current snapshot with **zero locks and zero shared-memory
//!   writes** (one atomic pointer load per forest, one atomic counter
//!   merge at the end). Only a forest that contains a transition the
//!   snapshot has not seen enters the single-writer grow path: the
//!   mutable master automaton behind a mutex, which computes the missing
//!   states and publishes a fresh snapshot. The warmer the automaton, the
//!   closer every thread is to private table lookups — which is the
//!   paper's convergence argument carried over to the memory system.
//! * [`CoarseSharedOnDemand`] — the previous design: one `RwLock` around
//!   the whole automaton, readers under the read lock, upgrade to the
//!   write lock on a miss. Kept as the comparison baseline for the
//!   `thread_scaling` benchmark and as the simplest correct reference.
//!
//! Why the snapshot core scales: under the coarse lock, every
//! `label_forest` call bounces the `RwLock`'s reader count between cores
//! even when the automaton is fully warmed, and one cold forest blocks
//! all readers for its entire labeling. Under snapshots, warm readers
//! touch no shared cache line at all (the pointer load plus one hazard
//! slot) and a cold forest blocks nobody — readers keep answering from
//! the still-current snapshot while the writer grows the master.
//!
//! Replaced snapshots are reclaimed on publication unless something can
//! still reference them: a reader mid-forest (hazard-protected) or a
//! [`PinnedLabeling`]. The retire list is therefore bounded by live
//! pins, not by the number of publications — see the `arc_swap` shim
//! docs for the reclamation protocol.

use std::sync::Arc;

use arc_swap::ArcSwap;
use parking_lot::{Mutex, RwLock};

use odburg_grammar::{NormalRuleId, NtId, RuleCost};
use odburg_ir::{Forest, NodeId, Op};

use crate::counters::{AtomicWorkCounters, WorkCounters};
use crate::govern::{
    self, CompactionStats, ComponentBytes, MemoryBudget, PressureAction, PressureEvent,
};
use crate::label::{LabelError, Labeler, Labeling, StateChooser, StateLookup};
use crate::ondemand::{BudgetPolicy, OnDemandAutomaton, OnDemandConfig};
use crate::signature::SigId;
use crate::snapshot::{AutomatonSnapshot, MAX_ARITY};
use crate::state::StateId;

/// Why [`SharedOnDemand::install_snapshot`] refused a shipped snapshot.
///
/// Installation is the replication receive path: a remote writer's
/// published tables arriving at a read replica. Every refusal is typed —
/// a replica never silently falls back to a cold start, because the
/// caller must decide whether a mismatch is fatal (wrong grammar on the
/// wire) or benign (an out-of-order shipment that newer tables already
/// supersede).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// The shipped tables were built under a different grammar.
    GrammarMismatch {
        /// Fingerprint of the grammar this automaton runs.
        expected: u64,
        /// Fingerprint carried by the shipped snapshot.
        found: u64,
    },
    /// The shipped tables were built under a different configuration
    /// (projection mode or budget policy), so their state space is not
    /// interchangeable with ours.
    ConfigMismatch {
        /// Configuration this automaton runs.
        expected: OnDemandConfig,
        /// Configuration carried by the shipped snapshot.
        found: OnDemandConfig,
    },
    /// The shipped snapshot is not strictly newer than what is already
    /// published: its `(epoch, states)` pair is `<=` ours. Within an
    /// epoch the arena is append-only, so more states means newer;
    /// across epochs the epoch counter decides.
    Stale {
        /// `(epoch, states)` of the currently published snapshot.
        current: (u64, usize),
        /// `(epoch, states)` of the refused shipment.
        shipped: (u64, usize),
    },
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::GrammarMismatch { expected, found } => write!(
                f,
                "shipped tables belong to grammar {found:#018x}, automaton runs {expected:#018x}"
            ),
            InstallError::ConfigMismatch { expected, found } => write!(
                f,
                "shipped tables built under {found:?}, automaton runs {expected:?}"
            ),
            InstallError::Stale { current, shipped } => write!(
                f,
                "shipped snapshot (epoch {}, {} states) is not newer than \
                 published (epoch {}, {} states)",
                shipped.0, shipped.1, current.0, current.1
            ),
        }
    }
}

impl std::error::Error for InstallError {}

/// The snapshot-based shared on-demand automaton.
///
/// Wrap it in an `Arc` and hand clones to compilation threads.
///
/// # Examples
///
/// ```
/// use odburg_core::{OnDemandAutomaton, SharedOnDemand};
/// use odburg_grammar::parse_grammar;
/// use odburg_ir::{parse_sexpr, Forest};
/// use std::sync::Arc;
///
/// let g = parse_grammar("%start reg\nreg: ConstI8 (1)\nreg: AddI8(reg, reg) (1)\n")?;
/// let shared = Arc::new(SharedOnDemand::new(OnDemandAutomaton::new(
///     Arc::new(g.normalize()),
/// )));
/// let mut handles = Vec::new();
/// for _ in 0..4 {
///     let shared = Arc::clone(&shared);
///     handles.push(std::thread::spawn(move || {
///         let mut f = Forest::new();
///         let root = parse_sexpr(&mut f, "(AddI8 (ConstI8 1) (ConstI8 2))").unwrap();
///         f.add_root(root);
///         shared.label_forest(&f).unwrap();
///     }));
/// }
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert_eq!(shared.stats().states, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SharedOnDemand {
    /// The published snapshot readers label against. A replaced snapshot
    /// is retired and stays alive exactly as long as something can still
    /// reference it — a reader mid-forest, or a [`PinnedLabeling`]
    /// holding it; every other replaced snapshot is dropped on the next
    /// publication, so grow-churn workloads do not accumulate dead
    /// tables. See [`BudgetPolicy::Flush`] for the epoch interaction.
    current: ArcSwap<AutomatonSnapshot>,
    /// The mutable master automaton — the single-writer grow path.
    writer: Mutex<OnDemandAutomaton>,
    /// Lock-free work counters (the coarse design kept these in a
    /// `Mutex`).
    counters: AtomicWorkCounters,
    /// Optional telemetry emitter (see [`crate::telemetry`]): when
    /// attached, epoch publications and governor actions leave
    /// flight-recorder events. Off the labeling hot path — only the
    /// writer-side publish/enforce paths touch it.
    events: Mutex<Option<crate::telemetry::EventScope>>,
}

/// A labeling pinned to the exact snapshot its state ids refer to.
///
/// Returned by [`SharedOnDemand::label_forest_pinned`]; this is the
/// flush-safe way to hold labelings across forests, because the pinned
/// snapshot keeps its epoch's tables alive regardless of how often the
/// shared automaton is flushed afterwards.
#[derive(Debug)]
pub struct PinnedLabeling {
    snapshot: Arc<AutomatonSnapshot>,
    labeling: Labeling,
}

impl PinnedLabeling {
    /// The per-node states.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// The snapshot the state ids belong to.
    pub fn snapshot(&self) -> &Arc<AutomatonSnapshot> {
        &self.snapshot
    }

    /// The state assigned to `node`, resolved against the pinned
    /// snapshot.
    pub fn state_data(&self, node: NodeId) -> &crate::StateData {
        self.snapshot.state(self.labeling.state_of(node))
    }

    /// A [`RuleChooser`](crate::RuleChooser) over the pinned snapshot.
    pub fn chooser(&self) -> StateChooser<'_, AutomatonSnapshot> {
        self.labeling.chooser(&self.snapshot)
    }
}

impl SharedOnDemand {
    /// Wraps an automaton for shared use, publishing its current tables
    /// as the initial snapshot.
    pub fn new(automaton: OnDemandAutomaton) -> Self {
        SharedOnDemand {
            current: ArcSwap::new(Arc::new(automaton.snapshot())),
            writer: Mutex::new(automaton),
            counters: AtomicWorkCounters::new(),
            events: Mutex::new(None),
        }
    }

    /// Warm-starts a shared automaton from a previously built (e.g.
    /// [imported](crate::persist)) snapshot: the snapshot is published
    /// as-is for lock-free readers and the master automaton is
    /// reconstructed from its tables, so workloads the snapshot has
    /// already seen never enter the grow path.
    pub fn with_seed_snapshot(snapshot: Arc<AutomatonSnapshot>) -> Self {
        let master = OnDemandAutomaton::from_snapshot(&snapshot);
        SharedOnDemand {
            current: ArcSwap::new(snapshot),
            writer: Mutex::new(master),
            counters: AtomicWorkCounters::new(),
            events: Mutex::new(None),
        }
    }

    /// Attaches a telemetry emitter: from now on, snapshot publications
    /// record [`crate::telemetry::EventKind::EpochPublish`] and governor
    /// actions record `Compact`/`Flush` in the scope's flight-recorder
    /// lane. Idempotent; replaces any previous scope.
    pub fn attach_telemetry(&self, scope: crate::telemetry::EventScope) {
        *self.events.lock() = Some(scope);
    }

    /// Labels a forest. On the warm path (every transition present in
    /// the current snapshot) this takes **no lock**: one atomic pointer
    /// load, immutable reads, one atomic counter merge.
    ///
    /// # Errors
    ///
    /// Same as [`OnDemandAutomaton::label_forest`].
    pub fn label_forest(&self, forest: &Forest) -> Result<Labeling, LabelError> {
        let snap = self.current.load();
        let (states, _) = self.label_core(&snap, forest)?;
        Ok(Labeling::from_states(states))
    }

    /// Labels a forest and pins the snapshot the resulting state ids
    /// refer to. Use this when labelings outlive the next flush (see
    /// [`BudgetPolicy::Flush`]).
    ///
    /// # Errors
    ///
    /// Same as [`OnDemandAutomaton::label_forest`].
    pub fn label_forest_pinned(&self, forest: &Forest) -> Result<PinnedLabeling, LabelError> {
        let snap = self.current.load_full();
        let (states, published) = self.label_core(&snap, forest)?;
        Ok(PinnedLabeling {
            snapshot: published.unwrap_or(snap),
            labeling: Labeling::from_states(states),
        })
    }

    /// The shared labeling algorithm: fast path against `snap`, slow
    /// path through the writer. Returns the per-node states and, if the
    /// slow path ran, the snapshot it published (whose epoch the states
    /// belong to).
    fn label_core(
        &self,
        snap: &AutomatonSnapshot,
        forest: &Forest,
    ) -> Result<(Vec<StateId>, Option<Arc<AutomatonSnapshot>>), LabelError> {
        let mut local = WorkCounters::new();

        // Fast path: level-batched walk over the snapshot's dense index
        // — no locks, no hashing, one bounded probe per node (see
        // [`AutomatonSnapshot::label_warm`]). A miss hands the longest
        // resolved arena prefix to the grow path, exactly as the
        // per-node walk did.
        let walk = snap.label_warm(forest, &mut local);
        if let Some(id) = walk.nocover {
            self.counters.merge(&local);
            return Err(LabelError::NoCover {
                node: id,
                op: forest.node(id).op(),
            });
        }
        let mut states = walk.states;

        // Heat: one relaxed add per fast-path-resolved state, merged
        // here once per forest so the hot loop itself stays write-free.
        snap.record_heat(&states);

        // Warm path: everything answered from the snapshot.
        if states.len() == forest.len() {
            self.counters.merge(&local);
            return Ok((states, None));
        }

        // Slow path: single-writer grow, then publish a new snapshot.
        let result = {
            let mut master = self.writer.lock();

            // A flush or compaction may have started a new epoch since
            // our snapshot was loaded; prefix state ids would then be
            // meaningless in the master, so relabel the forest from the
            // top. (Within an epoch the master is append-only, so the
            // prefix is valid.)
            if master.epoch() != snap.epoch() {
                states.clear();
            }

            let mut outcome = label_rest(&mut master, forest, &mut states);
            if matches!(outcome, Err(LabelError::StateBudgetExceeded { .. })) {
                match master.config().budget_policy {
                    BudgetPolicy::Flush => {
                        // Bounded-memory mode: flush (starting a new
                        // epoch) and give this forest one fresh start. A
                        // second overflow means the forest alone exceeds
                        // the budget.
                        master.clear();
                        states.clear();
                        outcome = label_rest(&mut master, forest, &mut states);
                    }
                    BudgetPolicy::Compact {
                        byte_budget,
                        retain_fraction,
                    } => {
                        // Governed mode: evict the cold tail (folding in
                        // the published snapshot's fast-path heat) and
                        // give this forest one fresh start in the new
                        // epoch.
                        let heat = self.published_heat(&master);
                        master.compact(
                            govern::compact_target_bytes(byte_budget, retain_fraction),
                            &heat,
                        );
                        states.clear();
                        outcome = label_rest(&mut master, forest, &mut states);
                    }
                    BudgetPolicy::Error => {}
                }
            }

            // Byte-pressure check, *before* publishing: compaction
            // densely remaps state ids, so the states handed back must
            // be relabeled against the compacted epoch — a stale id
            // would otherwise silently alias a different (in-range)
            // state in the published snapshot. The relabel is cheap:
            // this forest's states were just touched, so they are at
            // peak heat and survive the compaction.
            if outcome.is_ok() {
                if let BudgetPolicy::Compact {
                    byte_budget,
                    retain_fraction,
                } = master.config().budget_policy
                {
                    if master.accounted_bytes().total() > byte_budget {
                        let heat = self.published_heat(&master);
                        master.compact(
                            govern::compact_target_bytes(byte_budget, retain_fraction),
                            &heat,
                        );
                        states.clear();
                        outcome = label_rest(&mut master, forest, &mut states);
                    }
                }
            }

            // Publish what the writer learned — also on failure: dead
            // states and new epochs must reach the snapshot so repeated
            // errors (and post-flush/compaction forests) are answered
            // lock-free. The returned labeling's ids belong to exactly
            // this snapshot.
            let published = self.publish(&master);
            outcome.map(|()| published)
        };

        self.counters.merge(&local);
        Ok((states, Some(result?)))
    }

    /// Freezes and publishes the master's tables, carrying the replaced
    /// snapshot's fast-path heat forward when both belong to the same
    /// epoch (the arena is append-only within an epoch, so ids line up).
    fn publish(&self, master: &OnDemandAutomaton) -> Arc<AutomatonSnapshot> {
        let snap = Arc::new(master.snapshot());
        snap.adopt_heat(&self.current.load());
        self.current.store(Arc::clone(&snap));
        if let Some(scope) = self.events.lock().as_ref() {
            scope.emit(crate::telemetry::EventKind::EpochPublish, snap.epoch());
        }
        snap
    }

    /// Installs a snapshot shipped from a remote writer, publishing it
    /// through the same epoch/hazard-pointer path a local grow or
    /// compaction uses: readers mid-forest and [`PinnedLabeling`]s keep
    /// their pinned snapshot alive and unchanged, new readers see the
    /// shipped tables on their next pointer load. The master automaton is
    /// rebuilt from the shipped tables, so traffic the remote writer has
    /// already seen never enters the grow path here.
    ///
    /// The shipment is fenced, not trusted: it must carry our grammar
    /// fingerprint and configuration, and must be *strictly newer* than
    /// the published snapshot under the lexicographic `(epoch, states)`
    /// order — a late broadcast from a deposed writer, or a re-delivered
    /// duplicate, is rejected as [`InstallError::Stale`] without
    /// disturbing the published tables.
    ///
    /// Returns the installed snapshot's epoch.
    ///
    /// # Errors
    ///
    /// [`InstallError`] when the shipment is refused; the automaton is
    /// unchanged in every error case.
    pub fn install_snapshot(&self, snapshot: Arc<AutomatonSnapshot>) -> Result<u64, InstallError> {
        let current = self.current.load();
        let expected_fp = current.grammar().fingerprint();
        let found_fp = snapshot.grammar().fingerprint();
        if found_fp != expected_fp {
            return Err(InstallError::GrammarMismatch {
                expected: expected_fp,
                found: found_fp,
            });
        }
        if snapshot.config() != current.config() {
            return Err(InstallError::ConfigMismatch {
                expected: current.config(),
                found: snapshot.config(),
            });
        }
        let fence = |cur: &AutomatonSnapshot| {
            let current_key = (cur.epoch(), cur.states_arena().len());
            let shipped_key = (snapshot.epoch(), snapshot.states_arena().len());
            if shipped_key <= current_key {
                Err(InstallError::Stale {
                    current: current_key,
                    shipped: shipped_key,
                })
            } else {
                Ok(())
            }
        };
        // Cheap pre-check before contending on the writer lock...
        fence(&current)?;
        drop(current);

        let mut master = self.writer.lock();
        // ...re-checked under it: a concurrent grow or install may have
        // published newer tables while we waited.
        fence(&self.current.load())?;
        *master = OnDemandAutomaton::from_snapshot(&snapshot);
        let epoch = snapshot.epoch();
        self.current.store(snapshot);
        if let Some(scope) = self.events.lock().as_ref() {
            scope.emit(crate::telemetry::EventKind::EpochPublish, epoch);
        }
        Ok(epoch)
    }

    /// The published snapshot's heat counters, when they still describe
    /// the master's epoch (empty otherwise — stale heat must not guide
    /// eviction in a newer epoch).
    fn published_heat(&self, master: &OnDemandAutomaton) -> Vec<u32> {
        let current = self.current.load();
        if current.epoch() == master.epoch() {
            current.heat_counts()
        } else {
            Vec::new()
        }
    }

    /// Runs a compaction pass now if this automaton's
    /// [`BudgetPolicy::Compact`] budget is exceeded; `None` when the
    /// policy is not `Compact` or the tables fit. The compacted snapshot
    /// is published before returning. This is the trigger the selection
    /// service's `drain` uses between batches.
    pub fn maybe_compact(&self) -> Option<CompactionStats> {
        let mut master = self.writer.lock();
        let BudgetPolicy::Compact {
            byte_budget,
            retain_fraction,
        } = master.config().budget_policy
        else {
            return None;
        };
        if master.accounted_bytes().total() <= byte_budget {
            return None;
        }
        let heat = self.published_heat(&master);
        let stats = master.compact(
            govern::compact_target_bytes(byte_budget, retain_fraction),
            &heat,
        );
        self.publish(&master);
        Some(stats)
    }

    /// Enforces an externally supplied [`MemoryBudget`] (the selection
    /// service's per-target budgets), independent of the automaton's own
    /// [`BudgetPolicy`]: when the accounted bytes exceed the budget, the
    /// configured action runs — [`PressureAction::Flush`] wipes the
    /// tables, [`PressureAction::Compact`] evicts the cold tail — and
    /// the result is published. Pinned labelings are unaffected either
    /// way (their snapshots stay alive). Returns what happened, or
    /// `None` when the tables fit.
    pub fn enforce_budget(&self, budget: &MemoryBudget) -> Option<PressureEvent> {
        let mut master = self.writer.lock();
        let bytes_before = master.accounted_bytes().total();
        if bytes_before <= budget.byte_budget {
            return None;
        }
        match budget.action {
            PressureAction::Flush => {
                master.clear();
            }
            PressureAction::Compact { retain_fraction } => {
                let heat = self.published_heat(&master);
                master.compact(
                    govern::compact_target_bytes(budget.byte_budget, retain_fraction),
                    &heat,
                );
            }
        }
        self.publish(&master);
        let event = PressureEvent {
            action: budget.action,
            bytes_before,
            bytes_after: master.accounted_bytes().total(),
        };
        if let Some(scope) = self.events.lock().as_ref() {
            scope.emit(event.action.event_kind(), event.bytes_after as u64);
        }
        Some(event)
    }

    /// Per-component byte accounting of the master's tables (takes the
    /// writer lock; intended for monitoring, not hot paths).
    pub fn accounted_bytes(&self) -> ComponentBytes {
        self.writer.lock().accounted_bytes()
    }

    /// Work accumulated by the snapshot fast path plus the master
    /// automaton's grow path.
    pub fn counters(&self) -> WorkCounters {
        let mut c = self.counters.snapshot();
        c.merge(&self.writer.lock().counters());
        c
    }

    /// Size statistics of the master automaton (the most recent tables,
    /// published or not).
    pub fn stats(&self) -> crate::OnDemandStats {
        self.writer.lock().stats()
    }

    /// The currently published snapshot, pinned.
    pub fn snapshot(&self) -> Arc<AutomatonSnapshot> {
        self.current.load_full()
    }

    /// Number of snapshots published by the grow path so far (a measure
    /// of grow-path activity).
    pub fn snapshots_published(&self) -> usize {
        self.current.store_count()
    }

    /// Number of replaced snapshots still held alive — bounded by the
    /// live [`PinnedLabeling`]s (plus readers momentarily mid-forest),
    /// not by the number of publications.
    pub fn snapshots_retained(&self) -> usize {
        self.current.retired_len()
    }

    /// Runs `f` with shared access to the master automaton. Takes the
    /// writer lock; intended for inspection, not for hot paths.
    pub fn with_read<R>(&self, f: impl FnOnce(&OnDemandAutomaton) -> R) -> R {
        f(&self.writer.lock())
    }

    /// Consumes the wrapper and returns the master automaton.
    pub fn into_inner(self) -> OnDemandAutomaton {
        self.writer.into_inner()
    }
}

/// Labels `forest` from `states.len()` onward against the master.
fn label_rest(
    master: &mut OnDemandAutomaton,
    forest: &Forest,
    states: &mut Vec<StateId>,
) -> Result<(), LabelError> {
    let mut kid_buf: Vec<StateId> = Vec::with_capacity(2);
    for idx in states.len()..forest.len() {
        let id = NodeId(idx as u32);
        let node = forest.node(id);
        kid_buf.clear();
        for &c in node.children() {
            kid_buf.push(states[c.index()]);
        }
        let sid = master.label_node(forest, id, &kid_buf)?;
        if master.state(sid).is_dead() {
            return Err(LabelError::NoCover {
                node: id,
                op: node.op(),
            });
        }
        states.push(sid);
    }
    Ok(())
}

/// Read-only view of an automaton's transition tables; the coarse-lock
/// baseline's fast-path lookup [`peek`] is written against this. (The
/// snapshot core used to share it; it now walks the dense index via
/// [`AutomatonSnapshot::label_warm`], whose hash-path twin
/// `label_warm_hash` keeps the same key construction alive as the
/// benchmark baseline.)
trait TransitionView {
    fn view_grammar(&self) -> &odburg_grammar::NormalGrammar;
    fn view_signature(&self, costs: &[RuleCost]) -> Option<SigId>;
    fn view_lookup(&self, op: Op, kids: &[StateId], sig: SigId) -> Option<StateId>;
}

impl TransitionView for OnDemandAutomaton {
    fn view_grammar(&self) -> &odburg_grammar::NormalGrammar {
        self.grammar()
    }
    fn view_signature(&self, costs: &[RuleCost]) -> Option<SigId> {
        self.find_signature(costs)
    }
    fn view_lookup(&self, op: Op, kids: &[StateId], sig: SigId) -> Option<StateId> {
        self.peek_transition(op, kids, sig)
    }
}

/// Non-mutating transition lookup; `None` means "miss, take the slow
/// path". Mirrors the key construction of
/// [`OnDemandAutomaton::label_node`].
fn peek<V: TransitionView>(
    view: &V,
    forest: &Forest,
    node: NodeId,
    op: Op,
    kids: &[StateId; MAX_ARITY],
    local: &mut WorkCounters,
) -> Option<StateId> {
    let grammar = view.view_grammar();
    let sig = if grammar.has_dynamic_rules() {
        let base = grammar.dynamic_base_rules(op);
        let chains = grammar.dynamic_chain_rules();
        if base.is_empty() && chains.is_empty() {
            SigId::EMPTY
        } else {
            let costs: Vec<RuleCost> = base
                .iter()
                .chain(chains)
                .map(|&r| {
                    local.dyncost_evals += 1;
                    grammar.rule_cost_at(r, forest, node)
                })
                .collect();
            view.view_signature(&costs)?
        }
    } else {
        SigId::EMPTY
    };
    view.view_lookup(op, &kids[..op.arity()], sig)
}

impl StateLookup for SharedOnDemand {
    /// Resolves against the currently published snapshot. Within an
    /// epoch this is always correct (ids are append-only). Across a
    /// [`BudgetPolicy::Flush`], a stale id degrades to `None` (the
    /// snapshot's lookup is bounds-checked) — prefer
    /// [`SharedOnDemand::label_forest_pinned`] when labelings outlive
    /// flushes.
    fn rule_in_state(&self, state: StateId, nt: NtId) -> Option<NormalRuleId> {
        self.current.load().rule_in_state(state, nt)
    }
}

impl Labeler for SharedOnDemand {
    type Output = Labeling;

    fn label_forest(&mut self, forest: &Forest) -> Result<Labeling, LabelError> {
        SharedOnDemand::label_forest(self, forest)
    }

    fn counters(&self) -> WorkCounters {
        SharedOnDemand::counters(self)
    }

    fn reset_counters(&mut self) {
        self.counters.reset();
        self.writer.get_mut().reset_counters();
    }

    fn name(&self) -> &'static str {
        "shared"
    }
}

/// The coarse-lock shared automaton: one `RwLock` around the whole
/// automaton (read lock on the warm path, write lock from the first miss
/// onward).
///
/// Superseded by the snapshot-based [`SharedOnDemand`]; kept as the
/// baseline the `thread_scaling` benchmark compares against.
#[derive(Debug)]
pub struct CoarseSharedOnDemand {
    inner: RwLock<OnDemandAutomaton>,
    counters: Mutex<WorkCounters>,
}

impl CoarseSharedOnDemand {
    /// Wraps an automaton for shared use.
    pub fn new(automaton: OnDemandAutomaton) -> Self {
        CoarseSharedOnDemand {
            inner: RwLock::new(automaton),
            counters: Mutex::new(WorkCounters::new()),
        }
    }

    /// Labels a forest, taking the write lock only if the automaton is
    /// missing a transition.
    ///
    /// # Errors
    ///
    /// Same as [`OnDemandAutomaton::label_node`].
    pub fn label_forest(&self, forest: &Forest) -> Result<Labeling, LabelError> {
        let mut states: Vec<StateId> = Vec::with_capacity(forest.len());
        let mut local = WorkCounters::new();

        // Fast path: read lock, non-mutating lookups through the same
        // `peek` the snapshot core uses. The whole-automaton lock is
        // exactly what the snapshot design eliminates.
        {
            let auto = self.inner.read();
            for (id, node) in forest.iter() {
                let mut kids = [StateId(0); MAX_ARITY];
                for (i, &c) in node.children().iter().enumerate() {
                    kids[i] = states[c.index()];
                }
                local.nodes += 1;
                local.hash_lookups += 1;
                match peek(&*auto, forest, id, node.op(), &kids, &mut local) {
                    Some(sid) => {
                        if auto.state(sid).is_dead() {
                            self.counters.lock().merge(&local);
                            return Err(LabelError::NoCover {
                                node: id,
                                op: node.op(),
                            });
                        }
                        local.memo_hits += 1;
                        states.push(sid);
                    }
                    None => break,
                }
            }
        }

        // Slow path: write lock from the first miss onward.
        if states.len() < forest.len() {
            let mut auto = self.inner.write();
            label_rest(&mut auto, forest, &mut states)?;
        }

        self.counters.lock().merge(&local);
        Ok(Labeling::from_states(states))
    }

    /// Work accumulated by the fast path plus the inner automaton.
    pub fn counters(&self) -> WorkCounters {
        let mut c = *self.counters.lock();
        c.merge(&self.inner.read().counters());
        c
    }

    /// Size statistics of the wrapped automaton.
    pub fn stats(&self) -> crate::OnDemandStats {
        self.inner.read().stats()
    }

    /// Consumes the wrapper and returns the automaton.
    pub fn into_inner(self) -> OnDemandAutomaton {
        self.inner.into_inner()
    }
}

impl StateLookup for CoarseSharedOnDemand {
    fn rule_in_state(&self, state: StateId, nt: NtId) -> Option<NormalRuleId> {
        self.inner.read().rule_in_state(state, nt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odburg_grammar::parse_grammar;
    use odburg_ir::parse_sexpr;
    use std::sync::Arc;

    use crate::ondemand::OnDemandConfig;

    fn demo_automaton() -> OnDemandAutomaton {
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
        OnDemandAutomaton::new(Arc::new(g))
    }

    fn shared_demo() -> SharedOnDemand {
        SharedOnDemand::new(demo_automaton())
    }

    fn forest(src: &str) -> Forest {
        let mut f = Forest::new();
        let root = parse_sexpr(&mut f, src).unwrap();
        f.add_root(root);
        f
    }

    #[test]
    fn fast_path_after_warmup() {
        let shared = shared_demo();
        let f = forest("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        shared.label_forest(&f).unwrap();
        let warm_states = shared.stats().states;
        let published = shared.snapshots_published();
        // Second pass must be answered entirely from the snapshot: no
        // state growth and no new publication.
        shared.label_forest(&f).unwrap();
        assert_eq!(shared.stats().states, warm_states);
        assert_eq!(shared.snapshots_published(), published);
    }

    #[test]
    fn cold_miss_publishes_one_snapshot_per_forest() {
        let shared = shared_demo();
        assert_eq!(shared.snapshots_published(), 0);
        shared
            .label_forest(&forest("(StoreI8 (ConstI8 0) (ConstI8 1))"))
            .unwrap();
        assert_eq!(shared.snapshots_published(), 1);
        shared
            .label_forest(&forest(
                "(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))",
            ))
            .unwrap();
        assert_eq!(shared.snapshots_published(), 2);
    }

    #[test]
    fn concurrent_labeling_agrees() {
        let shared = Arc::new(shared_demo());
        let sources = [
            "(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))",
            "(StoreI8 (ConstI8 0) (LoadI8 (ConstI8 8)))",
            "(StoreI8 (ConstI8 4) (AddI8 (LoadI8 (ConstI8 0)) (ConstI8 1)))",
        ];
        let mut handles = Vec::new();
        for _ in 0..4 {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                for src in sources {
                    let f = forest(src);
                    let labeling = shared.label_forest(&f).unwrap();
                    // Root derives the start nonterminal.
                    let root = f.roots()[0];
                    let g_start = shared.with_read(|a| a.grammar().start());
                    assert!(shared
                        .rule_in_state(labeling.state_of(root), g_start)
                        .is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn no_cover_from_fast_path() {
        let shared = shared_demo();
        let f = forest("(MulF8 (ConstF8 #1.0) (ConstF8 #1.0))");
        assert!(matches!(
            shared.label_forest(&f),
            Err(LabelError::NoCover { .. })
        ));
        // And again, now that the dead transition is cached in the
        // published snapshot (this exercises the fast-path dead check).
        assert!(matches!(
            shared.label_forest(&f),
            Err(LabelError::NoCover { .. })
        ));
    }

    #[test]
    fn pinned_labeling_survives_flush() {
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
        let auto = OnDemandAutomaton::with_config(
            Arc::new(g),
            OnDemandConfig {
                // Each test forest needs 3 distinct states on its own;
                // their union needs 4, so the second forest forces a
                // flush that its solo relabel survives.
                state_budget: 3,
                budget_policy: BudgetPolicy::Flush,
                ..OnDemandConfig::default()
            },
        );
        let shared = SharedOnDemand::new(auto);

        use crate::label::RuleChooser;

        let f1 = forest("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        let pinned = shared.label_forest_pinned(&f1).unwrap();
        let epoch_before = pinned.snapshot().epoch();
        let start = pinned.snapshot().grammar().start();
        assert!(pinned.chooser().rule_for(f1.roots()[0], start).is_some());

        // The load forest needs a state the budget has no room for.
        let f2 = forest("(StoreI8 (ConstI8 0) (LoadI8 (ConstI8 4)))");
        shared.label_forest(&f2).unwrap();
        let now = shared.snapshot();
        assert!(now.epoch() > epoch_before, "flush must advance the epoch");

        // The pinned labeling still resolves against its own epoch's
        // tables even though the shared automaton has moved on.
        assert!(pinned.state_data(f1.roots()[0]).rule(start).is_some());
    }

    /// A grammar whose dynamic cost depends on the constant's value, so
    /// every distinct constant interns a new signature — each forest
    /// labeled below enters the grow path and publishes a snapshot.
    fn churn_automaton() -> OnDemandAutomaton {
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
                odburg_grammar::RuleCost::Finite((v.unsigned_abs() % 1000) as u16)
            }),
        )
        .unwrap();
        OnDemandAutomaton::new(Arc::new(g.normalize()))
    }

    #[test]
    fn grow_churn_does_not_accumulate_retired_snapshots() {
        // Regression: retire-on-store used to keep *every* replaced
        // snapshot alive for the process lifetime. Under a grow-churn
        // workload (every forest interns a new signature, so every
        // forest publishes a snapshot) the retained count must stay
        // bounded by what can still be referenced — at most the snapshot
        // a reader was holding during the latest publication — not grow
        // with the number of publications.
        let shared = SharedOnDemand::new(churn_automaton());
        for k in 1..=32 {
            shared
                .label_forest(&forest(&format!("(StoreI8 (ConstI8 {k}) (ConstI8 {k}))")))
                .unwrap();
        }
        assert!(shared.snapshots_published() >= 32);
        assert!(
            shared.snapshots_retained() <= 1,
            "retained {} snapshots across {} publications with no live pins",
            shared.snapshots_retained(),
            shared.snapshots_published()
        );
    }

    #[test]
    fn pinned_labeling_bounds_retirement() {
        let shared = SharedOnDemand::new(churn_automaton());
        let f1 = forest("(StoreI8 (ConstI8 1) (ConstI8 2))");
        let pinned = shared.label_forest_pinned(&f1).unwrap();
        // Churn past the pinned snapshot.
        for k in 3..=18 {
            shared
                .label_forest(&forest(&format!("(StoreI8 (ConstI8 {k}) (ConstI8 {k}))")))
                .unwrap();
        }
        assert!(shared.snapshots_published() >= 16);
        // Retention is bounded by live pins (plus the reader-held
        // snapshot of the latest publication), and the pinned labeling
        // still resolves against its own tables.
        assert!(shared.snapshots_retained() <= 2);
        let start = pinned.snapshot().grammar().start();
        assert!(pinned.state_data(f1.roots()[0]).rule(start).is_some());
        // Dropping the pin releases the last reference; the next
        // publication reclaims it.
        drop(pinned);
        shared
            .label_forest(&forest("(StoreI8 (ConstI8 19) (ConstI8 19))"))
            .unwrap();
        assert!(shared.snapshots_retained() <= 1);
    }

    #[test]
    fn fast_path_heat_reaches_the_published_snapshot() {
        let shared = shared_demo();
        let f = forest("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        shared.label_forest(&f).unwrap(); // cold: grows + publishes
        for _ in 0..5 {
            shared.label_forest(&f).unwrap(); // warm: lock-free, heat only
        }
        let heat = shared.snapshot().heat_counts();
        assert!(
            heat.iter().map(|&h| h as usize).sum::<usize>() >= 5 * f.len(),
            "warm forests must accumulate heat: {heat:?}"
        );
    }

    #[test]
    fn compact_policy_in_the_writer_keeps_hot_states_and_budget() {
        let byte_budget = 16 * 1024;
        let g = churn_automaton();
        let auto = OnDemandAutomaton::with_config(
            Arc::clone(g.grammar()),
            OnDemandConfig {
                budget_policy: BudgetPolicy::Compact {
                    byte_budget,
                    retain_fraction: 0.5,
                },
                ..OnDemandConfig::default()
            },
        );
        let shared = SharedOnDemand::new(auto);
        let hot = forest("(StoreI8 (ConstI8 1) (ConstI8 2))");
        for k in 0..400 {
            shared.label_forest(&hot).unwrap();
            shared
                .label_forest(&forest(&format!(
                    "(StoreI8 (ConstI8 {}) (ConstI8 {}))",
                    100 + k,
                    500 + k
                )))
                .unwrap();
            assert!(
                shared.accounted_bytes().total() <= byte_budget,
                "budget exceeded at churn step {k}"
            );
        }
        let counters = shared.counters();
        assert!(counters.compactions > 0, "churn must compact");
        assert!(counters.states_evicted > 0);
        // The hot forest's working set survived the compactions: its
        // states answer from the snapshot without entering the writer.
        let published = shared.snapshots_published();
        shared.label_forest(&hot).unwrap();
        assert_eq!(
            shared.snapshots_published(),
            published,
            "hot forest must stay on the lock-free path"
        );
    }

    #[test]
    fn enforce_budget_flushes_or_compacts_and_spares_pins() {
        use crate::govern::MemoryBudget;

        for budget in [MemoryBudget::flush(1), MemoryBudget::compact(1, 0.5)] {
            let shared = SharedOnDemand::new(churn_automaton());
            let f1 = forest("(StoreI8 (ConstI8 1) (ConstI8 2))");
            let pinned = shared.label_forest_pinned(&f1).unwrap();
            let epoch_before = pinned.snapshot().epoch();

            // A one-byte budget always trips.
            let event = shared.enforce_budget(&budget).expect("budget must trip");
            assert!(event.bytes_before > event.bytes_after, "{event:?}");
            assert_eq!(event.action, budget.action);
            assert!(
                shared.snapshot().epoch() > epoch_before,
                "enforcement starts a new epoch"
            );
            // Under budget now: enforcement is idempotent…
            // (flush empties the tables; compact may keep a state or two
            // under a 0-byte target only if they fit — with budget 1
            // nothing does, so both end near-empty and the second call
            // is a no-op only for flush; just check the pin.)
            let start = pinned.snapshot().grammar().start();
            assert!(
                pinned.state_data(f1.roots()[0]).rule(start).is_some(),
                "pinned labeling must survive enforcement"
            );
        }
    }

    #[test]
    fn enforce_budget_leaves_tables_alone_under_a_roomy_budget() {
        let shared = SharedOnDemand::new(churn_automaton());
        shared
            .label_forest(&forest("(StoreI8 (ConstI8 1) (ConstI8 2))"))
            .unwrap();
        // A roomy budget: no pressure, no new epoch, same bytes.
        let bytes = shared.accounted_bytes().total();
        let epoch = shared.snapshot().epoch();
        assert!(shared
            .enforce_budget(&crate::govern::MemoryBudget::flush(1 << 30))
            .is_none());
        assert_eq!(shared.accounted_bytes().total(), bytes);
        assert_eq!(shared.snapshot().epoch(), epoch);
        // A one-byte budget trips.
        let event = shared
            .enforce_budget(&crate::govern::MemoryBudget::flush(1))
            .expect("budget must trip");
        assert!(event.bytes_before > event.bytes_after);
        assert_eq!(shared.counters().flushes, 1);
    }

    #[test]
    fn maybe_compact_is_a_noop_without_pressure_or_policy() {
        let shared = shared_demo(); // BudgetPolicy::Error
        shared
            .label_forest(&forest("(StoreI8 (ConstI8 0) (ConstI8 1))"))
            .unwrap();
        assert!(shared.maybe_compact().is_none());

        let auto = OnDemandAutomaton::with_config(
            Arc::clone(shared.snapshot().grammar()),
            OnDemandConfig {
                budget_policy: BudgetPolicy::Compact {
                    byte_budget: 1 << 30,
                    retain_fraction: 0.5,
                },
                ..OnDemandConfig::default()
            },
        );
        let governed = SharedOnDemand::new(auto);
        governed
            .label_forest(&forest("(StoreI8 (ConstI8 0) (ConstI8 1))"))
            .unwrap();
        assert!(
            governed.maybe_compact().is_none(),
            "a roomy budget must not compact"
        );
    }

    #[test]
    fn labeler_trait_drives_shared() {
        let mut shared = shared_demo();
        let f = forest("(StoreI8 (ConstI8 0) (ConstI8 1))");
        let labeling = Labeler::label_forest(&mut shared, &f).unwrap();
        assert_eq!(labeling.states().len(), f.len());
        assert_eq!(Labeler::name(&shared), "shared");
        assert!(Labeler::counters(&shared).nodes >= f.len() as u64);
        shared.reset_counters();
        assert_eq!(Labeler::counters(&shared).nodes, 0);
    }

    #[test]
    fn coarse_baseline_agrees_with_snapshot_core() {
        let coarse = CoarseSharedOnDemand::new(demo_automaton());
        let snappy = shared_demo();
        for src in [
            "(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))",
            "(StoreI8 (ConstI8 0) (LoadI8 (ConstI8 8)))",
        ] {
            let f = forest(src);
            let a = coarse.label_forest(&f).unwrap();
            let b = snappy.label_forest(&f).unwrap();
            assert_eq!(a, b, "coarse vs snapshot on {src}");
        }
    }

    #[test]
    fn stale_state_id_after_flush_degrades_to_none() {
        // A labeling obtained through the non-pinned path before a flush
        // may hold state ids beyond the post-flush snapshot's arena; the
        // StateLookup path must answer `None` (→ `MissingRule` at
        // reduction), never panic.
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
        let auto = OnDemandAutomaton::with_config(
            Arc::new(g),
            OnDemandConfig {
                state_budget: 3,
                budget_policy: BudgetPolicy::Flush,
                ..OnDemandConfig::default()
            },
        );
        let shared = SharedOnDemand::new(auto);
        let f1 = forest("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        let stale = shared.label_forest(&f1).unwrap();
        // Flush into a new, smaller epoch.
        shared
            .label_forest(&forest("(StoreI8 (ConstI8 0) (LoadI8 (ConstI8 4)))"))
            .unwrap();
        // Highest id of the stale labeling exceeds nothing fatal: every
        // lookup either resolves (id still in range) or returns None.
        let start = shared.with_read(|a| a.grammar().start());
        for (id, _) in f1.iter() {
            let _ = shared.rule_in_state(stale.state_of(id), start);
        }
    }

    #[test]
    fn use_after_flush_epoch_restart() {
        // A reader whose loaded snapshot predates a flush must restart
        // against the new epoch and still produce a valid labeling.
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
        let auto = OnDemandAutomaton::with_config(
            Arc::new(g),
            OnDemandConfig {
                // Each test forest needs 3 distinct states on its own;
                // their union needs 4, so the second forest forces a
                // flush that its solo relabel survives.
                state_budget: 3,
                budget_policy: BudgetPolicy::Flush,
                ..OnDemandConfig::default()
            },
        );
        let shared = SharedOnDemand::new(auto);
        // Warm epoch 0, flush into epoch 1+, then label an epoch-0 shape
        // again: the snapshot path must re-enter the writer and restart.
        let small = forest("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        shared.label_forest(&small).unwrap();
        let big = forest("(StoreI8 (ConstI8 0) (LoadI8 (ConstI8 4)))");
        shared.label_forest(&big).unwrap();
        let labeling = shared.label_forest(&small).unwrap();
        let start = shared.with_read(|a| a.grammar().start());
        assert!(shared
            .rule_in_state(labeling.state_of(small.roots()[0]), start)
            .is_some());
    }
}
