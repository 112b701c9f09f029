//! The dense warm-path index: the flat, cache-friendly tables a
//! published snapshot answers from, grown by the master in step with its
//! hash tables and shared with the snapshots it publishes.
//!
//! The mutable master automaton memoizes into `FxHashMap`s — correct,
//! but every node would pay a hash of a 16-byte key, a bucket probe
//! through `hashbrown`-style control bytes, and (for the dead-state
//! check) an `Arc` dereference plus a scan of the state's cost vector.
//! The paper's bet is that the warm path is a *pure table lookup*; this
//! module makes the lookup look like one to the hardware:
//!
//! * **Per-operator transition regions** — all transitions of one
//!   operator live in their own open-addressed, power-of-two slot
//!   region. The hash seed is fixed and each region records the longest
//!   displacement any of its keys needed, so a lookup is one header
//!   load and one bounded linear probe: typically the home slot,
//!   worst-case `probe_cap + 1` adjacent 16-byte slots.
//! * **Structure-of-arrays state facts** — the per-state facts the read
//!   paths touch (the per-nonterminal optimal rule) are copied out of
//!   the `Arc<StateData>` arena into one flat array indexed by
//!   `StateId`, so the hot loop never chases a pointer. Deadness is
//!   folded into the transition slots themselves ([`DEAD_BIT`]), so the
//!   warm walk needs no separate per-state load at all.
//! * **Dense projection and signature tables** — in projection mode the
//!   child-state → projection resolution is one probe of a flat
//!   `(packed key, value)` region, and a node's dynamic-cost vector
//!   resolves through a fixed-seed hash screen plus flattened cost
//!   words, instead of `FxHashMap` hashes.
//!
//! **Growth and publication.** Every region is held in an `Arc`. The
//! master keeps its own index and inserts each transition, projection,
//! signature and state into it as it memoizes them, through one insert
//! routine ([`Region::insert`]): a region still shared with a published
//! snapshot is copied on its first write after that publication, and a
//! region whose load would pass one half is rebuilt at twice the size.
//! Publishing a snapshot clones the index — the region `Arc`s plus the
//! O(states) rule rows — so its cost follows the number of operators and
//! states, not the number of transitions, and consecutive snapshots
//! share every region the master did not touch between them. A batch
//! build ([`DenseIndex::build`]: import, compaction) runs the same
//! insert routine over regions sized in advance.
//!
//! The index is the **only** table representation a snapshot keeps: it
//! stores every key it holds, so the snapshot's other readers (persist
//! export, [`OnDemandAutomaton::from_snapshot`], `stats`) enumerate it
//! ([`DenseIndex::transitions`], [`DenseIndex::projections`],
//! [`DenseIndex::signatures`]) instead of a hash-map copy. It is **never
//! serialized**. The slot layout depends on the order of insertion, but
//! the footprint is a deterministic function of the entry counts
//! ([`IndexShape`]), so the memory governor accounts for it identically
//! for live masters, snapshots and table files (see
//! [`ComponentBytes::dense_index`](crate::ComponentBytes)).
//! `tests/dense_index.rs` property-checks exact hit/miss agreement with
//! the master's hash tables and with a from-scratch batch build,
//! including across publications, compaction rebuilds that remap ids,
//! and older snapshots pinned while the master grows.
//!
//! [`OnDemandAutomaton::from_snapshot`]: crate::OnDemandAutomaton::from_snapshot

use std::sync::Arc;

use odburg_grammar::{NormalRuleId, NtId, RuleCost};

use crate::govern::{TableCounts, TableView};
use crate::signature::SigId;
use crate::snapshot::TransKey;
use crate::state::{StateData, StateId};

/// Sentinel for an empty transition slot (`state` field). Safe because
/// state ids are arena indices and the arena is budget-bounded far below
/// `u32::MAX`.
const EMPTY_STATE: u32 = u32::MAX;
/// Top bit of an occupied slot's `state` field: the target state is
/// dead (`NoCover`). Folding the flag into the probe result spares the
/// warm walk a dependent load of the dead array per node. State ids are
/// arena indices bounded far below `2^31` (asserted at insert), and the
/// encoding cannot collide with [`EMPTY_STATE`] — that would need id
/// `2^31 - 1`, excluded by the same bound.
pub(crate) const DEAD_BIT: u32 = 1 << 31;
/// Sentinel for an empty projection slot (`key` field). No packed key
/// can collide with it: the low byte of a real key is a child position
/// (`< MAX_ARITY`), never `0xFF`.
const EMPTY_PROJ_KEY: u64 = u64::MAX;
/// "No rule" sentinel in the flat rule array (mirrors `StateData`).
const NO_RULE: u32 = u32::MAX;

/// Accounted bytes of one transition slot: `{kid0, kid1, sig, state}`.
pub(crate) const TRANS_SLOT_BYTES: usize = 16;
/// Accounted bytes of one projection slot: packed key + value + padding.
pub(crate) const PROJ_SLOT_BYTES: usize = 16;
/// Accounted bytes of one per-operator group header.
pub(crate) const GROUP_HEADER_BYTES: usize = 12;
/// Accounted bytes of one signature slot: 64-bit hash + id + padding.
pub(crate) const SIG_SLOT_BYTES: usize = 16;
/// Accounted bytes per signature offset (`sigs + 1` entries).
pub(crate) const SIG_OFFSET_BYTES: usize = 4;
/// Accounted bytes per flattened signature cost word.
pub(crate) const SIG_COST_BYTES: usize = 4;

/// Top bit of a region's `probe_cap`: this operator's dynamic-cost
/// signature is statically empty, so a warm node's signature is
/// [`SigId::EMPTY`] and the walk can skip the grammar's dynamic-rule
/// machinery entirely. Displacements are bounded by the slot count, far
/// below `2^31`.
const SIG_STATIC_BIT: u32 = 1 << 31;

/// One kind of open-addressed slot: what an empty slot looks like and
/// where a key's probe sequence starts.
trait Slot: Copy {
    const EMPTY: Self;
    fn is_empty(&self) -> bool;
    /// The fixed-seed hash of the slot's key.
    fn hash(&self) -> u64;
}

/// One open-addressed transition slot. The operator is implicit in the
/// region, so the key compare is `(kid0, kid1, sig)`.
#[derive(Debug, Clone, Copy)]
struct TransSlot {
    kid0: u32,
    kid1: u32,
    sig: u32,
    state: u32,
}

impl Slot for TransSlot {
    const EMPTY: Self = TransSlot {
        kid0: 0,
        kid1: 0,
        sig: 0,
        state: EMPTY_STATE,
    };
    #[inline(always)]
    fn is_empty(&self) -> bool {
        self.state == EMPTY_STATE
    }
    fn hash(&self) -> u64 {
        mix(self.kid0, self.kid1, self.sig)
    }
}

/// One projection slot: `(full state, op, position)` packed into a
/// `u64`, mapping to a projection id.
#[derive(Debug, Clone, Copy)]
struct ProjSlot {
    key: u64,
    val: u32,
}

impl Slot for ProjSlot {
    const EMPTY: Self = ProjSlot {
        key: EMPTY_PROJ_KEY,
        val: 0,
    };
    #[inline(always)]
    fn is_empty(&self) -> bool {
        self.key == EMPTY_PROJ_KEY
    }
    fn hash(&self) -> u64 {
        mix_proj(self.key)
    }
}

/// One signature slot: the fixed-seed hash of an interned cost vector
/// and its [`SigId`]. The hash screens out almost every non-match; the
/// flattened cost words confirm the rest exactly.
#[derive(Debug, Clone, Copy)]
struct SigSlot {
    hash: u64,
    id: u32,
}

/// Sentinel for an empty signature slot (`id` field); real signature
/// ids are interner indices, bounded far below `u32::MAX`.
const EMPTY_SIG_ID: u32 = u32::MAX;

impl Slot for SigSlot {
    const EMPTY: Self = SigSlot {
        hash: 0,
        id: EMPTY_SIG_ID,
    };
    #[inline(always)]
    fn is_empty(&self) -> bool {
        self.id == EMPTY_SIG_ID
    }
    fn hash(&self) -> u64 {
        self.hash
    }
}

/// Injective 32-bit encoding of a [`RuleCost`] for the flattened
/// signature storage: finite costs are `u16`, so `u32::MAX` is free for
/// `Infinite`.
#[inline(always)]
fn encode_cost(c: RuleCost) -> u32 {
    match c {
        RuleCost::Finite(v) => v as u32,
        RuleCost::Infinite => u32::MAX,
    }
}

/// Inverse of [`encode_cost`].
fn decode_cost(w: u32) -> RuleCost {
    if w == u32::MAX {
        RuleCost::Infinite
    } else {
        RuleCost::Finite(w as u16)
    }
}

/// Fixed-seed hash of a dynamic-cost vector (FNV-1a over the encoded
/// words, with a final avalanche). Like [`mix`], the seed is a
/// compile-time constant.
#[inline(always)]
fn mix_sig(costs: &[RuleCost]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &c in costs {
        h = (h ^ encode_cost(c) as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^ (h >> 29)
}

/// Fixed-seed mix of a transition key's non-operator half. The seed is
/// a compile-time constant, so a key's home slot depends only on the
/// key and the region size.
#[inline(always)]
fn mix(kid0: u32, kid1: u32, sig: u32) -> u64 {
    let mut x = (kid0 as u64) ^ ((kid1 as u64) << 21) ^ ((sig as u64) << 42);
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 32;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^ (x >> 29)
}

#[inline(always)]
fn mix_proj(key: u64) -> u64 {
    let mut x = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

#[inline(always)]
fn pack_proj(full: u32, op: u16, pos: u8) -> u64 {
    ((full as u64) << 24) | ((op as u64) << 8) | (pos as u64)
}

/// Inverse of [`pack_proj`].
fn unpack_proj(key: u64) -> (StateId, u16, u8) {
    (StateId((key >> 24) as u32), (key >> 8) as u16, key as u8)
}

/// Slot count for an open-addressed region holding `n` entries: the
/// next power of two of `2n`, so the load factor never exceeds one half
/// and every probe sequence terminates at an empty slot.
pub(crate) fn slots_for(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        (2 * n).next_power_of_two()
    }
}

/// The one bounded probe every table shares: scans from `hash`'s home
/// slot for at most `probe_cap + 1` slots (ignoring
/// [`SIG_STATIC_BIT`]), stopping at the first empty slot. `slots` is a
/// power-of-two region, or empty.
#[inline(always)]
fn probe<S: Slot>(slots: &[S], probe_cap: u32, hash: u64, hit: impl Fn(&S) -> bool) -> Option<&S> {
    let mask = slots.len().checked_sub(1)? as u64;
    // Re-slicing to the region bounds-checks once; inside the loop
    // `i & mask < region.len()` is provable, so each probe is a bare
    // load.
    let region = &slots[..=mask as usize];
    let home = hash & mask;
    for i in home..=home + (probe_cap & !SIG_STATIC_BIT) as u64 {
        let slot = &region[(i & mask) as usize];
        if slot.is_empty() {
            return None;
        }
        if hit(slot) {
            return Some(slot);
        }
    }
    None
}

/// One open-addressed region: a power-of-two slot array (load at most
/// one half; no slots when empty) held in an `Arc` so that the master
/// and the snapshots it published share it until the master writes to
/// it again.
#[derive(Debug, Clone)]
struct Region<S> {
    slots: Arc<[S]>,
    /// Longest displacement any key needed (lookups probe at most that
    /// many + 1 slots), with [`SIG_STATIC_BIT`] on transition regions.
    probe_cap: u32,
    /// Occupied slots.
    len: u32,
}

impl<S: Slot> Region<S> {
    /// An empty region sized for `n` entries, carrying `flags` (the
    /// [`SIG_STATIC_BIT`] of a transition region).
    fn with_capacity(n: usize, flags: u32) -> Self {
        let cap = slots_for(n);
        Region {
            // An empty slice `Arc` is a shared static: the many regions
            // of operators without transitions allocate nothing.
            slots: if cap == 0 {
                Arc::default()
            } else {
                std::iter::repeat_n(S::EMPTY, cap).collect()
            },
            probe_cap: flags,
            len: 0,
        }
    }

    /// The insert routine of every table: places slots whose keys the
    /// region does not hold yet — one for the master's growth, a whole
    /// region's worth for a batch build. A region whose load would pass
    /// one half is first rebuilt at [`slots_for`] its new entry count
    /// (so its size stays a function of the count); a region still
    /// shared with a snapshot is copied before the write.
    fn insert(&mut self, new: &[S]) {
        if new.is_empty() {
            return;
        }
        let len = self.len as usize + new.len();
        if slots_for(len) > self.slots.len() {
            let flags = self.probe_cap & SIG_STATIC_BIT;
            let old = std::mem::replace(self, Region::with_capacity(len, flags));
            self.place(old.entries().copied());
        }
        self.place(new.iter().copied());
    }

    /// Linear-probe placement into a region with room for every slot.
    fn place(&mut self, new: impl Iterator<Item = S>) {
        let mask = self.slots.len() as u64 - 1;
        let slots = Arc::make_mut(&mut self.slots);
        let mut cap = self.probe_cap & !SIG_STATIC_BIT;
        for slot in new {
            let mut i = slot.hash() & mask;
            let mut displacement = 0u32;
            while !slots[i as usize].is_empty() {
                i = (i + 1) & mask;
                displacement += 1;
            }
            slots[i as usize] = slot;
            self.len += 1;
            cap = cap.max(displacement);
        }
        self.probe_cap = cap | (self.probe_cap & SIG_STATIC_BIT);
    }

    #[inline(always)]
    fn probe(&self, hash: u64, hit: impl Fn(&S) -> bool) -> Option<&S> {
        probe(&self.slots, self.probe_cap, hash, hit)
    }

    /// The occupied slots, in slot order.
    fn entries(&self) -> impl Iterator<Item = &S> {
        self.slots.iter().filter(|s| !s.is_empty())
    }
}

/// An opaque, copyable handle to one operator's transition region (see
/// [`DenseIndex::group`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupRef<'a> {
    slots: &'a [TransSlot],
    probe_cap: u32,
}

impl GroupRef<'_> {
    /// The operator's statically-empty-signature bit (see
    /// [`DenseIndex::build`]'s `sig_static`).
    #[inline(always)]
    pub fn sig_static(self) -> bool {
        self.probe_cap & SIG_STATIC_BIT != 0
    }
}

/// The signature table: an open-addressed `(hash, SigId)` region over
/// the non-empty interned signatures, verified against the flattened
/// cost words. Shared like a region; copied when the master interns a
/// signature after a publication.
#[derive(Debug, Clone)]
struct SigTable {
    slots: Region<SigSlot>,
    /// `offsets[id]..offsets[id + 1]` bounds signature `id`'s encoded
    /// costs in `costs`.
    offsets: Vec<u32>,
    costs: Vec<u32>,
}

/// The deterministic shape (and therefore byte footprint) a dense index
/// has for given table entry counts. The memory governor computes this
/// for table files and compaction plans *without* building an index;
/// a built or grown index has exactly this shape, which
/// [`DenseIndex::build`] debug-asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IndexShape {
    /// Per-operator group headers: `max op id + 1` (0 with no
    /// transitions).
    pub groups: usize,
    /// Total transition slots across all groups.
    pub trans_slots: usize,
    /// Projection-table slots.
    pub proj_slots: usize,
    /// Full states (flat rule-array rows).
    pub states: usize,
    /// Nonterminal slots per state (flat rule array stride).
    pub num_nts: usize,
    /// Interned signatures, including the empty one (which occupies no
    /// slot but one offset entry).
    pub sigs: usize,
    /// Total cost words across all interned signatures.
    pub sig_cost_words: usize,
}

impl IndexShape {
    pub fn bytes(&self) -> usize {
        self.groups * GROUP_HEADER_BYTES
            + self.trans_slots * TRANS_SLOT_BYTES
            + self.proj_slots * PROJ_SLOT_BYTES
            + self.states * self.num_nts * 4
            + slots_for(self.sigs.saturating_sub(1)) * SIG_SLOT_BYTES
            + (self.sigs + 1) * SIG_OFFSET_BYTES
            + self.sig_cost_words * SIG_COST_BYTES
    }
}

/// Per-operator transition counts (indexed by op id, `max op + 1`
/// long).
fn per_op_counts(ops: impl Iterator<Item = u16>) -> Vec<usize> {
    let mut per_op: Vec<usize> = Vec::new();
    for op in ops {
        let op = op as usize;
        if per_op.len() <= op {
            per_op.resize(op + 1, 0);
        }
        per_op[op] += 1;
    }
    per_op
}

/// The shape an index over `tables` has.
pub(crate) fn shape_of(tables: &TableView<'_>) -> IndexShape {
    let per_op = per_op_counts(tables.transitions.keys().map(|k| k.op));
    IndexShape {
        groups: per_op.len(),
        trans_slots: per_op.iter().map(|&n| slots_for(n)).sum(),
        proj_slots: slots_for(tables.projection_cache.len()),
        states: tables.states.len(),
        num_nts: tables.states.first().map_or(0, |s| s.len()),
        sigs: tables.signatures.len(),
        sig_cost_words: tables.signatures.iter().map(|s| s.len()).sum(),
    }
}

/// The dense warm-path index of a master automaton or of one snapshot.
/// See the [module docs](self). `Clone` is the publication: it shares
/// every region and copies the O(ops + states) rest.
#[derive(Debug, Clone)]
pub(crate) struct DenseIndex {
    /// Transition regions indexed by op id, up to the largest op with a
    /// transition.
    groups: Vec<Region<TransSlot>>,
    projections: Region<ProjSlot>,
    signatures: Arc<SigTable>,
    /// Flat `states × num_nts` optimal-rule array (`u32::MAX` = none).
    rules: Vec<u32>,
    num_nts: usize,
}

impl Default for DenseIndex {
    /// The index of empty tables: only the empty signature.
    fn default() -> Self {
        DenseIndex {
            groups: Vec::new(),
            projections: Region::with_capacity(0, 0),
            signatures: Arc::new(SigTable {
                slots: Region::with_capacity(0, 0),
                offsets: vec![0, 0],
                costs: Vec::new(),
            }),
            rules: Vec::new(),
            num_nts: 0,
        }
    }
}

impl DenseIndex {
    /// Builds the index of `tables` (import, compaction, a master
    /// assembled from parsed tables): every region is sized in advance
    /// and filled through the same inserts the master's growth uses.
    ///
    /// `sig_static(op)` must return `true` only when a node with that
    /// operator provably has the empty dynamic-cost signature (no
    /// dynamic base rules for the op, no dynamic chain rules in the
    /// grammar); `false` is always safe and routes the walk through the
    /// full signature evaluation.
    pub fn build(tables: &TableView<'_>, sig_static: impl Fn(u16) -> bool) -> DenseIndex {
        let shape = shape_of(tables);
        // Each region's entries are gathered first, so each is filled
        // by one insert.
        let mut per_op: Vec<Vec<TransSlot>> =
            per_op_counts(tables.transitions.keys().map(|k| k.op))
                .into_iter()
                .map(Vec::with_capacity)
                .collect();
        for (key, &target) in tables.transitions {
            let dead = tables
                .states
                .get(target.0 as usize)
                .is_some_and(|s| s.is_dead());
            per_op[key.op as usize].push(trans_slot(key, target, dead));
        }
        let projections: Vec<ProjSlot> = tables
            .projection_cache
            .iter()
            .map(|(&(full, op, pos), &proj)| proj_slot(full, op, pos, proj))
            .collect();
        let mut offsets = Vec::with_capacity(shape.sigs + 1);
        offsets.extend([0, 0]);
        let mut index = DenseIndex {
            groups: per_op
                .iter()
                .enumerate()
                .map(|(op, slots)| {
                    let mut region =
                        Region::with_capacity(slots.len(), static_flag(sig_static(op as u16)));
                    region.insert(slots);
                    region
                })
                .collect(),
            projections: Region::with_capacity(projections.len(), 0),
            signatures: Arc::new(SigTable {
                slots: Region::with_capacity(shape.sigs.saturating_sub(1), 0),
                offsets,
                costs: Vec::with_capacity(shape.sig_cost_words),
            }),
            rules: Vec::with_capacity(shape.states * shape.num_nts),
            num_nts: 0,
        };
        for state in tables.states {
            index.push_state(state);
        }
        for costs in tables.signatures.iter().skip(1) {
            index.insert_signature(costs);
        }
        index.projections.insert(&projections);
        debug_assert_eq!(index.byte_size(), shape.bytes());
        index
    }

    /// Appends a new state's rule row (states are appended in id order).
    pub fn push_state(&mut self, state: &StateData) {
        if self.rules.is_empty() {
            self.num_nts = state.len();
        }
        debug_assert_eq!(state.len(), self.num_nts, "full states share one width");
        self.rules.extend_from_slice(state.raw_parts().1);
    }

    /// Inserts a memoized transition the index does not hold yet. An
    /// operator beyond the current regions extends them with empty
    /// regions carrying their `sig_static` bit.
    pub fn insert_transition(
        &mut self,
        key: &TransKey,
        target: StateId,
        dead: bool,
        sig_static: impl Fn(u16) -> bool,
    ) {
        let op = key.op as usize;
        while self.groups.len() <= op {
            let flags = static_flag(sig_static(self.groups.len() as u16));
            self.groups.push(Region::with_capacity(0, flags));
        }
        self.groups[op].insert(&[trans_slot(key, target, dead)]);
    }

    /// Inserts a projection-cache entry the index does not hold yet.
    pub fn insert_projection(&mut self, full: StateId, op: u16, pos: u8, projection: StateId) {
        self.projections
            .insert(&[proj_slot(full, op, pos, projection)]);
    }

    /// Appends a newly interned, non-empty signature as the next id.
    pub fn insert_signature(&mut self, costs: &[RuleCost]) -> SigId {
        debug_assert!(!costs.is_empty(), "the empty signature is pre-interned");
        let table = Arc::make_mut(&mut self.signatures);
        let id = (table.offsets.len() - 1) as u32;
        table.costs.extend(costs.iter().map(|&c| encode_cost(c)));
        table.offsets.push(table.costs.len() as u32);
        table.slots.insert(&[SigSlot {
            hash: mix_sig(costs),
            id,
        }]);
        SigId(id)
    }

    /// Accounted bytes — equal to [`IndexShape::bytes`] for this index's
    /// entry counts, computed from the region sizes in O(ops).
    pub fn byte_size(&self) -> usize {
        let sigs = &*self.signatures;
        self.groups.len() * GROUP_HEADER_BYTES
            + self.groups.iter().map(|g| g.slots.len()).sum::<usize>() * TRANS_SLOT_BYTES
            + self.projections.slots.len() * PROJ_SLOT_BYTES
            + self.rules.len() * 4
            + sigs.slots.slots.len() * SIG_SLOT_BYTES
            + sigs.offsets.len() * SIG_OFFSET_BYTES
            + sigs.costs.len() * SIG_COST_BYTES
    }

    /// The operator's region header, fetched once per node by the warm
    /// walk: it carries everything per-op the walk needs — the
    /// statically-empty-signature bit consulted before the probe and
    /// the slot region the probe then runs in. Unknown operators get
    /// the empty group (every lookup misses, signature conservatively
    /// dynamic).
    #[inline(always)]
    pub fn group(&self, op: u16) -> GroupRef<'_> {
        match self.groups.get(op as usize) {
            Some(g) => GroupRef {
                slots: &g.slots,
                probe_cap: g.probe_cap,
            },
            None => GroupRef {
                slots: &[],
                probe_cap: 0,
            },
        }
    }

    /// One bounded probe of the operator's transition region. Kid slots
    /// beyond the operator's arity must be
    /// [`NO_CHILD`](crate::snapshot::NO_CHILD), exactly as in
    /// [`TransKey`].
    #[inline(always)]
    pub fn lookup(&self, op: u16, kid0: u32, kid1: u32, sig: u32) -> Option<StateId> {
        self.lookup_enc(self.group(op), kid0, kid1, sig)
            .map(|enc| StateId(enc & !DEAD_BIT))
    }

    /// The probe itself, returning the slot's encoded `state` word: the
    /// target [`StateId`] with [`DEAD_BIT`] set when the target is dead,
    /// so the warm walk's `NoCover` check needs no further load.
    #[inline(always)]
    pub(crate) fn lookup_enc(
        &self,
        g: GroupRef<'_>,
        kid0: u32,
        kid1: u32,
        sig: u32,
    ) -> Option<u32> {
        probe(g.slots, g.probe_cap, mix(kid0, kid1, sig), |s| {
            s.kid0 == kid0 && s.kid1 == kid1 && s.sig == sig
        })
        .map(|s| s.state)
    }

    /// One bounded probe of the projection table.
    #[inline(always)]
    pub fn project(&self, full: u32, op: u16, pos: u8) -> Option<StateId> {
        let key = pack_proj(full, op, pos);
        self.projections
            .probe(mix_proj(key), |s| s.key == key)
            .map(|s| StateId(s.val))
    }

    /// One bounded probe of the signature table: the [`SigId`] of an
    /// interned cost vector, or `None` if this vector was never
    /// interned (a miss — the writer interns it). The 64-bit hash
    /// screens candidates; the flattened cost words confirm exactly.
    #[inline(always)]
    pub fn find_sig(&self, costs: &[RuleCost]) -> Option<SigId> {
        if costs.is_empty() {
            return Some(SigId::EMPTY);
        }
        let sigs = &*self.signatures;
        let hash = mix_sig(costs);
        sigs.slots
            .probe(hash, |s| s.hash == hash && sigs.matches(s.id, costs))
            .map(|s| SigId(s.id))
    }

    /// Every memoized transition, enumerated from the slots (unspecified
    /// order): the operator is the region index, the target the slot
    /// word without [`DEAD_BIT`].
    pub fn transitions(&self) -> impl Iterator<Item = (TransKey, StateId)> + '_ {
        self.groups.iter().enumerate().flat_map(|(op, g)| {
            g.entries().map(move |s| {
                let key = TransKey {
                    op: op as u16,
                    kids: [s.kid0, s.kid1],
                    sig: SigId(s.sig),
                };
                (key, StateId(s.state & !DEAD_BIT))
            })
        })
    }

    /// Every projection-cache entry, unpacked from the slot keys
    /// (unspecified order).
    pub fn projections(&self) -> impl Iterator<Item = ((StateId, u16, u8), StateId)> + '_ {
        self.projections
            .entries()
            .map(|s| (unpack_proj(s.key), StateId(s.val)))
    }

    /// Every interned signature's cost vector, in id order (the empty
    /// signature first), decoded from the flattened cost words.
    pub fn signatures(&self) -> impl Iterator<Item = Vec<RuleCost>> + '_ {
        let sigs = &*self.signatures;
        sigs.offsets.windows(2).map(|w| {
            sigs.costs[w[0] as usize..w[1] as usize]
                .iter()
                .map(|&c| decode_cost(c))
                .collect()
        })
    }

    /// Entry counts of the indexed tables, from the per-region counts
    /// (O(ops)).
    pub fn counts(&self) -> TableCounts {
        TableCounts {
            transitions: self.groups.iter().map(|g| g.len as usize).sum(),
            cached_projections: self.projections.len as usize,
            signatures: self.signatures.offsets.len() - 1,
            sig_cost_words: self.signatures.costs.len(),
        }
    }

    /// Flat-array twin of [`StateData::rule`]; bounds-checked so stale
    /// ids degrade to `None`, never panic.
    #[inline(always)]
    pub fn rule(&self, state: StateId, nt: NtId) -> Option<NormalRuleId> {
        if nt.0 as usize >= self.num_nts {
            return None;
        }
        let idx = (state.0 as usize).checked_mul(self.num_nts)? + (nt.0 as usize);
        match self.rules.get(idx).copied() {
            Some(r) if r != NO_RULE => Some(NormalRuleId(r)),
            _ => None,
        }
    }
}

impl SigTable {
    /// Exact compare of interned signature `id` against `costs`.
    #[inline]
    fn matches(&self, id: u32, costs: &[RuleCost]) -> bool {
        let lo = self.offsets[id as usize] as usize;
        let hi = self.offsets[id as usize + 1] as usize;
        hi - lo == costs.len()
            && self.costs[lo..hi]
                .iter()
                .zip(costs)
                .all(|(&w, &c)| w == encode_cost(c))
    }
}

/// The slot of transition `key` to `target`.
fn trans_slot(key: &TransKey, target: StateId, dead: bool) -> TransSlot {
    debug_assert!(
        target.0 < DEAD_BIT - 1,
        "state arena too large for the slot sentinel and dead-bit encoding"
    );
    TransSlot {
        kid0: key.kids[0],
        kid1: key.kids[1],
        sig: key.sig.0,
        state: target.0 | if dead { DEAD_BIT } else { 0 },
    }
}

/// The slot of projection-cache entry `(full, op, pos) -> projection`.
fn proj_slot(full: StateId, op: u16, pos: u8, projection: StateId) -> ProjSlot {
    ProjSlot {
        key: pack_proj(full.0, op, pos),
        val: projection.0,
    }
}

/// The region flags of an operator whose signature is (or is not)
/// statically empty.
fn static_flag(sig_static: bool) -> u32 {
    if sig_static {
        SIG_STATIC_BIT
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashMap;
    use crate::signature::{SigId, SignatureInterner};
    use crate::snapshot::{MAX_ARITY, NO_CHILD};

    fn view<'a>(
        states: &'a [Arc<StateData>],
        transitions: &'a FxHashMap<TransKey, StateId>,
        projection_cache: &'a FxHashMap<(StateId, u16, u8), StateId>,
        signatures: &'a SignatureInterner,
    ) -> TableView<'a> {
        TableView {
            states,
            projections: &[],
            transitions,
            projection_cache,
            signatures,
            project_children: false,
        }
    }

    fn build(
        states: &[Arc<StateData>],
        transitions: &FxHashMap<TransKey, StateId>,
        projection_cache: &FxHashMap<(StateId, u16, u8), StateId>,
        signatures: &SignatureInterner,
    ) -> DenseIndex {
        DenseIndex::build(
            &view(states, transitions, projection_cache, signatures),
            |_| false,
        )
    }

    fn key(op: u16, kids: [u32; MAX_ARITY], sig: u32) -> TransKey {
        TransKey {
            op,
            kids,
            sig: SigId(sig),
        }
    }

    #[test]
    fn dense_lookup_agrees_with_map() {
        let mut transitions: FxHashMap<TransKey, StateId> = FxHashMap::default();
        // A few operators with skewed group sizes, including colliding
        // leaf keys distinguished only by signature.
        for i in 0..100u32 {
            transitions.insert(key(3, [i, i / 2], 0), StateId(i));
        }
        for s in 0..5u32 {
            transitions.insert(key(7, [NO_CHILD; MAX_ARITY], s), StateId(200 + s));
        }
        let cache = FxHashMap::default();
        let sigs = SignatureInterner::new();
        let idx = build(&[], &transitions, &cache, &sigs);
        for (k, &v) in transitions.iter() {
            assert_eq!(idx.lookup(k.op, k.kids[0], k.kids[1], k.sig.0), Some(v));
        }
        // Unseen keys miss, including unseen operators beyond any group.
        assert_eq!(idx.lookup(3, 555, 555, 0), None);
        assert_eq!(idx.lookup(4, 0, 0, 0), None);
        assert_eq!(idx.lookup(9999, 0, 0, 0), None);
        assert_eq!(idx.lookup(7, NO_CHILD, NO_CHILD, 42), None);
    }

    #[test]
    fn projection_probe_agrees_with_map() {
        let mut cache: FxHashMap<(StateId, u16, u8), StateId> = FxHashMap::default();
        for i in 0..64u32 {
            cache.insert(
                (StateId(i), (i % 7) as u16, (i % 2) as u8),
                StateId(1000 + i),
            );
        }
        let sigs = SignatureInterner::new();
        let idx = build(&[], &FxHashMap::default(), &cache, &sigs);
        for (&(full, op, pos), &v) in cache.iter() {
            assert_eq!(idx.project(full.0, op, pos), Some(v));
        }
        assert_eq!(idx.project(64, 0, 0), None);
        assert_eq!(
            idx.project(0, 6, 1),
            cache.get(&(StateId(0), 6, 1)).copied()
        );
    }

    #[test]
    fn shape_predicts_built_bytes() {
        let mut transitions: FxHashMap<TransKey, StateId> = FxHashMap::default();
        for i in 0..33u32 {
            transitions.insert(key(2, [i, NO_CHILD], 0), StateId(i));
        }
        transitions.insert(key(5, [NO_CHILD; MAX_ARITY], 0), StateId(40));
        let mut cache: FxHashMap<(StateId, u16, u8), StateId> = FxHashMap::default();
        cache.insert((StateId(1), 2, 0), StateId(0));
        let mut sigs = SignatureInterner::new();
        sigs.intern(&[RuleCost::Finite(1), RuleCost::Infinite]);
        let shape = shape_of(&view(&[], &transitions, &cache, &sigs));
        let idx = build(&[], &transitions, &cache, &sigs);
        assert_eq!(idx.byte_size(), shape.bytes());
        // Group regions: 33 entries -> 128 slots, 1 entry -> 2 slots.
        assert_eq!(shape.trans_slots, 128 + 2);
        assert_eq!(shape.groups, 6);
    }

    #[test]
    fn sig_probe_agrees_with_interner() {
        let mut sigs = SignatureInterner::new();
        let mut vecs: Vec<Vec<RuleCost>> = vec![vec![]];
        for i in 0..40u16 {
            let v = vec![
                RuleCost::Finite(i),
                if i % 3 == 0 {
                    RuleCost::Infinite
                } else {
                    RuleCost::Finite(i / 2)
                },
            ];
            sigs.intern(&v);
            vecs.push(v);
        }
        let idx = build(&[], &FxHashMap::default(), &FxHashMap::default(), &sigs);
        for v in &vecs {
            assert_eq!(idx.find_sig(v), sigs.find(v));
        }
        assert_eq!(idx.find_sig(&[]), Some(SigId::EMPTY));
        assert_eq!(idx.find_sig(&[RuleCost::Finite(999)]), None);
        assert_eq!(
            idx.find_sig(&[
                RuleCost::Finite(1),
                RuleCost::Finite(0),
                RuleCost::Finite(0)
            ]),
            None
        );
    }

    #[test]
    fn enumeration_returns_exactly_the_built_tables() {
        let mut transitions: FxHashMap<TransKey, StateId> = FxHashMap::default();
        for i in 0..50u32 {
            transitions.insert(key((i % 4) as u16, [i, NO_CHILD], i % 3), StateId(i));
        }
        let mut cache: FxHashMap<(StateId, u16, u8), StateId> = FxHashMap::default();
        for i in 0..20u32 {
            cache.insert((StateId(i * 7), (i % 5) as u16, (i % 2) as u8), StateId(i));
        }
        let mut sigs = SignatureInterner::new();
        sigs.intern(&[RuleCost::Finite(3), RuleCost::Infinite]);
        sigs.intern(&[RuleCost::Finite(u16::MAX)]);
        // State 0 is dead: its slot word carries DEAD_BIT, which the
        // enumeration must strip.
        let states = [Arc::new(StateData::empty(2))];
        let idx = build(&states, &transitions, &cache, &sigs);
        assert_eq!(idx.lookup_enc(idx.group(0), 0, NO_CHILD, 0), Some(DEAD_BIT));
        let enumerated: FxHashMap<TransKey, StateId> = idx.transitions().collect();
        assert_eq!(enumerated, transitions);
        let projections: FxHashMap<(StateId, u16, u8), StateId> = idx.projections().collect();
        assert_eq!(projections, cache);
        let decoded: Vec<Vec<RuleCost>> = idx.signatures().collect();
        let interned: Vec<Vec<RuleCost>> = sigs.iter().map(<[RuleCost]>::to_vec).collect();
        assert_eq!(decoded, interned);
        assert_eq!(
            idx.counts(),
            TableCounts {
                transitions: 50,
                cached_projections: 20,
                signatures: 3,
                sig_cost_words: 3,
            }
        );
    }

    #[test]
    fn growth_in_place_matches_a_batch_build_and_spares_clones() {
        let mut transitions: FxHashMap<TransKey, StateId> = FxHashMap::default();
        let mut cache: FxHashMap<(StateId, u16, u8), StateId> = FxHashMap::default();
        let mut sigs = SignatureInterner::new();
        let mut grown = DenseIndex::default();
        let mut published: Vec<(DenseIndex, usize)> = Vec::new();
        for i in 0..300u32 {
            // Op 9 first, so the lower ops' regions appear as empty
            // headers before their first transition.
            let k = key(9 - (i % 4) as u16, [i, i % 7], i % 3);
            transitions.insert(k, StateId(i));
            grown.insert_transition(&k, StateId(i), false, |op| op == 6);
            if i % 5 == 0 {
                cache.insert((StateId(i), 2, 1), StateId(i / 5));
                grown.insert_projection(StateId(i), 2, 1, StateId(i / 5));
            }
            if i % 40 == 0 {
                let costs = [RuleCost::Finite(i as u16), RuleCost::Infinite];
                assert_eq!(grown.insert_signature(&costs), sigs.intern(&costs));
            }
            // Publish now and then: each clone must stay exactly as it
            // was while the master keeps growing.
            if i % 37 == 0 {
                published.push((grown.clone(), i as usize + 1));
            }
        }
        let batch = DenseIndex::build(&view(&[], &transitions, &cache, &sigs), |op| op == 6);
        assert_eq!(grown.byte_size(), batch.byte_size());
        assert_eq!(grown.counts(), batch.counts());
        for (k, &v) in &transitions {
            assert_eq!(grown.lookup(k.op, k.kids[0], k.kids[1], k.sig.0), Some(v));
            assert_eq!(batch.lookup(k.op, k.kids[0], k.kids[1], k.sig.0), Some(v));
        }
        for op in 0..12u16 {
            assert_eq!(grown.group(op).sig_static(), batch.group(op).sig_static());
            assert_eq!(grown.group(op).sig_static(), op == 6);
        }
        let enumerated: FxHashMap<TransKey, StateId> = grown.transitions().collect();
        assert_eq!(enumerated, transitions);
        for (snapshot, seen) in &published {
            assert_eq!(snapshot.counts().transitions, *seen);
            for (k, &v) in &transitions {
                let expect = (v.0 < *seen as u32).then_some(v);
                assert_eq!(snapshot.lookup(k.op, k.kids[0], k.kids[1], k.sig.0), expect);
            }
        }
    }

    #[test]
    fn slots_keep_load_factor_at_most_half() {
        for n in 1..200 {
            assert!(slots_for(n) >= 2 * n);
            assert!(slots_for(n).is_power_of_two());
        }
        assert_eq!(slots_for(0), 0);
    }
}
