//! The dense warm-path index: the flat, cache-friendly tables a
//! published snapshot answers from, built once at publication.
//!
//! The mutable master automaton memoizes into `FxHashMap`s — correct,
//! but every node would pay a hash of a 16-byte key, a bucket probe
//! through `hashbrown`-style control bytes, and (for the dead-state
//! check) an `Arc` dereference plus a scan of the state's cost vector.
//! The paper's bet is that the warm path is a *pure table lookup*; this
//! module makes the lookup look like one to the hardware:
//!
//! * **Per-operator grouped transition slots** — all transitions of one
//!   operator live in a contiguous, open-addressed, power-of-two region
//!   of a single flat slot array. The hash seed is fixed at build time
//!   and each group records the longest displacement any of its keys
//!   needed, so a lookup is one bounded linear probe: typically the
//!   home slot, worst-case `probe_cap + 1` adjacent 16-byte slots.
//! * **Structure-of-arrays state arena** — the per-state facts the read
//!   paths touch (the per-nonterminal optimal rule) are copied out of
//!   the `Arc<StateData>` arena into flat arrays indexed by `StateId`,
//!   so the hot loop never chases a pointer. Deadness is folded into
//!   the transition slots themselves ([`DEAD_BIT`]), so the warm walk
//!   needs no separate per-state load at all.
//! * **Dense projection table** — in projection mode the child-state →
//!   projection resolution is one probe of a flat `(packed key, value)`
//!   table instead of a second `FxHashMap` hash per child.
//!
//! The index is the **only** table representation a snapshot keeps: it
//! stores every key it was built from, so the snapshot's other readers
//! (persist export, [`OnDemandAutomaton::from_snapshot`], `stats`)
//! enumerate it ([`DenseIndex::transitions`],
//! [`DenseIndex::projections`], [`DenseIndex::signatures`]) instead of
//! a hash-map copy. It is **never serialized**: it is built from the
//! master's tables at every publication and at
//! [`persist`](crate::persist) import, and its footprint is a
//! deterministic function of the table contents ([`IndexShape`]) so the
//! memory governor can account for it without materializing anything
//! (see [`ComponentBytes::dense_index`](crate::ComponentBytes)).
//! `tests/dense_index.rs` property-checks exact hit/miss agreement with
//! the master's hash tables, including across compaction rebuilds that
//! remap ids.
//!
//! [`OnDemandAutomaton::from_snapshot`]: crate::OnDemandAutomaton::from_snapshot

use std::sync::Arc;

use odburg_grammar::{NormalRuleId, NtId, RuleCost};

use crate::fxhash::FxHashMap;
use crate::govern::TableCounts;
use crate::signature::{SigId, SignatureInterner};
use crate::snapshot::TransKey;
use crate::state::{StateData, StateId};

/// Sentinel for an empty transition slot (`state` field). Safe because
/// state ids are arena indices and the arena is budget-bounded far below
/// `u32::MAX`.
const EMPTY_STATE: u32 = u32::MAX;
/// Top bit of an occupied slot's `state` field: the target state is
/// dead (`NoCover`). Folding the flag into the probe result spares the
/// warm walk a dependent load of the dead array per node. State ids are
/// arena indices bounded far below `2^31` (asserted at build), and the
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

/// One open-addressed transition slot. The operator is implicit in the
/// group, so the key compare is `(kid0, kid1, sig)`.
#[derive(Debug, Clone, Copy)]
struct TransSlot {
    kid0: u32,
    kid1: u32,
    sig: u32,
    state: u32,
}

const EMPTY_SLOT: TransSlot = TransSlot {
    kid0: 0,
    kid1: 0,
    sig: 0,
    state: EMPTY_STATE,
};

/// One operator's region of the slot array. `mask == 0` marks an
/// operator with no memoized transitions (every lookup misses).
#[derive(Debug, Clone, Copy)]
struct Group {
    offset: u32,
    mask: u32,
    /// Longest displacement any key in the group needed at build time
    /// (lookups probe at most that many + 1 adjacent slots), with the
    /// top bit carrying [`SIG_STATIC_BIT`]: the operator has no dynamic
    /// rules, so a warm node's signature is statically
    /// [`SigId::EMPTY`](crate::SigId::EMPTY) and the walk can skip the
    /// grammar's dynamic-rule machinery entirely.
    probe_cap: u32,
}

/// Top bit of [`Group::probe_cap`]: this operator's dynamic-cost
/// signature is statically empty. Displacements are bounded by the slot
/// count, far below `2^31`.
const SIG_STATIC_BIT: u32 = 1 << 31;

const EMPTY_GROUP: Group = Group {
    offset: 0,
    mask: 0,
    probe_cap: 0,
};

/// An opaque, copyable handle to one operator's group header (see
/// [`DenseIndex::group`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupRef(Group);

impl GroupRef {
    /// The precomputed statically-empty-signature bit (see
    /// [`DenseIndex::build`]'s `sig_static`).
    #[inline(always)]
    pub fn sig_static(self) -> bool {
        self.0.probe_cap & SIG_STATIC_BIT != 0
    }
}

/// One projection slot: `(full state, op, position)` packed into a
/// `u64`, mapping to a projection id.
#[derive(Debug, Clone, Copy)]
struct ProjSlot {
    key: u64,
    val: u32,
}

const EMPTY_PROJ_SLOT: ProjSlot = ProjSlot {
    key: EMPTY_PROJ_KEY,
    val: 0,
};

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

const EMPTY_SIG_SLOT: SigSlot = SigSlot {
    hash: 0,
    id: EMPTY_SIG_ID,
};

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
/// compile-time constant so the slot layout is a pure function of the
/// interned signatures.
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
/// a compile-time constant: the slot layout is reproducible for a given
/// table, which keeps the index a pure function of the snapshot.
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

/// The deterministic shape (and therefore byte footprint) a dense index
/// has for given table entry counts. The memory governor computes this
/// from the canonical tables *without* building the index — the builder
/// produces exactly this shape, which `AutomatonSnapshot::new`
/// debug-asserts.
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

/// The shape an index over the given tables will have. Shared by the
/// accounting path (which never builds an index) and the builder.
pub(crate) fn shape_of<'a>(
    trans_ops: impl Iterator<Item = u16>,
    cache_entries: usize,
    states: impl Iterator<Item = &'a Arc<StateData>>,
    sigs: usize,
    sig_cost_words: usize,
) -> IndexShape {
    let mut per_op: FxHashMap<u16, usize> = FxHashMap::default();
    let mut max_op: Option<u16> = None;
    for op in trans_ops {
        *per_op.entry(op).or_insert(0) += 1;
        max_op = Some(max_op.map_or(op, |m| m.max(op)));
    }
    let mut num_states = 0usize;
    let mut num_nts = 0usize;
    for s in states {
        if num_states == 0 {
            num_nts = s.len();
        }
        num_states += 1;
    }
    IndexShape {
        groups: max_op.map_or(0, |m| m as usize + 1),
        trans_slots: per_op.values().map(|&n| slots_for(n)).sum(),
        proj_slots: slots_for(cache_entries),
        states: num_states,
        num_nts,
        sigs,
        sig_cost_words,
    }
}

/// The dense warm-path index of one snapshot. See the [module
/// docs](self).
#[derive(Debug)]
pub(crate) struct DenseIndex {
    groups: Box<[Group]>,
    slots: Box<[TransSlot]>,
    proj_slots: Box<[ProjSlot]>,
    proj_mask: u64,
    proj_probe_cap: u32,
    /// Open-addressed `(hash, SigId)` table over the non-empty interned
    /// signatures, verified against the flattened cost words.
    sig_slots: Box<[SigSlot]>,
    sig_mask: u64,
    sig_probe_cap: u32,
    /// `sig_offsets[id]..sig_offsets[id + 1]` bounds signature `id`'s
    /// encoded costs in `sig_costs`.
    sig_offsets: Box<[u32]>,
    sig_costs: Box<[u32]>,
    /// Flat `states × num_nts` optimal-rule array (`u32::MAX` = none).
    rules: Box<[u32]>,
    num_nts: usize,
}

impl DenseIndex {
    /// Builds the index from the master's tables. Cold path: runs once
    /// per publication / import.
    ///
    /// `sig_static(op)` must return `true` only when a node with that
    /// operator provably has the empty dynamic-cost signature (no
    /// dynamic base rules for the op, no dynamic chain rules in the
    /// grammar); `false` is always safe and routes the walk through the
    /// full signature evaluation.
    pub fn build(
        states: &[Arc<StateData>],
        transitions: &FxHashMap<TransKey, StateId>,
        projection_cache: &FxHashMap<(StateId, u16, u8), StateId>,
        signatures: &SignatureInterner,
        sig_static: impl Fn(u16) -> bool,
    ) -> DenseIndex {
        debug_assert!(
            states.len() < DEAD_BIT as usize,
            "state arena too large for the slot sentinel and dead-bit encoding"
        );
        let shape = shape_of(
            transitions.keys().map(|k| k.op),
            projection_cache.len(),
            states.iter(),
            signatures.len(),
            signatures.iter().map(|s| s.len()).sum(),
        );

        // Group headers: per-op slot counts -> contiguous regions.
        let mut per_op: Vec<usize> = vec![0; shape.groups];
        for key in transitions.keys() {
            per_op[key.op as usize] += 1;
        }
        let mut groups: Vec<Group> = vec![EMPTY_GROUP; shape.groups];
        let mut offset = 0usize;
        for (op, &n) in per_op.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let cap = slots_for(n);
            groups[op] = Group {
                offset: offset as u32,
                mask: (cap - 1) as u32,
                probe_cap: 0,
            };
            offset += cap;
        }
        debug_assert_eq!(offset, shape.trans_slots);

        // Insert every transition with linear probing, recording the
        // longest displacement per group.
        let mut slots: Vec<TransSlot> = vec![EMPTY_SLOT; shape.trans_slots];
        for (key, &target) in transitions.iter() {
            let g = &mut groups[key.op as usize];
            let mask = g.mask as u64;
            let mut i = mix(key.kids[0], key.kids[1], key.sig.0) & mask;
            let mut displacement = 0u32;
            loop {
                let slot = &mut slots[g.offset as usize + i as usize];
                if slot.state == EMPTY_STATE {
                    let dead = states.get(target.0 as usize).is_some_and(|s| s.is_dead());
                    *slot = TransSlot {
                        kid0: key.kids[0],
                        kid1: key.kids[1],
                        sig: key.sig.0,
                        state: target.0 | if dead { DEAD_BIT } else { 0 },
                    };
                    g.probe_cap = g.probe_cap.max(displacement);
                    break;
                }
                i = (i + 1) & mask;
                displacement += 1;
            }
        }
        for (op, g) in groups.iter_mut().enumerate() {
            if sig_static(op as u16) {
                g.probe_cap |= SIG_STATIC_BIT;
            }
        }

        // Projection table: one flat region for every (full, op, pos).
        let mut proj_slots: Vec<ProjSlot> = vec![EMPTY_PROJ_SLOT; shape.proj_slots];
        let proj_mask = (shape.proj_slots.max(1) - 1) as u64;
        let mut proj_probe_cap = 0u32;
        for (&(full, op, pos), &proj) in projection_cache.iter() {
            let key = pack_proj(full.0, op, pos);
            let mut i = mix_proj(key) & proj_mask;
            let mut displacement = 0u32;
            loop {
                let slot = &mut proj_slots[i as usize];
                if slot.key == EMPTY_PROJ_KEY {
                    *slot = ProjSlot { key, val: proj.0 };
                    proj_probe_cap = proj_probe_cap.max(displacement);
                    break;
                }
                i = (i + 1) & proj_mask;
                displacement += 1;
            }
        }

        // Signature table: non-empty interned signatures in id order
        // (the id-0 empty signature is shortcut by `find_sig` and only
        // contributes its offset entry), plus the flattened cost words
        // the probe verifies against.
        let sig_slot_count = slots_for(shape.sigs.saturating_sub(1));
        let mut sig_slots: Vec<SigSlot> = vec![EMPTY_SIG_SLOT; sig_slot_count];
        let sig_mask = (sig_slot_count.max(1) - 1) as u64;
        let mut sig_probe_cap = 0u32;
        let mut sig_offsets: Vec<u32> = Vec::with_capacity(shape.sigs + 1);
        let mut sig_costs: Vec<u32> = Vec::with_capacity(shape.sig_cost_words);
        sig_offsets.push(0);
        for (id, costs) in signatures.iter().enumerate() {
            sig_costs.extend(costs.iter().map(|&c| encode_cost(c)));
            sig_offsets.push(sig_costs.len() as u32);
            if id == 0 {
                continue;
            }
            let hash = mix_sig(costs);
            let mut i = hash & sig_mask;
            let mut displacement = 0u32;
            loop {
                let slot = &mut sig_slots[i as usize];
                if slot.id == EMPTY_SIG_ID {
                    *slot = SigSlot {
                        hash,
                        id: id as u32,
                    };
                    sig_probe_cap = sig_probe_cap.max(displacement);
                    break;
                }
                i = (i + 1) & sig_mask;
                displacement += 1;
            }
        }

        // Structure-of-arrays state facts.
        let mut rules: Vec<u32> = Vec::with_capacity(states.len() * shape.num_nts);
        for s in states {
            rules.extend_from_slice(s.raw_parts().1);
        }

        let built = DenseIndex {
            groups: groups.into_boxed_slice(),
            slots: slots.into_boxed_slice(),
            proj_slots: proj_slots.into_boxed_slice(),
            proj_mask,
            proj_probe_cap,
            sig_slots: sig_slots.into_boxed_slice(),
            sig_mask,
            sig_probe_cap,
            sig_offsets: sig_offsets.into_boxed_slice(),
            sig_costs: sig_costs.into_boxed_slice(),
            rules: rules.into_boxed_slice(),
            num_nts: shape.num_nts,
        };
        debug_assert_eq!(built.byte_size(), shape.bytes());
        built
    }

    /// Accounted bytes — by construction equal to
    /// [`IndexShape::bytes`] for this index's table counts.
    pub fn byte_size(&self) -> usize {
        self.groups.len() * GROUP_HEADER_BYTES
            + self.slots.len() * TRANS_SLOT_BYTES
            + self.proj_slots.len() * PROJ_SLOT_BYTES
            + self.rules.len() * 4
            + self.sig_slots.len() * SIG_SLOT_BYTES
            + self.sig_offsets.len() * SIG_OFFSET_BYTES
            + self.sig_costs.len() * SIG_COST_BYTES
    }

    /// The operator's group header, fetched once per node by the warm
    /// walk: it carries everything per-op the walk needs — the
    /// statically-empty-signature bit consulted before the probe and
    /// the slot region the probe then runs in. Unknown operators get
    /// the empty group (every lookup misses, signature conservatively
    /// dynamic).
    #[inline(always)]
    pub fn group(&self, op: u16) -> GroupRef {
        GroupRef(self.groups.get(op as usize).copied().unwrap_or(EMPTY_GROUP))
    }

    /// One bounded probe of the grouped transition slots. Kid slots
    /// beyond the operator's arity must be
    /// [`NO_CHILD`](crate::snapshot::NO_CHILD), exactly as in
    /// [`TransKey`].
    #[inline(always)]
    pub fn lookup(&self, op: u16, kid0: u32, kid1: u32, sig: u32) -> Option<StateId> {
        self.lookup_in(self.group(op), kid0, kid1, sig)
    }

    /// [`DenseIndex::lookup`] with the group header already in hand.
    #[inline(always)]
    pub fn lookup_in(&self, g: GroupRef, kid0: u32, kid1: u32, sig: u32) -> Option<StateId> {
        self.lookup_enc(g, kid0, kid1, sig)
            .map(|enc| StateId(enc & !DEAD_BIT))
    }

    /// The probe itself, returning the slot's encoded `state` word: the
    /// target [`StateId`] with [`DEAD_BIT`] set when the target is dead,
    /// so the warm walk's `NoCover` check needs no further load.
    #[inline(always)]
    pub(crate) fn lookup_enc(&self, g: GroupRef, kid0: u32, kid1: u32, sig: u32) -> Option<u32> {
        let g = g.0;
        if g.mask == 0 {
            return None;
        }
        let mask = g.mask as u64;
        // Re-slicing to the group's region bounds-checks once; inside
        // the loop `i & mask < region.len()` is provable, so each probe
        // is a bare load.
        let region = &self.slots[g.offset as usize..g.offset as usize + mask as usize + 1];
        let home = mix(kid0, kid1, sig) & mask;
        for i in home..=home + (g.probe_cap & !SIG_STATIC_BIT) as u64 {
            let slot = &region[(i & mask) as usize];
            if slot.state == EMPTY_STATE {
                return None;
            }
            if slot.kid0 == kid0 && slot.kid1 == kid1 && slot.sig == sig {
                return Some(slot.state);
            }
        }
        None
    }

    /// One bounded probe of the projection table.
    #[inline(always)]
    pub fn project(&self, full: u32, op: u16, pos: u8) -> Option<StateId> {
        if self.proj_slots.is_empty() {
            return None;
        }
        let key = pack_proj(full, op, pos);
        let mask = self.proj_mask;
        let region = &self.proj_slots[..mask as usize + 1];
        let home = mix_proj(key) & mask;
        for i in home..=home + self.proj_probe_cap as u64 {
            let slot = &region[(i & mask) as usize];
            if slot.key == EMPTY_PROJ_KEY {
                return None;
            }
            if slot.key == key {
                return Some(StateId(slot.val));
            }
        }
        None
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
        if self.sig_slots.is_empty() {
            return None;
        }
        let hash = mix_sig(costs);
        let mask = self.sig_mask;
        let region = &self.sig_slots[..mask as usize + 1];
        let home = hash & mask;
        for i in home..=home + self.sig_probe_cap as u64 {
            let slot = &region[(i & mask) as usize];
            if slot.id == EMPTY_SIG_ID {
                return None;
            }
            if slot.hash == hash && self.sig_matches(slot.id, costs) {
                return Some(SigId(slot.id));
            }
        }
        None
    }

    /// Exact compare of interned signature `id` against `costs`.
    #[inline]
    fn sig_matches(&self, id: u32, costs: &[RuleCost]) -> bool {
        let lo = self.sig_offsets[id as usize] as usize;
        let hi = self.sig_offsets[id as usize + 1] as usize;
        hi - lo == costs.len()
            && self.sig_costs[lo..hi]
                .iter()
                .zip(costs)
                .all(|(&w, &c)| w == encode_cost(c))
    }

    /// Every memoized transition, enumerated from the slots (unspecified
    /// order): the operator is the group index, the target the slot
    /// word without [`DEAD_BIT`].
    pub fn transitions(&self) -> impl Iterator<Item = (TransKey, StateId)> + '_ {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.mask != 0)
            .flat_map(move |(op, g)| {
                let start = g.offset as usize;
                self.slots[start..=start + g.mask as usize]
                    .iter()
                    .filter(|s| s.state != EMPTY_STATE)
                    .map(move |s| {
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
        self.proj_slots
            .iter()
            .filter(|s| s.key != EMPTY_PROJ_KEY)
            .map(|s| (unpack_proj(s.key), StateId(s.val)))
    }

    /// Every interned signature's cost vector, in id order (the empty
    /// signature first), decoded from the flattened cost words.
    pub fn signatures(&self) -> impl Iterator<Item = Vec<RuleCost>> + '_ {
        self.sig_offsets.windows(2).map(|w| {
            self.sig_costs[w[0] as usize..w[1] as usize]
                .iter()
                .map(|&c| decode_cost(c))
                .collect()
        })
    }

    /// Entry counts of the tables the index was built from.
    pub fn counts(&self) -> TableCounts {
        TableCounts {
            transitions: self.transitions().count(),
            cached_projections: self.projections().count(),
            signatures: self.sig_offsets.len() - 1,
            sig_cost_words: self.sig_costs.len(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::SigId;
    use crate::snapshot::{MAX_ARITY, NO_CHILD};

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
        let idx = DenseIndex::build(&[], &transitions, &cache, &sigs, |_| false);
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
        let idx = DenseIndex::build(&[], &FxHashMap::default(), &cache, &sigs, |_| false);
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
        let shape = shape_of(
            transitions.keys().map(|k| k.op),
            cache.len(),
            [].iter(),
            sigs.len(),
            sigs.iter().map(|s| s.len()).sum(),
        );
        let idx = DenseIndex::build(&[], &transitions, &cache, &sigs, |_| false);
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
        let idx = DenseIndex::build(
            &[],
            &FxHashMap::default(),
            &FxHashMap::default(),
            &sigs,
            |_| false,
        );
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
        let idx = DenseIndex::build(&states, &transitions, &cache, &sigs, |_| false);
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
    fn slots_keep_load_factor_at_most_half() {
        for n in 1..200 {
            assert!(slots_for(n) >= 2 * n);
            assert!(slots_for(n).is_power_of_two());
        }
        assert_eq!(slots_for(0), 0);
    }
}
