//! Dynamic-cost signatures.
//!
//! The on-demand automaton supports dynamic costs by evaluating, at every
//! node, the dynamic-cost functions of the rules that could apply there
//! (the dynamic base rules of the node's operator plus all dynamic chain
//! rules) and folding the resulting cost vector into the transition key.
//! Nodes whose dynamic costs differ therefore get distinct transitions and
//! distinct (correct) states, while nodes that agree share the fast path:
//! *compute all dynamic costs, then one hash lookup per node* — the
//! structure the PLDI 2006 paper describes.

use odburg_grammar::RuleCost;

use crate::fxhash::FxHashMap;

/// Id of an interned dynamic-cost signature.
///
/// [`SigId::EMPTY`] is the signature of nodes with no dynamic rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SigId(pub u32);

impl SigId {
    /// The empty signature (no dynamic rules at this node).
    pub const EMPTY: SigId = SigId(0);
}

/// Interner for dynamic-cost vectors. Ids are dense and assigned in
/// interning order, so re-interning the vectors of [`iter`](Self::iter)
/// into a fresh interner reproduces every id.
#[derive(Debug, Clone)]
pub struct SignatureInterner {
    sigs: Vec<Box<[RuleCost]>>,
    ids: FxHashMap<Box<[RuleCost]>, SigId>,
}

impl SignatureInterner {
    /// Creates an interner with the empty signature pre-interned as
    /// [`SigId::EMPTY`].
    pub fn new() -> Self {
        let empty: Box<[RuleCost]> = Vec::new().into_boxed_slice();
        let mut ids = FxHashMap::default();
        ids.insert(empty.clone(), SigId::EMPTY);
        SignatureInterner {
            sigs: vec![empty],
            ids,
        }
    }

    /// Interns a cost vector.
    pub fn intern(&mut self, costs: &[RuleCost]) -> SigId {
        if costs.is_empty() {
            return SigId::EMPTY;
        }
        if let Some(&id) = self.ids.get(costs) {
            return id;
        }
        let id = SigId(self.sigs.len() as u32);
        let boxed: Box<[RuleCost]> = costs.to_vec().into_boxed_slice();
        self.sigs.push(boxed.clone());
        self.ids.insert(boxed, id);
        id
    }

    /// The cost vector of an interned signature.
    pub fn get(&self, id: SigId) -> &[RuleCost] {
        &self.sigs[id.0 as usize]
    }

    /// Looks up a cost vector without interning it.
    pub fn find(&self, costs: &[RuleCost]) -> Option<SigId> {
        if costs.is_empty() {
            return Some(SigId::EMPTY);
        }
        self.ids.get(costs).copied()
    }

    /// Number of distinct signatures (including the empty one).
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Iterates over all interned cost vectors in id order (the empty
    /// signature first).
    pub fn iter(&self) -> impl Iterator<Item = &[RuleCost]> {
        self.sigs.iter().map(|s| &**s)
    }

    /// `true` if only the empty signature exists.
    pub fn is_empty(&self) -> bool {
        self.sigs.len() == 1
    }
}

impl Default for SignatureInterner {
    fn default() -> Self {
        SignatureInterner::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_signature_is_reserved() {
        let mut s = SignatureInterner::new();
        assert_eq!(s.intern(&[]), SigId::EMPTY);
        assert_eq!(s.get(SigId::EMPTY), &[]);
        assert!(s.is_empty());
    }

    #[test]
    fn interning_dedupes() {
        let mut s = SignatureInterner::new();
        let a = s.intern(&[RuleCost::Finite(0), RuleCost::Infinite]);
        let b = s.intern(&[RuleCost::Finite(0), RuleCost::Infinite]);
        let c = s.intern(&[RuleCost::Finite(1), RuleCost::Infinite]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(c), &[RuleCost::Finite(1), RuleCost::Infinite]);
    }
}
