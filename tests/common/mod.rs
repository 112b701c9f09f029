//! Shared helpers for the integration-test crates. Lives in a
//! subdirectory so cargo does not compile it as a test target of its
//! own; each test crate pulls it in with `mod common;`.

#![allow(dead_code)] // each test crate uses a different subset

use std::sync::Arc;

use odburg::grammar::{CostExpr, GrammarBuilder, Pattern};
use odburg::prelude::*;
use odburg::select::{StateId, WarmWalk};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random but always well-formed grammar:
/// * every nonterminal has a leaf rule (so everything is derivable),
/// * random base rules over a small operator pool,
/// * random chain rules,
/// * optionally a dynamic "even constant" rule to exercise signatures.
pub fn random_grammar(seed: u64) -> Grammar {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GrammarBuilder::new(&format!("random-{seed}"));

    let num_nts = rng.gen_range(2..5usize);
    let nts: Vec<_> = (0..num_nts).map(|i| b.nt(&format!("n{i}"))).collect();

    let leaf_ops = [
        Op::new(OpKind::Const, TypeTag::I8),
        Op::new(OpKind::AddrLocal, TypeTag::P),
    ];
    let unary_ops = [
        Op::new(OpKind::Load, TypeTag::I8),
        Op::new(OpKind::Neg, TypeTag::I8),
        Op::new(OpKind::Com, TypeTag::I8),
    ];
    let binary_ops = [
        Op::new(OpKind::Add, TypeTag::I8),
        Op::new(OpKind::Sub, TypeTag::I8),
        Op::new(OpKind::Mul, TypeTag::I8),
        Op::new(OpKind::Store, TypeTag::I8),
    ];

    // Guaranteed leaf rule per nonterminal.
    for &nt in &nts {
        let op = leaf_ops[rng.gen_range(0..leaf_ops.len())];
        b.rule(
            nt,
            Pattern::op(op, vec![]),
            CostExpr::Fixed(rng.gen_range(0..4)),
            None,
        );
    }
    // Random base rules, sometimes with nested (multi-node) patterns.
    for _ in 0..rng.gen_range(3..10usize) {
        let lhs = nts[rng.gen_range(0..nts.len())];
        let leaf = |rng: &mut StdRng| Pattern::nt(nts[rng.gen_range(0..nts.len())]);
        let pattern = if rng.gen_bool(0.5) {
            let op = unary_ops[rng.gen_range(0..unary_ops.len())];
            if rng.gen_bool(0.25) {
                // Nested: unary over binary — splits into helper rules.
                let inner = binary_ops[rng.gen_range(0..binary_ops.len() - 1)];
                Pattern::op(
                    op,
                    vec![Pattern::op(inner, vec![leaf(&mut rng), leaf(&mut rng)])],
                )
            } else {
                Pattern::op(op, vec![leaf(&mut rng)])
            }
        } else {
            let op = binary_ops[rng.gen_range(0..binary_ops.len())];
            Pattern::op(op, vec![leaf(&mut rng), leaf(&mut rng)])
        };
        b.rule(lhs, pattern, CostExpr::Fixed(rng.gen_range(0..6)), None);
    }
    // Random chain rules (cycles allowed; the closure handles them).
    for _ in 0..rng.gen_range(0..3usize) {
        let lhs = nts[rng.gen_range(0..nts.len())];
        let from = nts[rng.gen_range(0..nts.len())];
        if lhs != from {
            b.rule(
                lhs,
                Pattern::nt(from),
                CostExpr::Fixed(rng.gen_range(0..3)),
                None,
            );
        }
    }
    // Sometimes a dynamic rule: "constant is even" applicability test.
    if rng.gen_bool(0.5) {
        let dc = b.bind_dyncost(
            "even",
            Arc::new(|forest: &Forest, node| match forest.node(node).payload() {
                Payload::Int(v) if v % 2 == 0 => RuleCost::Finite(0),
                _ => RuleCost::Infinite,
            }),
        );
        let lhs = nts[rng.gen_range(0..nts.len())];
        b.rule(
            lhs,
            Pattern::op(Op::new(OpKind::Const, TypeTag::I8), vec![]),
            CostExpr::Dynamic(dc),
            None,
        );
    }
    b.start(nts[0])
        .build()
        .expect("random grammars are well-formed")
}

/// Total optimal cost of a forest according to a chooser + reducer.
pub fn total_cost(forest: &Forest, normal: &Arc<NormalGrammar>, chooser: &dyn RuleChooser) -> Cost {
    odburg::codegen::reduce_forest(forest, normal, chooser)
        .expect("reduce")
        .total_cost
}

/// Waits on every handle in submission order, then for the maintenance
/// quanta the jobs scheduled: the second half of a one-shot batch
/// through a [`SelectorServer`], so table sizes sampled afterwards are
/// post-enforcement.
pub fn wait_all(server: &SelectorServer, handles: Vec<JobHandle>) -> Vec<CompletedJob> {
    let done = handles.into_iter().map(JobHandle::wait).collect();
    server.wait_idle();
    done
}

/// Submits every `(target, forest)` job (the server's queue must hold
/// them all), then [`wait_all`].
pub fn run_all<'a>(
    server: &SelectorServer,
    jobs: impl IntoIterator<Item = (&'a str, Forest)>,
) -> Vec<CompletedJob> {
    let handles = jobs
        .into_iter()
        .map(|(target, forest)| server.try_submit(target, forest).expect("job accepted"))
        .collect();
    wait_all(server, handles)
}

/// The hash-table warm walk over a master automaton's public probes —
/// the reference the snapshot's dense walk is checked against: arena
/// order, a dynamic node's signature through the interner, one
/// `peek_transition`, and the dead check through the state arena.
/// Stops at the first miss, exactly like the dense walk.
pub fn hash_walk(master: &OnDemandAutomaton, forest: &Forest) -> WarmWalk {
    let grammar = master.grammar();
    let mut states: Vec<StateId> = Vec::with_capacity(forest.len());
    for (id, node) in forest.iter() {
        let op = node.op();
        let kids: Vec<StateId> = node.children().iter().map(|c| states[c.index()]).collect();
        let costs: Vec<RuleCost> = grammar
            .dynamic_base_rules(op)
            .iter()
            .chain(grammar.dynamic_chain_rules())
            .map(|&rule| grammar.rule_cost_at(rule, forest, id))
            .collect();
        let Some(sig) = master.find_signature(&costs) else {
            break;
        };
        match master.peek_transition(op, &kids, sig) {
            Some(sid) if master.state(sid).is_dead() => {
                return WarmWalk {
                    states,
                    nocover: Some(id),
                }
            }
            Some(sid) => states.push(sid),
            None => break,
        }
    }
    WarmWalk {
        states,
        nocover: None,
    }
}
