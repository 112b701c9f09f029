//! **The warm labeling hot path: dense index vs. the FxHashMap
//! baseline.**
//!
//! Every snapshot carries a dense warm-path index — per-operator
//! open-addressed transition regions plus structure-of-arrays state
//! facts, grown by the master and shared with its snapshots — and it
//! is the only table a snapshot keeps; the lock-free fast path labels
//! forests by
//! topological levels against it. This binary measures what that buys
//! on a **fully warm** automaton: ns/node for the dense level-batched
//! walk (`AutomatonSnapshot::label_warm`) against a per-node
//! `FxHashMap` walk over the master automaton's public probes
//! (`find_signature`, `peek_transition`) — the pre-dense fast path,
//! kept here in bench code as [`hash_walk`] with the same per-node key
//! construction and dead check — across the six built-in targets.
//!
//! Both walks run over the same tables (the snapshot and the master it
//! was published from) and the same sampled forest, and are asserted
//! to resolve identical states with **zero** warm misses — the
//! comparison is purely the lookup structures.
//!
//! Per target it also times what growth costs on that warm automaton:
//! `publish_one_miss_us`, the best `SharedOnDemand::label_forest` of a
//! one-tree forest with exactly one memo miss (a fresh miss each rep,
//! so each one grows the master and publishes a snapshot), and
//! `import_us`, the best `persist::read_tables_from` of the warm
//! tables — a full parse plus a from-scratch index build, the cost a
//! publication would have if it rebuilt the index. The summary is written
//! to `target/label_hot.json` for the CI hot-path smoke job; absolute
//! numbers come from a small shared container, so read the ratios, not
//! the nanoseconds.
//!
//! Regenerate with: `cargo run --release -p odburg_bench --bin label_hot`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use odburg_bench::{f, median_time, row, rule_line};
use odburg_core::persist;
use odburg_core::signature::SigId;
use odburg_core::{OnDemandAutomaton, SharedOnDemand, StateId, WarmWalk, WorkCounters};
use odburg_grammar::{CostExpr, DynCostFn, NormalGrammar, RuleCost};
use odburg_ir::{Forest, Op, OpId, NUM_OPS};
use odburg_workloads::TreeSampler;

const TREES: usize = 400;
const SEED: u64 = 0x0dbu64 * 1_000_003;
const REPS: usize = 17;
/// One-miss publications timed per target (each needs its own fresh
/// miss) and the cap on sampled candidate trees to find them in.
const PUBLISH_REPS: usize = 25;
const PUBLISH_CANDIDATES: usize = 20_000;

struct Target {
    name: String,
    nodes: usize,
    dense_ns: f64,
    hash_ns: f64,
    speedup: f64,
    warm_misses: u64,
    dense_probes: u64,
    dyncost_evals: u64,
    /// `None` when the warm automaton left no one-miss tree to find.
    publish_one_miss_us: Option<f64>,
    import_us: f64,
}

fn main() {
    let mut targets: Vec<Target> = Vec::new();

    let widths = [9, 7, 10, 10, 8, 7];
    println!("Warm labeling hot path: dense-indexed level-batched walk vs FxHashMap walk\n");
    row(
        &[
            "target".into(),
            "nodes".into(),
            "hash".into(),
            "dense".into(),
            "speedup".into(),
            "misses".into(),
        ],
        &widths,
    );
    row(
        &[
            "".into(),
            "".into(),
            "ns/node".into(),
            "ns/node".into(),
            "".into(),
            "".into(),
        ],
        &widths,
    );
    rule_line(&widths);

    for grammar in odburg::targets::all() {
        let normal = Arc::new(grammar.normalize());
        let name = normal.name().to_owned();
        let forest = TreeSampler::new(&normal, SEED).sample_forest(TREES);
        let shared = SharedOnDemand::new(OnDemandAutomaton::new(Arc::clone(&normal)));
        shared.label_forest(&forest).expect("workload labels");
        let snap = shared.snapshot();
        let master = shared.into_inner();
        let dyn_fns = dyn_cost_fns(&normal);

        // The snapshot must answer the whole forest warm through both
        // walks, with identical states — otherwise the timing below
        // compares different work.
        let mut dense_counters = WorkCounters::new();
        let dense_walk = snap.label_warm(&forest, &mut dense_counters);
        let warm_misses = (forest.len() - dense_walk.states.len()) as u64;
        assert!(
            dense_walk.nocover.is_none(),
            "{name}: warm walk hit NoCover"
        );
        assert_eq!(warm_misses, 0, "{name}: dense warm walk missed");
        let mut hash_counters = WorkCounters::new();
        let baseline = hash_walk(&master, &dyn_fns, &forest, &mut hash_counters);
        assert_eq!(
            baseline.states, dense_walk.states,
            "{name}: dense and hash walks disagree"
        );

        // ~½M node visits per timed sample. Samples alternate between
        // the two walks so machine noise drifts onto both equally, and
        // the estimate is the best (minimum) sample — the standard
        // noise-robust choice on a shared single-CPU box.
        let iters = (500_000 / forest.len()).max(8);
        let mut dense_best = f64::INFINITY;
        let mut hash_best = f64::INFINITY;
        for rep in 0..REPS {
            let dense_t = median_time(1, || {
                for _ in 0..iters {
                    let mut c = WorkCounters::new();
                    std::hint::black_box(snap.label_warm(&forest, &mut c).states.len());
                }
            });
            let hash_t = median_time(1, || {
                for _ in 0..iters {
                    let mut c = WorkCounters::new();
                    std::hint::black_box(
                        hash_walk(&master, &dyn_fns, &forest, &mut c).states.len(),
                    );
                }
            });
            if rep == 0 {
                continue; // warmup pair
            }
            let per_node =
                |t: std::time::Duration| t.as_nanos() as f64 / (iters * forest.len()) as f64;
            dense_best = dense_best.min(per_node(dense_t));
            hash_best = hash_best.min(per_node(hash_t));
        }
        let dense_ns = dense_best;
        let hash_ns = hash_best;
        let speedup = hash_ns / dense_ns;

        let mut tables = Vec::new();
        persist::write_tables_to(&snap, &mut tables).expect("export succeeds");
        let import_us = best_us(REPS, || {
            std::hint::black_box(
                persist::read_tables_from(&tables[..], Arc::clone(&normal), master.config())
                    .expect("import succeeds"),
            );
        });
        let publish_one_miss_us = publish_one_miss_us(&SharedOnDemand::new(master), &normal);

        row(
            &[
                name.clone(),
                forest.len().to_string(),
                f(hash_ns, 1),
                f(dense_ns, 1),
                format!("{}x", f(speedup, 2)),
                warm_misses.to_string(),
            ],
            &widths,
        );
        targets.push(Target {
            name,
            nodes: forest.len(),
            dense_ns,
            hash_ns,
            speedup,
            warm_misses,
            dense_probes: dense_counters.table_lookups,
            dyncost_evals: dense_counters.dyncost_evals,
            publish_one_miss_us,
            import_us,
        });
    }

    println!("\nGrowth on the warm automaton: one-miss publication vs full import\n");
    let growth_widths = [9, 12, 10, 8];
    row(
        &[
            "target".into(),
            "publish 1 miss".into(),
            "import".into(),
            "ratio".into(),
        ],
        &growth_widths,
    );
    row(
        &["".into(), "us".into(), "us".into(), "".into()],
        &growth_widths,
    );
    rule_line(&growth_widths);
    for t in &targets {
        let (publish, ratio) = match t.publish_one_miss_us {
            Some(p) => (f(p, 1), format!("{}x", f(t.import_us / p, 1))),
            None => ("-".into(), "-".into()),
        };
        row(
            &[t.name.clone(), publish, f(t.import_us, 1), ratio],
            &growth_widths,
        );
    }

    let total_misses: u64 = targets.iter().map(|t| t.warm_misses).sum();
    let at_1_3 = targets.iter().filter(|t| t.speedup >= 1.3).count();
    let min_speedup = targets
        .iter()
        .map(|t| t.speedup)
        .fold(f64::INFINITY, f64::min);
    println!();
    println!(
        "speedup: min {}x, {} of {} targets at >= 1.3x; warm misses: {total_misses}",
        f(min_speedup, 2),
        at_1_3,
        targets.len(),
    );
    println!("shape check: a warm node costs one bounded probe of a flat slot array");
    println!("instead of a hash + bucket walk + Arc chase — the paper's pure-table-");
    println!("lookup warm path, finally shaped like one for the hardware.");

    // The hot path must never be slower than the baseline it replaced,
    // and the warm workload must be answered entirely from the index.
    assert_eq!(total_misses, 0, "warm misses on a fully warmed snapshot");
    for t in &targets {
        assert!(
            t.speedup >= 1.0,
            "{}: dense walk slower than FxHashMap baseline ({}x)",
            t.name,
            t.speedup
        );
    }

    let mut json = String::from("{\n  \"bench\": \"label_hot\",\n");
    let _ = writeln!(json, "  \"trees_per_target\": {TREES},");
    let _ = writeln!(json, "  \"min_speedup\": {min_speedup:.3},");
    let _ = writeln!(json, "  \"targets_at_1_3x\": {at_1_3},");
    let _ = writeln!(json, "  \"warm_misses\": {total_misses},");
    let _ = writeln!(json, "  \"speedup_ok\": {},", min_speedup >= 1.0);
    json.push_str("  \"targets\": [\n");
    for (i, t) in targets.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"target\": \"{}\", \"nodes\": {}, \"hash_ns_per_node\": {:.2}, \
             \"dense_ns_per_node\": {:.2}, \"speedup\": {:.3}, \"warm_misses\": {}, \
             \"dense_probes\": {}, \"dyncost_evals\": {}, \"publish_one_miss_us\": {}, \
             \"import_us\": {:.2}}}{}",
            t.name,
            t.nodes,
            t.hash_ns,
            t.dense_ns,
            t.speedup,
            t.warm_misses,
            t.dense_probes,
            t.dyncost_evals,
            t.publish_one_miss_us
                .map_or_else(|| "null".to_string(), |p| format!("{p:.2}")),
            t.import_us,
            if i + 1 < targets.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/label_hot.json", &json).expect("write target/label_hot.json");
    println!("\nwrote target/label_hot.json");
}

/// The best of `reps` timed runs of `f` (after one untimed), in µs.
fn best_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            micros(t.elapsed())
        })
        .fold(f64::INFINITY, f64::min)
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// The best time of `SharedOnDemand::label_forest` on a one-tree forest
/// the published snapshot answers up to its root, with exactly one memo
/// miss — the root's transition — so the call grows the master by one
/// transition and publishes. Each rep samples candidates until one
/// misses only at the root against the *current* snapshot, so every rep
/// pays a fresh miss. `None` when no candidate qualifies (a target
/// whose sampled workload has converged).
fn publish_one_miss_us(shared: &SharedOnDemand, normal: &Arc<NormalGrammar>) -> Option<f64> {
    let mut sampler = TreeSampler::new(normal, SEED ^ 0x000B_115E);
    let mut best: Option<f64> = None;
    let mut reps = 0;
    for _ in 0..PUBLISH_CANDIDATES {
        if reps == PUBLISH_REPS {
            break;
        }
        let forest = sampler.sample_forest(1);
        let walk = shared
            .snapshot()
            .label_warm(&forest, &mut WorkCounters::new());
        if walk.nocover.is_some() || walk.states.len() + 1 != forest.len() {
            continue;
        }
        let misses = shared.counters().memo_misses;
        let published = shared.snapshots_published();
        let t0 = Instant::now();
        let labeled = shared.label_forest(&forest);
        let t = micros(t0.elapsed());
        if labeled.is_err() || shared.counters().memo_misses != misses + 1 {
            continue;
        }
        assert_eq!(shared.snapshots_published(), published + 1);
        reps += 1;
        best = Some(best.map_or(t, |b: f64| b.min(t)));
    }
    best
}

/// Per operator id, the cost functions of its dynamic base rules
/// followed by the grammar's dynamic chain rules — the same flattened
/// dispatch the snapshot's warm walk evaluates through, so both walks
/// pay identical dynamic-cost work.
fn dyn_cost_fns(grammar: &NormalGrammar) -> Vec<Vec<DynCostFn>> {
    let resolve = |&r: &odburg_grammar::NormalRuleId| -> DynCostFn {
        match grammar.rule(r).cost {
            CostExpr::Dynamic(id) => grammar.dyncosts()[id.0 as usize].func.clone(),
            CostExpr::Fixed(c) => Arc::new(move |_: &Forest, _| RuleCost::Finite(c)),
        }
    };
    (0..NUM_OPS as u16)
        .map(|id| match Op::from_id(OpId(id)) {
            Some(op) => grammar
                .dynamic_base_rules(op)
                .iter()
                .chain(grammar.dynamic_chain_rules())
                .map(resolve)
                .collect(),
            None => Vec::new(),
        })
        .collect()
}

/// The `FxHashMap` warm walk the dense index replaced: arena order, per
/// node one interner probe for a dynamic node's signature, one
/// `peek_transition` (a hashed projection resolution per child in
/// projection mode, then the hash-map probe), and the dead check
/// through the `Arc` state arena. Stops at the first miss, like the
/// dense walk.
fn hash_walk(
    master: &OnDemandAutomaton,
    dyn_fns: &[Vec<DynCostFn>],
    forest: &Forest,
    counters: &mut WorkCounters,
) -> WarmWalk {
    let mut states: Vec<StateId> = Vec::with_capacity(forest.len());
    let mut scratch: Vec<RuleCost> = Vec::new();
    for (id, node) in forest.iter() {
        let op = node.op();
        let mut kids = [StateId(0); 2];
        for (i, &c) in node.children().iter().enumerate() {
            kids[i] = states[c.index()];
        }
        counters.nodes += 1;
        counters.hash_lookups += 1;
        let fns = &dyn_fns[op.id().0 as usize];
        let sig = if fns.is_empty() {
            SigId::EMPTY
        } else {
            scratch.clear();
            scratch.extend(fns.iter().map(|f| f(forest, id)));
            counters.dyncost_evals += fns.len() as u64;
            match master.find_signature(&scratch) {
                Some(s) => s,
                None => break,
            }
        };
        match master.peek_transition(op, &kids[..op.arity()], sig) {
            Some(sid) => {
                if master.state(sid).is_dead() {
                    return WarmWalk {
                        states,
                        nocover: Some(id),
                    };
                }
                counters.memo_hits += 1;
                states.push(sid);
            }
            None => break,
        }
    }
    WarmWalk {
        states,
        nocover: None,
    }
}
