//! Differential fuzzing of the selection service: proptest-generated
//! random grammars and forests go through a [`SelectorServer`] as
//! one-shot batches (worker pool, snapshot pinning, registry), and every
//! result is
//! cross-checked **bit-identically** — full instruction sequence and
//! total cost — against a fresh [`DpLabeler`] oracle built for just
//! that job. The service is allowed no deviation at all: the concurrent
//! fast path, the grow path, projection-mode masters and mid-batch
//! registration must all be invisible in the output.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use odburg::prelude::*;
use odburg::workloads::TreeSampler;

use common::{random_grammar, run_all, wait_all};

/// The oracle: a fresh iburg-style dynamic-programming labeler, built
/// from scratch for one forest, reduced to instructions.
fn dp_reduction(forest: &Forest, normal: &Arc<NormalGrammar>) -> Reduction {
    let mut dp = DpLabeler::new(Arc::clone(normal));
    let labeling = dp.label_forest(forest).expect("dp labels sampled trees");
    odburg::codegen::reduce_forest(forest, normal, &labeling).expect("dp reduces")
}

fn two_workers() -> SelectorServer {
    SelectorServer::new(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
}

fn failed(done: &[CompletedJob]) -> usize {
    done.iter().filter(|d| d.outcome.is_err()).count()
}

proptest! {
    // 256 cases x 4 jobs: the differential surface the acceptance
    // criteria ask for, on every run.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn service_batches_agree_bit_identically_with_dp(seed in 0u64..1_000_000) {
        let server = two_workers();
        let alpha = Arc::new(random_grammar(seed).normalize());
        let beta = Arc::new(random_grammar(seed ^ 0x5EED).normalize());
        server.register_normal("alpha", Arc::clone(&alpha)).unwrap();
        // One projection-mode master per batch: lazy representer states
        // must be just as invisible as the direct tables.
        server.register_with_mode(
            "beta",
            Arc::clone(&beta),
            OnDemandConfig { project_children: true, ..OnDemandConfig::default() },
        )
        .unwrap();

        let mut expected: Vec<(Ticket, Arc<NormalGrammar>, Forest)> = Vec::new();
        let mut handles: Vec<JobHandle> = Vec::new();
        let mut enqueue = |server: &SelectorServer, name: &str, normal: &Arc<NormalGrammar>, salt: u64| {
            let mut sampler = TreeSampler::new(normal, seed ^ salt);
            let forest = sampler.sample_forest(8);
            let handle = server.try_submit(name, forest.clone()).unwrap();
            expected.push((handle.ticket(), Arc::clone(normal), forest));
            handles.push(handle);
        };
        enqueue(&server, "alpha", &alpha, 0xA1);
        enqueue(&server, "beta", &beta, 0xB2);
        // Mid-batch registration: a third grammar joins while jobs are
        // already in flight, and serves the same batch.
        let gamma = Arc::new(random_grammar(seed ^ 0xC0C0).normalize());
        server.register_normal("gamma", Arc::clone(&gamma)).unwrap();
        enqueue(&server, "gamma", &gamma, 0xC3);
        // And the first target again, now against warmed tables.
        enqueue(&server, "alpha", &alpha, 0xA4);

        let done = wait_all(&server, handles);
        prop_assert_eq!(done.len(), expected.len());
        prop_assert_eq!(failed(&done), 0);
        prop_assert_eq!(server.queue_depth(), 0);

        for (result, (ticket, normal, forest)) in done.iter().zip(&expected) {
            prop_assert_eq!(result.ticket, *ticket);
            prop_assert_eq!(result.forest.len(), forest.len());
            let got = result.reduce().expect("service job reduces");
            let want = dp_reduction(forest, normal);
            prop_assert_eq!(
                &got.instructions,
                &want.instructions,
                "seed {}: service and dp chose different code for {}",
                seed,
                result.ticket
            );
            prop_assert_eq!(got.total_cost, want.total_cost, "seed {}", seed);
        }

        // The per-target accounting covers exactly the submitted jobs.
        let report = server.shutdown();
        let jobs_accounted: u64 = report.per_target.iter().map(|t| t.jobs.completed).sum();
        prop_assert_eq!(jobs_accounted, expected.len() as u64);
        for t in &report.per_target {
            prop_assert_eq!(t.jobs.failed, 0);
            prop_assert!(done.iter().any(|d| d.target == t.target && d.epoch().is_some()));
        }
    }

    #[test]
    fn service_reports_uncoverable_jobs_without_poisoning_the_batch(seed in 0u64..1_000_000) {
        // A forest using an operator the grammar has no rule for must
        // come back as a per-job NoCover, while every other job in the
        // same batch still matches the oracle.
        let server = two_workers();
        let normal = Arc::new(random_grammar(seed).normalize());
        server.register_normal("only", Arc::clone(&normal)).unwrap();

        let mut sampler = TreeSampler::new(&normal, seed ^ 0x0DD);
        let good = sampler.sample_forest(6);

        let mut bad = Forest::new();
        let root = parse_sexpr(&mut bad, "(MulF8 (ConstF8 #1.5) (ConstF8 #2.5))").unwrap();
        bad.add_root(root);

        let done = run_all(&server, [("only", good.clone()), ("only", bad)]);
        prop_assert_eq!(failed(&done), 1);
        prop_assert!(done[0].outcome.is_ok());
        prop_assert!(matches!(
            done[1].outcome,
            Err(JobError::Label(LabelError::NoCover { .. }))
        ));
        let got = done[0].reduce().expect("good job reduces");
        let want = dp_reduction(&good, &normal);
        prop_assert_eq!(&got.instructions, &want.instructions);
        prop_assert_eq!(got.total_cost, want.total_cost);
    }
}
