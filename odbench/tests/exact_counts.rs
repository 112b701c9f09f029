//! Each workload, run twice on one seed under a job budget, does exactly
//! the same work: with one client, single-writer masters and ship rounds
//! at quiescent points, every count repeats.

use odbench::{run, Budget, Counts, Workload};

const SEED: u64 = 7;

fn counts_of_two_runs(workload: Workload, jobs: u64) -> Counts {
    let first = run(workload, SEED, Budget::Jobs(jobs), false);
    let second = run(workload, SEED, Budget::Jobs(jobs), false);
    assert!(first.correct(), "{}: {:?}", workload.name(), first.problems);
    assert!(
        second.correct(),
        "{}: {:?}",
        workload.name(),
        second.problems
    );
    assert_eq!(first.counts, second.counts, "{}", workload.name());
    assert_eq!(first.counts.jobs, jobs);
    first.counts
}

#[test]
fn warm_replay_counts_repeat() {
    let c = counts_of_two_runs(Workload::WarmReplay, 4000);
    assert_eq!((c.memo_misses, c.states_built, c.publications), (0, 0, 0));
    assert!(c.work_units > 0);
}

#[test]
fn drift_cluster_counts_repeat() {
    let c = counts_of_two_runs(Workload::DriftCluster, 1000);
    assert!(c.memo_misses > 0 && c.publications > 0);
    assert!(c.ship_calls > 0 && c.shipped_bytes > 0);
    assert_eq!(c.ship_installs + c.ship_skips, c.ship_calls);
}

#[test]
fn cold_converge_counts_repeat() {
    let c = counts_of_two_runs(Workload::ColdConverge, 2500);
    assert!(c.states_built > 0 && c.memo_misses > 0 && c.publications > 0);
}
