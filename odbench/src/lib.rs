//! Closed-loop benchmark of the odburg selection service.
//!
//! Three workloads drive the public serving API — [`SelectorServer`],
//! [`ShardCluster`](odburg::cluster::ShardCluster),
//! [`odburg::frontend::compile`] and [`CompletedJob::reduce`] — from one
//! client thread that keeps a fixed number of jobs outstanding (a closed
//! loop: callers of a selector are compilers waiting for the reply):
//!
//! * `warm_replay` — the served steady state: tables trained on exactly
//!   the jobs being replayed, so the grow path and publication do no work.
//! * `drift_cluster` — a two-shard cluster warm-started on one seed and
//!   fed another, with table shipping: publication and shipping at full
//!   table size dominate.
//! * `cold_converge` — episodes on fresh servers, one job at a time, a
//!   quarter of them MiniC compiled from source: state construction
//!   dominates while the automaton converges.
//!
//! Every job's reduction cost is checked against a dynamic-programming
//! oracle, and each workload asserts that it did the work it is named
//! for. A traced pass records spans around the calls into each layer
//! ([`spans`]) and yields the per-layer metrics ([`per_layer`]).

pub mod spans;
pub mod stats;

mod cold_converge;
mod drift_cluster;
mod warm_replay;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use odburg::prelude::*;
use odburg::service::JobHandle;
use odburg::targets::TARGET_NAMES;
use odburg::workloads::TrafficJob;

use spans::{Tracer, NO_JOB};
use stats::{median, ns, per, quantile};

/// Jobs a client keeps outstanding in `warm_replay` and `drift_cluster`.
const WINDOW: usize = 16;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Replay of the jobs the warm-start tables were trained on.
    WarmReplay,
    /// Unseen traffic against a warm two-shard cluster that ships tables.
    DriftCluster,
    /// Cold-server convergence episodes with MiniC compiles on the path.
    ColdConverge,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::WarmReplay,
        Workload::DriftCluster,
        Workload::ColdConverge,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmReplay => "warm_replay",
            Workload::DriftCluster => "drift_cluster",
            Workload::ColdConverge => "cold_converge",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How long a pass measures.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Timed-window seconds (set-up excluded).
    Seconds(f64),
    /// Jobs started; makes every count of a run exact.
    Jobs(u64),
}

/// Runs one pass of `workload`.
///
/// # Panics
///
/// Panics when the benchmark's own inputs cannot be prepared (table
/// files, MiniC sources); failures of the system under test are
/// recorded in [`Run::failed`] and [`Run::problems`] instead.
pub fn run(workload: Workload, seed: u64, budget: Budget, traced: bool) -> Run {
    let run = Run::new(workload, traced);
    match workload {
        Workload::WarmReplay => warm_replay::run(run, seed, budget),
        Workload::DriftCluster => drift_cluster::run(run, seed, budget),
        Workload::ColdConverge => cold_converge::run(run, seed, budget),
    }
}

/// Exact counts of the work a pass did. Single-writer closed loops make
/// them repeat exactly for a seed under a [`Budget::Jobs`] budget.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Timed jobs completed and reduced.
    pub jobs: u64,
    /// Nodes labeled (automaton counters).
    pub labeled_nodes: u64,
    /// Transition-cache hits.
    pub memo_hits: u64,
    /// Transition-cache misses.
    pub memo_misses: u64,
    /// States built.
    pub states_built: u64,
    /// Machine-independent work units.
    pub work_units: u64,
    /// Jobs that published a new snapshot.
    pub publications: u64,
    /// `ship_target` calls (one per target per ship round).
    pub ship_calls: u64,
    /// Shipments installed on a replica.
    pub ship_installs: u64,
    /// Shipments a replica skipped as already current.
    pub ship_skips: u64,
    /// Payload bytes of all ship calls.
    pub shipped_bytes: u64,
}

impl Counts {
    fn add_work(&mut self, c: &WorkCounters) {
        self.labeled_nodes += c.nodes;
        self.memo_hits += c.memo_hits;
        self.memo_misses += c.memo_misses;
        self.states_built += c.states_built;
        self.work_units += c.work_units();
    }
}

/// Everything one pass measured.
#[derive(Debug)]
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// Jobs attempted in the timed window.
    pub attempted: u64,
    /// Jobs failed, refused, expired, or reduced to a cost other than
    /// the oracle's.
    pub failed: u64,
    /// Human-readable failures and violated named-work assertions.
    pub problems: Vec<String>,
    /// Length of the timed window (set-up excluded).
    pub window: Duration,
    /// The stretches the timed window was made of, in order.
    pub stretches: Vec<Stretch>,
    /// Peak resident memory of the process when the window ended, in MB.
    pub peak_rss_mb: f64,
    /// Nodes of the jobs that completed and were reduced.
    pub nodes: u64,
    /// Job latencies (start to `reduce` returning), in ns.
    pub latencies_ns: Vec<u64>,
    /// Set-up times, in ns.
    pub setups_ns: Vec<u64>,
    /// `ship_target` wall times (whole call, or its stages when traced),
    /// in ns.
    pub ships_ns: Vec<u64>,
    /// Table bytes of the served targets, summed, at the end of each
    /// server or cluster lifetime.
    pub table_bytes: Vec<u64>,
    /// Memoized transitions a replica lacked behind its writer after
    /// each ship round, one sample per target and replica.
    pub replica_lag: Vec<u64>,
    /// Exact counts.
    pub counts: Counts,
    /// Span recorder of a traced pass.
    pub tracer: Option<Tracer>,
    /// Traced: label time minus warm-walk time of jobs that published.
    pub grow_ns: Vec<u64>,
    /// Traced: nodes an episode labeled until the windowed hit rate of
    /// its MiniC compiles reached 0.99 (all its nodes if it never did).
    pub converge_nodes: Vec<u64>,
    /// Traced: nodes of MiniC jobs.
    pub compiled_nodes: u64,
    /// Traced: queue wait of every job as the server reported it, in ns.
    pub queue_ns: Vec<u64>,
    /// Traced: labeling time of every job as the server reported it, in ns.
    pub label_ns: Vec<u64>,
    /// Traced: jobs whose queue and label spans had to be clipped to fit
    /// between admission and the wait returning, and the largest clip in
    /// ns.
    pub clipped: (u64, u64),
}

impl Run {
    fn new(workload: Workload, traced: bool) -> Run {
        Run {
            workload,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            window: Duration::ZERO,
            stretches: Vec::new(),
            peak_rss_mb: 0.0,
            nodes: 0,
            latencies_ns: Vec::new(),
            setups_ns: Vec::new(),
            ships_ns: Vec::new(),
            table_bytes: Vec::new(),
            replica_lag: Vec::new(),
            counts: Counts::default(),
            tracer: traced.then(Tracer::new),
            grow_ns: Vec::new(),
            converge_nodes: Vec::new(),
            compiled_nodes: 0,
            queue_ns: Vec::new(),
            label_ns: Vec::new(),
            clipped: (0, 0),
        }
    }

    /// Records a violated assertion.
    fn problem(&mut self, message: String) {
        if self.problems.len() < 20 {
            self.problems.push(message);
        }
    }

    /// Records a failed job.
    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.problem(message);
    }

    /// Records a traced span, when tracing.
    fn span(&mut self, parent: u32, name: &'static str, start: Instant, end: Instant) -> u32 {
        match self.tracer.as_mut() {
            Some(t) => t.span(parent, NO_JOB, name, start, end),
            None => 0,
        }
    }

    /// Opens a traced span whose end [`close`](Self::close) sets, so
    /// that its children can name it as their parent.
    fn open(&mut self, parent: u32, name: &'static str, start: Instant) -> u32 {
        self.span(parent, name, start, start)
    }

    /// Ends a span [`open`](Self::open) returned.
    fn close(&mut self, id: u32, end: Instant) {
        if let Some(t) = self.tracer.as_mut() {
            t.close(id, end);
        }
    }

    /// Whether every job succeeded and every assertion held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Completed jobs between two `publish_sample` spans.
const PUBLISH_SAMPLE_EVERY: u64 = 1024;

/// Longest stretch of the timed window: a stretch that reaches it ends at
/// the next completed job and a new one begins, so that the quiet half
/// is chosen at this resolution (25 clock ticks per CPU at 100 Hz).
const MAX_STRETCH: Duration = Duration::from_millis(250);

/// The timed window: accumulates time across rounds or episodes and
/// says when the budget is spent.
#[derive(Debug)]
struct Window {
    budget: Budget,
    spent: Duration,
    opened: Option<Instant>,
    started: u64,
}

impl Window {
    fn new(budget: Budget) -> Window {
        Window {
            budget,
            spent: Duration::ZERO,
            opened: None,
            started: 0,
        }
    }

    fn open(&mut self) {
        self.opened = Some(Instant::now());
    }

    /// Closes the window; returns how long it was open, if it was.
    fn close(&mut self) -> Option<Duration> {
        let elapsed = self.opened.take()?.elapsed();
        self.spent += elapsed;
        Some(elapsed)
    }

    fn elapsed(&self) -> Duration {
        self.spent + self.open_for()
    }

    /// How long the window has been open since it last opened.
    fn open_for(&self) -> Duration {
        self.opened.map_or(Duration::ZERO, |t| t.elapsed())
    }

    /// Whether another job may start; counts it if so.
    fn start_job(&mut self) -> bool {
        let more = self.more();
        self.started += u64::from(more);
        more
    }

    /// Whether the budget has room for another job.
    fn more(&self) -> bool {
        match self.budget {
            Budget::Seconds(s) => self.elapsed().as_secs_f64() < s,
            Budget::Jobs(n) => self.started < n,
        }
    }
}

/// One stretch of the timed window, from an open to the next close: a
/// round, an episode, or the jobs between two ship rounds, cut where it
/// exceeds `MAX_STRETCH`.
#[derive(Debug, Clone)]
pub struct Stretch {
    /// How long it lasted.
    pub elapsed: Duration,
    /// The jobs completed in it, as indices into [`Run::latencies_ns`].
    pub latencies: std::ops::Range<usize>,
    /// Nodes of those jobs.
    pub nodes: u64,
    /// Share of the machine's CPU time the hypervisor stole during it.
    pub steal_frac: f64,
}

/// Cumulative CPU time of the machine, in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
struct CpuTicks {
    /// Time the hypervisor ran something else while a CPU had work.
    steal: u64,
    /// All time, idle included.
    total: u64,
}

/// The machine's CPU ticks so far, from the first line of `/proc/stat`
/// (`cpu user nice system idle iowait irq softirq steal ...`).
///
/// # Panics
///
/// Panics where `/proc/stat` has no such line (non-Linux).
fn cpu_ticks() -> CpuTicks {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .expect("a cpu line in /proc/stat")
        .split_whitespace()
        .take(8)
        .map(|v| v.parse().expect("numeric ticks in /proc/stat"))
        .collect();
    CpuTicks {
        steal: ticks.get(7).copied().unwrap_or(0),
        total: ticks.iter().sum(),
    }
}

/// Index of a built-in target in [`TARGET_NAMES`].
fn target_index(name: &str) -> usize {
    TARGET_NAMES
        .iter()
        .position(|t| *t == name)
        .expect("jobs address built-in targets")
}

/// One submitted, not yet collected job.
struct InFlight {
    idx: u32,
    target: usize,
    job: u64,
    start: Instant,
    compiled: Option<Instant>,
    admit: (Instant, Instant),
    handle: JobHandle,
}

/// The single client thread's bookkeeping: submits, collects, reduces,
/// and (when tracing) records each job's spans.
struct Client {
    run: Run,
    window: Window,
    /// Last snapshot a job of each target was pinned to; a job pinned
    /// to another one published it.
    last_snap: Vec<Option<Arc<AutomatonSnapshot>>>,
    /// `(job index, reduction cost)` of every completed job.
    costs: Vec<(u32, Cost)>,
    next_job: u64,
    /// Where the open stretch of the timed window began: latencies
    /// recorded, nodes completed, and the machine's CPU ticks.
    stretch_start: (usize, u64, CpuTicks),
}

impl Client {
    fn new(run: Run, budget: Budget) -> Client {
        Client {
            run,
            window: Window::new(budget),
            last_snap: vec![None; TARGET_NAMES.len()],
            costs: Vec::new(),
            next_job: 0,
            stretch_start: (0, 0, CpuTicks::default()),
        }
    }

    /// Opens the timed window: a new stretch begins.
    fn open_window(&mut self) {
        self.stretch_start = (self.run.latencies_ns.len(), self.run.nodes, cpu_ticks());
        self.window.open();
    }

    /// Closes the timed window and records the stretch that ends.
    fn close_window(&mut self) {
        let Some(elapsed) = self.window.close() else {
            return;
        };
        let (latencies, nodes, ticks) = self.stretch_start;
        let now = cpu_ticks();
        self.run.stretches.push(Stretch {
            elapsed,
            latencies: latencies..self.run.latencies_ns.len(),
            nodes: self.run.nodes - nodes,
            steal_frac: per((now.steal - ticks.steal) as f64, now.total - ticks.total),
        });
    }

    /// Ends the timed window for good, and takes the process's peak
    /// memory before the oracle check allocates its own.
    fn end_window(&mut self) {
        self.close_window();
        self.run.window = self.window.elapsed();
        self.run.peak_rss_mb = peak_rss_mb();
    }

    /// Sets the snapshot the next job of `target` is compared against.
    fn pin_snapshot(&mut self, target: usize, snapshot: Arc<AutomatonSnapshot>) {
        self.last_snap[target] = Some(snapshot);
    }

    /// Submits job `idx`. `compile_start` is when the client began
    /// compiling its source, if it had to; the job starts there.
    fn submit(
        &mut self,
        idx: u32,
        target: usize,
        compile_start: Option<Instant>,
        submit: impl FnOnce() -> Result<JobHandle, String>,
    ) -> Option<InFlight> {
        self.run.attempted += 1;
        let a0 = Instant::now();
        let result = submit();
        let a1 = Instant::now();
        let job = self.next_job;
        self.next_job += 1;
        match result {
            Ok(handle) => Some(InFlight {
                idx,
                target,
                job,
                start: compile_start.unwrap_or(a0),
                compiled: compile_start.map(|_| a0),
                admit: (a0, a1),
                handle,
            }),
            Err(e) => {
                self.run.fail(format!("job {idx} refused: {e}"));
                None
            }
        }
    }

    /// Waits for a job, reduces it, records it. Returns whether it
    /// succeeded.
    fn complete(&mut self, f: InFlight) -> bool {
        let done = f.handle.wait();
        let r0 = Instant::now();
        let reduced = done.reduce();
        let end = Instant::now();
        let reduction = match reduced {
            Ok(reduction) => reduction,
            Err(e) => {
                self.run
                    .fail(format!("job {} on {}: {e}", f.idx, done.target));
                return false;
            }
        };
        let Ok(pinned) = &done.outcome else {
            unreachable!("a job that reduced was labeled")
        };
        self.costs.push((f.idx, reduction.total_cost));
        let nodes = done.forest.len() as u64;
        self.run.nodes += nodes;
        self.run.counts.jobs += 1;
        self.run.latencies_ns.push(ns(end - f.start));
        if self.window.open_for() >= MAX_STRETCH {
            self.close_window();
            self.open_window();
        }
        let snapshot = pinned.snapshot();
        let published = self.last_snap[f.target]
            .as_ref()
            .is_some_and(|s| !Arc::ptr_eq(s, snapshot));
        if published {
            self.run.counts.publications += 1;
            self.last_snap[f.target] = Some(Arc::clone(snapshot));
        }
        if let Some(tr) = self.run.tracer.as_mut() {
            let job = tr.span(0, f.job, "job", f.start, end);
            if let Some(compiled) = f.compiled {
                tr.span(job, f.job, "compile", f.start, compiled);
                self.run.compiled_nodes += nodes;
            }
            tr.span(job, f.job, "admit", f.admit.0, f.admit.1);
            // The server reports how long the job queued and labeled.
            // Both spans follow admission back to back and must end by
            // the time the client's wait returned; where the worker took
            // the job before `submit` returned, that overlap stays in
            // admit and the two spans are clipped by it.
            let (queued, label) = (ns(done.queued), ns(done.latency));
            self.run.queue_ns.push(queued);
            self.run.label_ns.push(label);
            let q0 = tr.at(f.admit.1);
            let room = tr.at(r0).saturating_sub(q0);
            let label_span = label.min(room);
            let queue_span = queued.min(room - label_span);
            let clipped = queued + label - queue_span - label_span;
            if clipped > 0 {
                self.run.clipped.0 += 1;
                self.run.clipped.1 = self.run.clipped.1.max(clipped);
            }
            tr.span_ns(job, f.job, "queue_wait", q0, q0 + queue_span);
            tr.span_ns(
                job,
                f.job,
                "label",
                q0 + queue_span,
                q0 + queue_span + label_span,
            );
            tr.span(job, f.job, "reduce", r0, end);
            // The dense warm walk on the job's forest against its pinned
            // snapshot, re-run outside the job.
            let w0 = Instant::now();
            let walk = snapshot.label_warm(&done.forest, &mut WorkCounters::new());
            let w1 = Instant::now();
            tr.span(0, f.job, "warm_walk", w0, w1);
            if walk.states.len() != done.forest.len() {
                self.run
                    .problem(format!("job {}: pinned snapshot misses nodes", f.idx));
            }
            if published {
                self.run.grow_ns.push(label.saturating_sub(ns(w1 - w0)));
            }
        }
        true
    }

    /// Times one freeze + index build of `shared`'s master at its current
    /// table size (what a publication costs), under the writer lock, as a
    /// `publish_sample` span, with the timed window closed. Traced passes
    /// only.
    fn sample_publish(&mut self, shared: &SharedOnDemand) {
        self.untimed(|run| {
            let (t0, t1, snapshot) = shared.with_read(|master| {
                let t0 = Instant::now();
                let snapshot = master.snapshot();
                (t0, Instant::now(), snapshot)
            });
            drop(snapshot);
            run.span(0, "publish_sample", t0, t1);
        });
    }

    /// Runs the benchmark's own extra work of a traced pass with the
    /// timed window closed, so that it does not count as the workload's.
    fn untimed(&mut self, f: impl FnOnce(&mut Run)) {
        if self.run.tracer.is_none() {
            return;
        }
        self.close_window();
        f(&mut self.run);
        self.open_window();
    }

    /// Checks every distinct job's reduction cost against `oracle`
    /// (called once per distinct job) and returns the finished run.
    fn finish(mut self, mut oracle: impl FnMut(u32) -> Result<Cost, String>) -> Run {
        let mut expected: BTreeMap<u32, Result<Cost, String>> = BTreeMap::new();
        for (idx, cost) in std::mem::take(&mut self.costs) {
            let want = expected.entry(idx).or_insert_with(|| oracle(idx));
            match want {
                Ok(want) if *want == cost => {}
                Ok(want) => self
                    .run
                    .fail(format!("job {idx}: cost {cost:?}, oracle {want:?}")),
                Err(e) => {
                    let e = e.clone();
                    self.run.fail(format!("job {idx}: oracle failed: {e}"));
                }
            }
        }
        self.run
    }
}

/// The dynamic-programming oracle: optimal reduction cost of a forest
/// under a built-in target, independent of the automaton.
struct Oracle {
    labelers: Vec<DpLabeler>,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            labelers: odburg::targets::all()
                .iter()
                .map(|g| DpLabeler::new(Arc::new(g.normalize())))
                .collect(),
        }
    }

    fn cost(&mut self, target: usize, forest: &Forest) -> Result<Cost, String> {
        let dp = &mut self.labelers[target];
        let labeling = dp.label_forest(forest).map_err(|e| e.to_string())?;
        let grammar = Arc::clone(dp.grammar());
        reduce_forest(forest, &grammar, &labeling)
            .map(|r| r.total_cost)
            .map_err(|e| e.to_string())
    }
}

/// Directory the benchmark writes its outputs under.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under [`out_dir`], removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: Workload) -> WorkDir {
        let dir = out_dir().join(format!("work-{}-{}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark's work directory");
        WorkDir(dir)
    }

    /// A fresh subdirectory holding copies of the `.odbt` files in `from`.
    fn copy_of(&self, from: &Path, name: &str) -> PathBuf {
        let to = self.0.join(name);
        let _ = std::fs::remove_dir_all(&to);
        std::fs::create_dir_all(&to).expect("create a tables directory");
        for entry in std::fs::read_dir(from).expect("read trained tables") {
            let path = entry.expect("read trained tables").path();
            let file = path.file_name().expect("table files have names");
            std::fs::copy(&path, to.join(file)).expect("copy trained tables");
        }
        to
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Trains one automaton per target on `jobs`, in order, and persists its
/// tables as `<dir>/<target>.odbt` — the files a server warm-starts from.
fn train(jobs: &[TrafficJob], dir: &Path) {
    std::fs::create_dir_all(dir).expect("create the trained-tables directory");
    for grammar in odburg::targets::all() {
        let mut automaton = OnDemandAutomaton::new(Arc::new(grammar.normalize()));
        for job in jobs.iter().filter(|j| j.target == grammar.name()) {
            automaton
                .label_forest(&job.forest)
                .expect("sampled traffic labels");
        }
        odburg::select::persist::save_tables(
            &automaton.snapshot(),
            &dir.join(format!("{}.odbt", grammar.name())),
        )
        .expect("export trained tables");
    }
}

/// Registers every built-in target on a server, one traced `register`
/// span per target.
fn register_all(run: &mut Run, parent: u32, register: impl Fn(&Grammar)) {
    for grammar in odburg::targets::all() {
        let t0 = Instant::now();
        register(&grammar);
        let t1 = Instant::now();
        run.span(parent, "register", t0, t1);
    }
}

/// Checks a drained server's accounting: telemetry conservation, and
/// every accepted job completed.
fn check_server_report(run: &mut Run, what: &str, totals: JobCounts, report: &ServerReport) {
    if !totals.conserved() {
        run.problem(format!("{what}: telemetry not conserved: {totals:?}"));
    }
    if report.accepted != report.completed + report.deadline_missed
        || report.rejected + report.shed + report.deadline_missed + report.failed > 0
    {
        run.problem(format!(
            "{what}: accepted {} completed {} failed {} rejected {} shed {} missed {}",
            report.accepted,
            report.completed,
            report.failed,
            report.rejected,
            report.shed,
            report.deadline_missed
        ));
    }
}

/// Sum of the per-target table bytes of a server report. A target's
/// `table_bytes` already includes its dense index.
fn table_bytes(report: &ServerReport) -> u64 {
    report.per_target.iter().map(|t| t.table_bytes as u64).sum()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: u64,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Peak resident memory of this process in MB, from `/proc/self/status`.
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (non-Linux).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Latency quantile in ms and the number of samples beyond it.
fn latency_ms(sorted: &[u64], q: f64) -> (f64, u64) {
    let v = quantile(sorted, q);
    let beyond = sorted.len() - sorted.partition_point(|&x| x <= v);
    (v as f64 / 1e6, beyond as u64)
}

/// The stretches the timed figures are taken over: the least stolen
/// ones, in order of steal, until they cover half the timed window.
///
/// On a shared virtual machine the hypervisor steals a varying share of
/// the CPUs, in phases of seconds, and a run's throughput and tail move
/// with it (on a two-vCPU virtual machine, a `cold_converge` run that
/// lost 23% of the CPU time to steal completed 45% fewer nodes per
/// second than one that lost 3%). Steal is the
/// machine's, not the program's doing, so choosing stretches by it does
/// not choose by how fast the program was: a slowdown or a stall the
/// program causes shows in the quiet stretches as in the others.
pub fn quiet_stretches(run: &Run) -> Vec<&Stretch> {
    let mut order: Vec<&Stretch> = run.stretches.iter().collect();
    order.sort_by(|a, b| a.steal_frac.total_cmp(&b.steal_frac));
    let half = run.window / 2;
    let mut covered = Duration::ZERO;
    order
        .into_iter()
        .take_while(|s| {
            let more = covered < half;
            covered += s.elapsed;
            more
        })
        .collect()
}

/// Throughput and latency over some stretches of a run.
#[derive(Debug, Clone, Copy)]
pub struct Figures {
    /// Nodes per second of the stretches' time.
    pub nodes_per_s: f64,
    /// Median job latency, ms.
    pub p50_ms: f64,
    /// p99 job latency, ms.
    pub p99_ms: f64,
    /// Jobs completed in the stretches.
    pub jobs: u64,
    /// Latency samples beyond the p99.
    pub beyond_p99: u64,
    /// Share of the machine's CPU time stolen during the stretches.
    pub steal_frac: f64,
}

/// [`Figures`] over `stretches`.
pub fn figures<'a>(run: &Run, stretches: impl IntoIterator<Item = &'a Stretch>) -> Figures {
    let (mut lat, mut nodes, mut secs, mut stolen) = (Vec::new(), 0, 0.0, 0.0);
    for s in stretches {
        lat.extend_from_slice(&run.latencies_ns[s.latencies.clone()]);
        nodes += s.nodes;
        secs += s.elapsed.as_secs_f64();
        stolen += s.steal_frac * s.elapsed.as_secs_f64();
    }
    lat.sort_unstable();
    let (p50_ms, _) = latency_ms(&lat, 0.50);
    let (p99_ms, beyond_p99) = latency_ms(&lat, 0.99);
    Figures {
        nodes_per_s: nodes as f64 / secs,
        p50_ms,
        p99_ms,
        jobs: lat.len() as u64,
        beyond_p99,
        steal_frac: stolen / secs,
    }
}

/// The end-to-end metrics of a pass, in report order, plus the number
/// of latency samples beyond the reported p99. Throughput and latency
/// are taken over the [`quiet_stretches`], every job of which counts.
/// `fail_frac` and (for `drift_cluster`) `ship_p50_ms` are printed but
/// not gated.
pub fn end_to_end(run: &Run) -> (Vec<Metric>, u64) {
    let quiet = figures(run, quiet_stretches(run));
    let n = quiet.jobs;
    let mut setups = run.setups_ns.clone();
    let mut ships = run.ships_ns.clone();
    let mut metrics = vec![
        metric(
            "setup_s",
            median(&mut setups) as f64 / 1e9,
            "s",
            setups.len() as u64,
        ),
        metric("nodes_per_s", quiet.nodes_per_s, "nodes/s", n),
        metric("job_p50_ms", quiet.p50_ms, "ms", n),
        metric("job_p99_ms", quiet.p99_ms, "ms", n),
        metric(
            "fail_frac",
            per(run.failed as f64, run.attempted),
            "ratio",
            run.attempted,
        ),
    ];
    if run.workload == Workload::DriftCluster {
        metrics.push(metric(
            "ship_p50_ms",
            median(&mut ships) as f64 / 1e6,
            "ms",
            ships.len() as u64,
        ));
    }
    metrics.push(metric("peak_rss_mb", run.peak_rss_mb, "MB", 1));
    (metrics, quiet.beyond_p99)
}

/// Names of the end-to-end metrics the benchmark gates (listed in
/// `BENCHMARK.json`); the others are printed only.
pub const GATED: [&str; 5] = [
    "setup_s",
    "nodes_per_s",
    "job_p50_ms",
    "job_p99_ms",
    "peak_rss_mb",
];

/// The per-layer metrics of a traced pass. Layers a workload does not
/// exercise report 0.
///
/// # Panics
///
/// Panics if `run` was not traced.
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let layers = run.tracer.as_ref().expect("a traced pass").layers();
    let empty = spans::Layer::default();
    let layer = |name: &str| layers.get(name).unwrap_or(&empty);
    let p50_us = |name: &str| quantile(&layer(name).durations_ns, 0.5) as f64 / 1e3;
    let mean_ms = |name: &str| {
        let l = layer(name);
        per(l.total_ns() as f64 / 1e6, l.count)
    };
    let c = &run.counts;
    let jobs = c.jobs;
    let mut queue = run.queue_ns.clone();
    let mut label = run.label_ns.clone();
    label.sort_unstable();
    let mut grow = run.grow_ns.clone();
    let mut converge = run.converge_nodes.clone();
    let mut tables = run.table_bytes.clone();
    let lag_samples = run.replica_lag.len() as u64;
    vec![
        metric(
            "service.admit_us",
            p50_us("admit"),
            "us",
            layer("admit").count,
        ),
        metric(
            "service.queue_wait_us",
            median(&mut queue) as f64 / 1e3,
            "us",
            queue.len() as u64,
        ),
        metric(
            "service.handoff_us",
            quantile(&layer("job").self_ns, 0.5) as f64 / 1e3,
            "us",
            layer("job").count,
        ),
        metric(
            "core.label_p50_us",
            quantile(&label, 0.5) as f64 / 1e3,
            "us",
            label.len() as u64,
        ),
        metric(
            "core.label_p99_us",
            quantile(&label, 0.99) as f64 / 1e3,
            "us",
            label.len() as u64,
        ),
        metric(
            "core.warm_walk_ns_per_node",
            per(layer("warm_walk").total_ns() as f64, run.nodes),
            "ns/node",
            layer("warm_walk").count,
        ),
        metric(
            "core.misses_per_job",
            per(c.memo_misses as f64, jobs),
            "1/job",
            jobs,
        ),
        metric(
            "core.states_built",
            per(c.states_built as f64, jobs),
            "1/job",
            jobs,
        ),
        metric(
            "core.publishes_per_job",
            per(c.publications as f64, jobs),
            "1/job",
            jobs,
        ),
        metric(
            "core.publish_ms",
            quantile(&layer("publish_sample").durations_ns, 0.5) as f64 / 1e6,
            "ms",
            layer("publish_sample").count,
        ),
        metric(
            "core.grow_us",
            median(&mut grow) as f64 / 1e3,
            "us",
            grow.len() as u64,
        ),
        metric(
            "core.work_units_per_node",
            per(c.work_units as f64, c.labeled_nodes),
            "work/node",
            c.labeled_nodes,
        ),
        metric(
            "core.converge_nodes",
            median(&mut converge) as f64,
            "nodes",
            converge.len() as u64,
        ),
        metric(
            "core.table_mb",
            median(&mut tables) as f64 / 1e6,
            "MB",
            tables.len() as u64,
        ),
        metric(
            "core.import_ms",
            mean_ms("import"),
            "ms",
            layer("import").count,
        ),
        metric(
            "grammar.register_ms",
            mean_ms("register"),
            "ms",
            layer("register").count,
        ),
        metric(
            "frontend.compile_ns_per_node",
            per(layer("compile").total_ns() as f64, run.compiled_nodes),
            "ns/node",
            layer("compile").count,
        ),
        metric(
            "codegen.reduce_ns_per_node",
            per(layer("reduce").total_ns() as f64, run.nodes),
            "ns/node",
            layer("reduce").count,
        ),
        metric(
            "cluster.ship_encode_ms",
            quantile(&layer("ship_encode").durations_ns, 0.5) as f64 / 1e6,
            "ms",
            layer("ship_encode").count,
        ),
        metric(
            "cluster.ship_install_ms",
            quantile(&layer("ship_install").durations_ns, 0.5) as f64 / 1e6,
            "ms",
            layer("ship_install").count,
        ),
        metric(
            "cluster.ship_mb",
            per(c.shipped_bytes as f64 / 1e6, c.ship_calls),
            "MB",
            c.ship_calls,
        ),
        metric(
            "cluster.ship_useful_frac",
            per(c.ship_installs as f64, c.ship_installs + c.ship_skips),
            "ratio",
            c.ship_installs + c.ship_skips,
        ),
        metric(
            "cluster.replica_lag_transitions",
            per(run.replica_lag.iter().sum::<u64>() as f64, lag_samples),
            "count",
            lag_samples,
        ),
    ]
}
