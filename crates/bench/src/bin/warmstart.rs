//! **Warm start: persisted tables vs cold on-demand construction.**
//!
//! The cold-start figure (`figure7_coldstart`) shows what a fresh
//! process pays while the on-demand automaton builds its tables. This
//! binary measures the cure: the same method stream labeled by (a) a
//! cold automaton and (b) an automaton warm-started from tables that a
//! previous "process" exported — the export/import round-trips through
//! the real `odburg_core::persist` binary format, so serialization is
//! part of what is measured.
//!
//! Besides the human-readable table, the per-method trajectory and the
//! summary are written as JSON to `target/warmstart.json` for the perf
//! trajectory (CI uploads it as an artifact).
//!
//! Regenerate with: `cargo run --release -p odburg_bench --bin warmstart`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use odburg_bench::{f, row, rule_line};
use odburg_core::{persist, Labeler, OnDemandAutomaton};
use odburg_frontend::programs;

struct Method {
    name: String,
    nodes: usize,
    cold_ns: f64,
    warm_ns: f64,
    cold_misses: u64,
    warm_misses: u64,
}

fn main() {
    let grammar = odburg::targets::x86ish();
    let normal = Arc::new(grammar.normalize());

    // "Yesterday's process": warm an automaton on the whole suite and
    // export its tables through the persistence format.
    let mut trainer = OnDemandAutomaton::new(normal.clone());
    trainer
        .label_forest(&programs::combined_forest().expect("programs compile"))
        .expect("suite labels");
    let t = Instant::now();
    let mut table_bytes = Vec::new();
    persist::write_tables_to(&trainer.snapshot(), &mut table_bytes).expect("export succeeds");
    let export = t.elapsed();

    // "Today's restarted process": import the tables and warm-start.
    let t = Instant::now();
    let snapshot = persist::read_tables_from(&table_bytes[..], normal.clone(), trainer.config())
        .expect("import succeeds");
    let import = t.elapsed();
    let mut warm = OnDemandAutomaton::from_snapshot(&snapshot);
    let mut cold = OnDemandAutomaton::new(normal.clone());

    let widths = [13, 6, 9, 9, 8, 8];
    println!("Warm start: per-method labeling time, cold vs table-imported (x86ish)\n");
    println!(
        "tables: {} bytes, exported in {export:?}, imported in {import:?}\n",
        table_bytes.len()
    );
    row(
        &[
            "method",
            "nodes",
            "cold.ns/n",
            "warm.ns/n",
            "c.miss",
            "w.miss",
        ]
        .map(String::from),
        &widths,
    );
    rule_line(&widths);

    let mut methods: Vec<Method> = Vec::new();
    for program in programs::all() {
        let forest = program.compile().expect("programs compile");

        cold.reset_counters();
        let t = Instant::now();
        cold.label_forest(&forest).expect("labels");
        let cold_ns = t.elapsed().as_nanos() as f64 / forest.len() as f64;
        let cold_misses = cold.counters().memo_misses;

        warm.reset_counters();
        let t = Instant::now();
        warm.label_forest(&forest).expect("labels");
        let warm_ns = t.elapsed().as_nanos() as f64 / forest.len() as f64;
        let warm_misses = warm.counters().memo_misses;

        row(
            &[
                program.name.to_owned(),
                forest.len().to_string(),
                f(cold_ns, 1),
                f(warm_ns, 1),
                cold_misses.to_string(),
                warm_misses.to_string(),
            ],
            &widths,
        );
        methods.push(Method {
            name: program.name.to_owned(),
            nodes: forest.len(),
            cold_ns,
            warm_ns,
            cold_misses,
            warm_misses,
        });
    }

    let total_warm_misses: u64 = methods.iter().map(|m| m.warm_misses).sum();
    let weighted = |get: fn(&Method) -> f64| -> f64 {
        let nodes: usize = methods.iter().map(|m| m.nodes).sum();
        methods.iter().map(|m| get(m) * m.nodes as f64).sum::<f64>() / nodes as f64
    };
    let cold_avg = weighted(|m| m.cold_ns);
    let warm_avg = weighted(|m| m.warm_ns);
    println!();
    println!(
        "suite average: cold {} ns/node, warm {} ns/node ({}x); warm misses: {}",
        f(cold_avg, 1),
        f(warm_avg, 1),
        f(cold_avg / warm_avg, 2),
        total_warm_misses,
    );
    println!("shape check: the warm path never re-pays state construction — every");
    println!("method labels at converged hit rates from its first node, which is");
    println!("the restarted-service scenario the persistence subsystem exists for.");

    let mut json = String::from("{\n  \"bench\": \"warmstart\",\n  \"grammar\": \"x86ish\",\n");
    let _ = writeln!(json, "  \"table_bytes\": {},", table_bytes.len());
    let _ = writeln!(json, "  \"export_ns\": {},", export.as_nanos());
    let _ = writeln!(json, "  \"import_ns\": {},", import.as_nanos());
    let _ = writeln!(json, "  \"cold_ns_per_node\": {cold_avg:.2},");
    let _ = writeln!(json, "  \"warm_ns_per_node\": {warm_avg:.2},");
    let _ = writeln!(json, "  \"warm_misses\": {total_warm_misses},");
    json.push_str("  \"methods\": [\n");
    for (i, m) in methods.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"nodes\": {}, \"cold_ns_per_node\": {:.2}, \
             \"warm_ns_per_node\": {:.2}, \"cold_misses\": {}, \"warm_misses\": {}}}{}",
            m.name,
            m.nodes,
            m.cold_ns,
            m.warm_ns,
            m.cold_misses,
            m.warm_misses,
            if i + 1 == methods.len() { "" } else { "," },
        );
    }
    json.push_str("  ]\n}\n");
    let path = std::path::Path::new("target/warmstart.json");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncannot write {}: {e}", path.display()),
    }

    assert_eq!(
        total_warm_misses, 0,
        "warm start must label previously-seen methods without a single miss"
    );
}
