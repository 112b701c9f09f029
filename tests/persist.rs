//! Property tests of the table-persistence format: round-trips must
//! reproduce labelings bit-identically (including projection mode and a
//! non-empty dynamic-cost signature interner), and damaged files must be
//! rejected — never mislabeled, never a panic.

use std::sync::Arc;

use odburg::prelude::*;
use odburg::select::persist;
use proptest::prelude::*;

/// Warms an automaton for x86ish (which has dynamic-cost rules, so the
/// signature interner is exercised) on a seed-dependent random workload,
/// in direct or projection mode.
fn warmed(seed: u64) -> (OnDemandAutomaton, Forest) {
    let grammar = odburg::targets::x86ish();
    let normal = Arc::new(grammar.normalize());
    let config = OnDemandConfig {
        project_children: seed % 2 == 1,
        ..OnDemandConfig::default()
    };
    let mut auto = OnDemandAutomaton::with_config(Arc::clone(&normal), config);
    let workload = odburg::workloads::random_workload(&normal, seed, 40);
    auto.label_forest(&workload.forest)
        .expect("workload labels");
    (auto, workload.forest)
}

fn exported(auto: &OnDemandAutomaton) -> Vec<u8> {
    let mut bytes = Vec::new();
    persist::write_tables_to(&auto.snapshot(), &mut bytes).expect("export succeeds");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn round_trip_reproduces_labelings_bit_identically(seed in 0u64..512) {
        let (mut auto, forest) = warmed(seed);
        let bytes = exported(&auto);

        let imported = persist::read_tables_from(
            &bytes[..],
            Arc::clone(auto.grammar()),
            auto.config(),
        )
        .expect("import succeeds");
        prop_assert_eq!(imported.stats(), auto.snapshot().stats());
        // Random payloads hit the dynamic-cost rules, so the interner
        // carries real signatures through the round-trip.
        prop_assert!(imported.stats().signatures > 1);

        let mut warm = OnDemandAutomaton::from_snapshot(&imported);
        let warm_labeling = warm.label_forest(&forest).expect("warm labels");
        prop_assert_eq!(
            warm.counters().memo_misses, 0,
            "everything the exporter saw must hit after import"
        );
        let original = auto.label_forest(&forest).expect("original labels");
        prop_assert_eq!(warm_labeling, original);
    }

    #[test]
    fn truncated_files_are_rejected(seed in 0u64..256) {
        let (auto, _) = warmed(seed % 4);
        let bytes = exported(&auto);
        let cut = (seed as usize * 131) % bytes.len();
        let err = persist::read_tables_from(
            &bytes[..cut],
            Arc::clone(auto.grammar()),
            auto.config(),
        )
        .expect_err("truncated file must be rejected");
        prop_assert!(matches!(
            err,
            persist::PersistError::Truncated | persist::PersistError::BadMagic
        ));
    }

    #[test]
    fn corrupted_files_are_rejected(seed in 0u64..256) {
        let (auto, _) = warmed(seed % 4);
        let mut bytes = exported(&auto);
        let pos = (seed as usize * 257) % bytes.len();
        bytes[pos] ^= 1 << (seed % 8);
        if persist::read_tables_from(&bytes[..], Arc::clone(auto.grammar()), auto.config()).is_ok() {
            // The only flip that can survive every integrity check is one
            // that flipped nothing.
            prop_assert_eq!(bytes, exported(&auto));
        }
    }
}

#[test]
fn cross_config_and_cross_grammar_imports_are_rejected() {
    let (direct, _) = warmed(0);
    let bytes = exported(&direct);

    let projected = OnDemandConfig {
        project_children: true,
        ..direct.config()
    };
    assert!(matches!(
        persist::read_tables_from(&bytes[..], Arc::clone(direct.grammar()), projected),
        Err(persist::PersistError::ConfigMismatch { .. })
    ));

    let other = Arc::new(odburg::targets::riscish().normalize());
    assert!(matches!(
        persist::read_tables_from(&bytes[..], other, direct.config()),
        Err(persist::PersistError::GrammarMismatch { .. })
    ));
}

/// The shipping path and the file path must produce and consume the
/// same bytes: a snapshot streamed through `write_tables_to`, framed
/// over a real socket, and read back with `read_tables_from` is
/// bit-identical to a file export of the same snapshot — table
/// shipping is a transport, not a re-encoding.
#[test]
fn socket_shipped_bytes_match_a_file_export_bit_identically() {
    use std::io::{Read, Write};

    let (auto, forest) = warmed(3);
    let snapshot = Arc::new(auto.snapshot());

    // File path.
    let dir = std::env::temp_dir().join(format!("odburg-ship-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("shipped.odbt");
    persist::save_tables(&snapshot, &path).expect("save");
    let file_bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_dir_all(&dir).ok();

    // Shipping path: stream the same snapshot over a socketpair with
    // length-prefixed framing, exactly as the cluster transport does.
    let (mut tx, mut rx) = std::os::unix::net::UnixStream::pair().expect("socketpair");
    let mut wire = Vec::new();
    persist::write_tables_to(&snapshot, &mut wire).expect("stream export");
    let sender = std::thread::spawn(move || {
        tx.write_all(&(wire.len() as u64).to_le_bytes()).unwrap();
        tx.write_all(&wire).unwrap();
    });
    let mut len = [0u8; 8];
    rx.read_exact(&mut len).expect("length prefix");
    let mut shipped = vec![0u8; u64::from_le_bytes(len) as usize];
    rx.read_exact(&mut shipped).expect("payload");
    sender.join().expect("sender thread");

    assert_eq!(shipped, file_bytes, "shipped bytes differ from file export");

    // And the shipped bytes import to an equivalent snapshot.
    let imported =
        persist::read_tables_from(&shipped[..], Arc::clone(auto.grammar()), auto.config())
            .expect("import shipped bytes");
    assert_eq!(imported.stats(), snapshot.stats());
    let mut from_wire = OnDemandAutomaton::from_snapshot(&imported);
    let relabeled = from_wire.label_forest(&forest).expect("warm relabel");
    let mut from_file = OnDemandAutomaton::from_snapshot(&snapshot);
    let original = from_file.label_forest(&forest).expect("original relabel");
    for (id, _) in forest.iter() {
        assert_eq!(relabeled.state_of(id), original.state_of(id));
    }
}

/// FNV-1a over a byte string: a stable fingerprint for pinning exported
/// table bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A forest x86ish cannot cover: labeling it memoizes a transition to
/// the dead state.
fn uncoverable() -> Forest {
    let mut forest = Forest::new();
    let root = parse_sexpr(&mut forest, "(ModF4 (ConstF4 #1.0) (ConstF4 #2.0))").unwrap();
    forest.add_root(root);
    forest
}

/// x86ish in direct mode, warmed on the x86ish jobs of a fixed
/// `builtin_traffic` slice plus one uncoverable forest.
fn golden_traffic_automaton() -> OnDemandAutomaton {
    let normal = Arc::new(odburg::targets::x86ish().normalize());
    let mut auto = OnDemandAutomaton::new(Arc::clone(&normal));
    for job in odburg::workloads::builtin_traffic(7, 60) {
        if job.target == "x86ish" {
            auto.label_forest(&job.forest).expect("traffic labels");
        }
    }
    assert!(matches!(
        auto.label_forest(&uncoverable()),
        Err(LabelError::NoCover { .. })
    ));
    auto
}

/// x86ish in projection mode, warmed on a fixed random workload whose
/// payloads exercise the dynamic-cost rules.
fn golden_projected_automaton() -> OnDemandAutomaton {
    let normal = Arc::new(odburg::targets::x86ish().normalize());
    let mut auto = OnDemandAutomaton::with_config(
        Arc::clone(&normal),
        OnDemandConfig {
            project_children: true,
            ..OnDemandConfig::default()
        },
    );
    let workload = odburg::workloads::random_workload(&normal, 11, 40);
    auto.label_forest(&workload.forest)
        .expect("workload labels");
    auto
}

/// The table format is pinned byte for byte: exporting the same warmed
/// automata must produce exactly these bytes (length and FNV-1a hash),
/// whatever representation the snapshot keeps its tables in.
#[test]
fn exported_bytes_match_the_pinned_golden_hashes() {
    let traffic = golden_traffic_automaton();
    let projected = golden_projected_automaton();
    assert!(
        projected.stats().signatures > 1,
        "the projected golden must carry dynamic-cost signatures"
    );
    assert!(projected.snapshot().stats().cached_projections > 0);
    // Pinned from the exports of the release that still kept hash-map
    // copies in every snapshot.
    for (name, auto, len, hash) in [
        ("traffic", &traffic, 60370, 0xcf221b2a259cd5eb),
        ("projected", &projected, 63851, 0x473d8cfa547a4ccf),
    ] {
        let bytes = exported(auto);
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (len, hash),
            "{name}: exported bytes moved"
        );
    }
}

/// `from_snapshot` rebuilds the master's hash tables and signature
/// interner from the snapshot's dense index. The rebuilt master must
/// match the original on stats, accounted bytes and re-exported bytes
/// (so every state, projection and signature id survived), and label
/// the training forests — and a forest it memoized as uncoverable — with
/// zero misses, in both projection modes and in the epoch after a
/// compaction.
#[test]
fn masters_rebuilt_from_a_snapshot_match_the_original() {
    let normal = Arc::new(odburg::targets::x86ish().normalize());
    for (project_children, compact) in [(false, false), (true, false), (false, true)] {
        let mut auto = OnDemandAutomaton::with_config(
            Arc::clone(&normal),
            OnDemandConfig {
                project_children,
                ..OnDemandConfig::default()
            },
        );
        let mut forests: Vec<Forest> = (0..3)
            .map(|i| odburg::workloads::random_workload(&normal, 30 + i, 20).forest)
            .collect();
        for forest in &forests {
            auto.label_forest(forest).expect("training labels");
        }
        if compact {
            let stats = auto.compact(auto.accounted_bytes().total() / 2, &[]);
            assert!(stats.evicted_states > 0, "{stats:?}");
            // Train the new epoch on one forest; the others keep only
            // what survived the compaction.
            forests.truncate(1);
            auto.label_forest(&forests[0])
                .expect("post-compaction labels");
            assert_eq!(auto.epoch(), 1);
        }
        // A memoized dead transition rides along.
        assert!(auto.label_forest(&uncoverable()).is_err());
        let tag = format!("project_children={project_children} compact={compact}");
        assert!(
            auto.stats().signatures > 1,
            "{tag}: no dynamic-cost signatures"
        );

        let snap = auto.snapshot();
        let mut rebuilt = OnDemandAutomaton::from_snapshot(&snap);
        assert_eq!(
            rebuilt.stats(),
            odburg::select::OnDemandStats {
                flushes: 0,
                compactions: 0,
                ..auto.stats()
            },
            "{tag}"
        );
        assert_eq!(rebuilt.accounted_bytes(), auto.accounted_bytes(), "{tag}");
        assert_eq!(rebuilt.epoch(), auto.epoch(), "{tag}");
        assert_eq!(
            exported(&rebuilt),
            exported(&auto),
            "{tag}: re-export differs"
        );
        for forest in &forests {
            let labeling = rebuilt.label_forest(forest).expect("rebuilt labels");
            assert_eq!(
                labeling,
                auto.label_forest(forest).expect("original labels")
            );
        }
        assert!(matches!(
            rebuilt.label_forest(&uncoverable()),
            Err(LabelError::NoCover { .. })
        ));
        assert_eq!(
            rebuilt.counters().memo_misses,
            0,
            "{tag}: rebuilt master missed"
        );
    }
}
