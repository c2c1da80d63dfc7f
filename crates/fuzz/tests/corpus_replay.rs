//! Gating regression-corpus replay.
//!
//! `crates/fuzz/corpus/crashes.jsonl` is a committed, checksummed
//! store segment holding every finding the fuzzer (or hand analysis)
//! has surfaced, shrunk to a minimal reproducer, after the underlying
//! defect was fixed. Replaying it through the harness must be clean:
//! any recurrence is a regression and fails this test (and the matching
//! CI step).
//!
//! To add a record, append it to `canonical_records` and run
//! `cargo test -p cirfix-fuzz --test corpus_replay -- --ignored` to
//! regenerate the committed segment.

use cirfix_fuzz::{replay, CrashRecord};
use cirfix_store::{read_segment, SegmentWriter};
use std::path::PathBuf;

fn corpus_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus/crashes.jsonl")
}

/// The source-of-truth regression list. Each entry names a historical
/// frontend defect; the reproducer is the shrunk input that used to
/// trigger it.
fn canonical_records() -> Vec<CrashRecord> {
    vec![
        CrashRecord::new(
            "panic",
            0,
            "$ ;",
            "tb",
            "lexer: bare `$` hit an unconditional expect()",
        ),
        CrashRecord::new("panic", 0, "$", "tb", "lexer: trailing `$` at end of input"),
        CrashRecord::new(
            "panic",
            0,
            &format!(
                "module tb; initial x = {}0{}; endmodule",
                "(".repeat(2000),
                ")".repeat(2000)
            ),
            "tb",
            "parser: unbounded expression recursion overflowed the stack",
        ),
        CrashRecord::new(
            "panic",
            0,
            &format!("module tb; initial {} end module", "begin ".repeat(2000)),
            "tb",
            "parser: unbounded statement recursion overflowed the stack",
        ),
        CrashRecord::new(
            "panic",
            0,
            &format!("module tb; initial x = {}1; endmodule", "!".repeat(4000)),
            "tb",
            "parser: unbounded unary recursion overflowed the stack",
        ),
        CrashRecord::new(
            "panic",
            0,
            "module tb; initial x = \u{1}; endmodule",
            "tb",
            "lexer: unknown control byte hit unreachable!()",
        ),
    ]
}

#[test]
fn committed_corpus_replays_clean() {
    let (bodies, health) = read_segment(&corpus_path()).expect("committed corpus reads");
    assert!(health.is_clean(), "committed corpus is undamaged");
    let records: Vec<CrashRecord> = bodies.iter().filter_map(CrashRecord::from_json).collect();
    assert_eq!(records.len(), bodies.len(), "every record decodes");
    assert!(!records.is_empty(), "corpus is non-empty");

    // The committed segment may carry more than the canonical list
    // (fuzz runs append), but never less.
    let ids: Vec<&str> = records.iter().map(|r| r.id.as_str()).collect();
    for canonical in canonical_records() {
        assert!(
            ids.contains(&canonical.id.as_str()),
            "canonical record missing from committed corpus: {}",
            canonical.detail
        );
    }

    let report = replay(&records, 0);
    assert_eq!(report.replayed, records.len());
    assert!(
        report.is_clean(),
        "corpus records reproduced findings: {:?}",
        report.regressions
    );
}

/// Regeneration hook, not a test: rewrites the committed segment from
/// `canonical_records`. Run with `-- --ignored` after adding a record.
#[test]
#[ignore = "regenerates the committed corpus; run explicitly"]
fn regenerate_committed_corpus() {
    let path = corpus_path();
    std::fs::create_dir_all(path.parent().expect("corpus dir")).expect("mkdir");
    let _ = std::fs::remove_file(&path);
    let mut w = SegmentWriter::append(&path).expect("open corpus segment");
    for record in canonical_records() {
        w.write_record(&record.to_json()).expect("write record");
    }
    w.sync().expect("sync");
}
