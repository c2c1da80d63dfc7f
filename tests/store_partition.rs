//! The evaluation cache is partitioned by scenario: a session writes
//! only under `evals/<its scenario digest>/` and reads only that
//! partition plus the legacy segments written before partitioning
//! (flat `evals/*.jsonl` files and key-prefix shards `evals/<k>/`).
//! Both layouts must keep every warm rerun at zero simulations, before
//! and after `Store::gc`, and a session whose records sit in the legacy
//! layout must still resume byte-identically. Several sessions and a
//! running `gc` may share one store.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

use cirfix::{
    problem_digest, repair_session, result_to_canonical_json, RepairConfig, RepairProblem,
    RepairStatus, SharedEvalCache,
};
use cirfix_store::{field_str, read_segment, Digest, SegmentWriter, Store};
use cirfix_telemetry::JsonValue;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cirfix-partition-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config() -> RepairConfig {
    RepairConfig {
        timeout: Duration::from_secs(3600),
        popn_size: 60,
        max_generations: 3,
        max_fitness_evals: 400,
        ..RepairConfig::fast(5)
    }
}

fn problem(id: &str) -> RepairProblem {
    cirfix_benchmarks::scenario(id)
        .expect("known scenario")
        .problem()
        .expect("scenario builds")
}

fn segments(dir: &Path) -> BTreeSet<PathBuf> {
    Store::open(dir)
        .expect("store opens")
        .eval_segments()
        .expect("evals listable")
        .into_iter()
        .collect()
}

/// Intact record count per evaluation directory (`None` = legacy).
fn record_counts(dir: &Path) -> BTreeMap<PathBuf, (Option<Digest>, usize)> {
    let store = Store::open(dir).expect("store opens");
    store
        .eval_dirs()
        .expect("evals listable")
        .into_iter()
        .map(|d| {
            let (entries, health) = d.load().expect("directory reads");
            assert!(health.is_clean(), "{} is damaged", d.path.display());
            (d.path, (d.scenario, entries.len()))
        })
        .collect()
}

/// Runs a same-seed warm rerun and asserts it simulated nothing.
fn assert_warm(problem: &RepairProblem, dir: &Path, what: &str) {
    let warm = repair_session(problem, &config(), 2, dir, false).expect("warm session runs");
    assert_eq!(warm.totals.fitness_evals, 0, "{what}: warm rerun simulated");
    assert_eq!(warm.totals.store_writes, 0, "{what}: warm rerun wrote");
    assert!(warm.totals.store_hits > 0, "{what}: warm rerun hit nothing");
}

#[test]
fn scenarios_sharing_a_store_write_and_read_their_own_partitions() {
    let dir = fresh_dir("two");
    let a = problem("flip_flop_cond");
    let b = problem("counter_reset");
    let (da, db) = (problem_digest(&a, &config()), problem_digest(&b, &config()));
    assert_ne!(da, db);

    let mut cold = Vec::new();
    for (p, digest) in [(&a, da), (&b, db)] {
        let before = segments(&dir);
        let result = repair_session(p, &config(), 2, &dir, false).expect("cold session runs");
        assert!(
            result.totals.store_writes > 0,
            "cold run persists evaluations"
        );
        let partition = dir.join("evals").join(digest.to_hex());
        let written: Vec<PathBuf> = segments(&dir).difference(&before).cloned().collect();
        assert!(!written.is_empty());
        for segment in &written {
            assert_eq!(
                segment.parent(),
                Some(partition.as_path()),
                "every segment a session writes lies in its scenario's partition"
            );
        }
        cold.push(result);
    }

    // Each scenario's cache holds exactly what its cold run wrote and
    // nothing of the other scenario's.
    let store = Store::open(&dir).expect("store opens");
    let partition_keys = |digest: Digest| -> Vec<Digest> {
        let d = store
            .eval_dirs()
            .expect("evals listable")
            .into_iter()
            .find(|d| d.scenario == Some(digest))
            .expect("the partition exists");
        d.load()
            .expect("partition reads")
            .0
            .into_iter()
            .map(|(k, _)| k)
            .collect()
    };
    for (digest, other, result) in [(da, db, &cold[0]), (db, da, &cold[1])] {
        let (cache, damaged) = SharedEvalCache::open(&store, digest).expect("cache opens");
        assert_eq!(damaged, 0);
        assert_eq!(cache.len() as u64, result.totals.store_writes);
        assert!(
            partition_keys(other)
                .into_iter()
                .all(|k| cache.peek(k).is_none()),
            "a session must not load another scenario's records"
        );
    }

    assert_warm(&a, &dir, "flip_flop_cond");
    assert_warm(&b, &dir, "counter_reset");

    // gc compacts each partition in place: no record moves, none is
    // lost, and the store stays warm.
    let before = record_counts(&dir);
    assert_eq!(before.values().filter(|(s, _)| s.is_some()).count(), 2);
    store.gc().expect("gc runs");
    assert_eq!(
        record_counts(&dir),
        before,
        "gc kept every partition's records"
    );
    assert_warm(&a, &dir, "flip_flop_cond after gc");
    assert_warm(&b, &dir, "counter_reset after gc");

    // Damage is reported by the sessions that read it, not by others.
    let torn = dir
        .join("evals")
        .join(db.to_hex())
        .join("evals-99999.jsonl");
    fs::write(
        &torn,
        "{\"sum\":\"deadbeefdeadbeef\",\"body\":{\"key\":\"trunc",
    )
    .expect("torn tail");
    assert_eq!(SharedEvalCache::open(&store, da).expect("cache opens").1, 0);
    assert_eq!(SharedEvalCache::open(&store, db).expect("cache opens").1, 1);

    let _ = fs::remove_dir_all(dir);
}

/// Rewrites every evaluation record of the store into the layouts older
/// stores have: the records whose key starts with the first record's
/// hex digit go to that key-prefix shard, the rest to one flat segment.
/// The scenario partitions are removed.
fn move_to_legacy_layout(dir: &Path) {
    let store = Store::open(dir).expect("store opens");
    let mut bodies = Vec::new();
    for path in store.eval_segments().expect("evals listable") {
        let (records, health) = read_segment(&path).expect("segment reads");
        assert!(health.is_clean());
        bodies.extend(records);
    }
    for d in store.eval_dirs().expect("evals listable") {
        if d.scenario.is_some() {
            fs::remove_dir_all(&d.path).expect("partition removed");
        }
    }
    let key = |body: &JsonValue| {
        field_str(body, "key")
            .expect("record has a key")
            .to_string()
    };
    let prefix = key(&bodies[0])[..1].to_string();
    let shard_dir = dir.join("evals").join(&prefix);
    fs::create_dir_all(&shard_dir).expect("shard created");
    let mut shard = SegmentWriter::append(&shard_dir.join("evals-00001.jsonl")).expect("shard");
    let mut flat =
        SegmentWriter::append(&dir.join("evals").join("evals-00001.jsonl")).expect("flat");
    let mut in_flat = 0;
    for body in &bodies {
        if key(body).starts_with(&prefix) {
            shard.write_record(body).expect("shard write");
        } else {
            flat.write_record(body).expect("flat write");
            in_flat += 1;
        }
    }
    assert!(in_flat > 0, "both legacy layouts hold records");
}

#[test]
fn legacy_layouts_stay_warm_resumable_and_in_place_through_gc() {
    let p = problem("flip_flop_cond");

    // Warm from legacy segments only.
    let dir = fresh_dir("legacy-warm");
    repair_session(&p, &config(), 2, &dir, false).expect("cold session runs");
    move_to_legacy_layout(&dir);
    assert_warm(&p, &dir, "legacy layout");
    assert!(
        record_counts(&dir).values().all(|(s, _)| s.is_none()),
        "a warm rerun writes nothing"
    );

    // gc compacts the legacy directories in place.
    let before = record_counts(&dir);
    Store::open(&dir)
        .expect("store opens")
        .gc()
        .expect("gc runs");
    assert_eq!(
        record_counts(&dir),
        before,
        "gc moved or lost legacy records"
    );
    assert_warm(&p, &dir, "legacy layout after gc");
    let _ = fs::remove_dir_all(dir);

    // Resume from a checkpoint whose evaluations sit in legacy segments.
    let full_dir = fresh_dir("legacy-full");
    let full = repair_session(&p, &config(), 2, &full_dir, false).expect("full session runs");
    let halt_dir = fresh_dir("legacy-halt");
    let halted_config = RepairConfig {
        halt_after: Some(0),
        ..config()
    };
    let halted = repair_session(&p, &halted_config, 2, &halt_dir, false).expect("halted run");
    assert_eq!(halted.status, RepairStatus::Interrupted);
    move_to_legacy_layout(&halt_dir);
    let resumed = repair_session(&p, &config(), 2, &halt_dir, true).expect("resumed run");
    assert_eq!(
        result_to_canonical_json(&full).to_json(),
        result_to_canonical_json(&resumed).to_json(),
        "a session resumed from legacy segments must match the uninterrupted run"
    );
    let _ = fs::remove_dir_all(full_dir);
    let _ = fs::remove_dir_all(halt_dir);
}

/// Stores written before fix-pattern mining and the repair daemon were
/// removed may hold a `patterns/patterns.jsonl` family, and a
/// `jobs/jobs.jsonl` job registry with the stale lease of a killed
/// daemon. The store no longer knows either: it opens, verifies clean,
/// collects garbage around the stray files without touching them, and
/// its sessions still resume.
#[test]
fn leftover_retired_families_are_left_alone() {
    let p = problem("flip_flop_cond");
    let full_dir = fresh_dir("retired-full");
    let full = repair_session(&p, &config(), 2, &full_dir, false).expect("full session runs");

    let dir = fresh_dir("retired-halt");
    let halted_config = RepairConfig {
        halt_after: Some(0),
        ..config()
    };
    let halted = repair_session(&p, &halted_config, 2, &dir, false).expect("halted run");
    assert_eq!(halted.status, RepairStatus::Interrupted);
    let retired_segment = |path: &Path, records: Vec<JsonValue>| {
        fs::create_dir_all(path.parent().unwrap()).expect("family dir");
        let mut w = SegmentWriter::append(path).expect("retired segment");
        for record in &records {
            w.write_record(record).expect("record written");
        }
        w.sync().expect("segment synced");
    };
    let patterns = dir.join("patterns").join("patterns.jsonl");
    retired_segment(
        &patterns,
        [3, 1]
            .map(|support| {
                JsonValue::obj(vec![
                    ("shape", JsonValue::Str(format!("{support:032x}"))),
                    ("support", JsonValue::Uint(support)),
                ])
            })
            .into(),
    );
    let jobs = dir.join("jobs").join("jobs.jsonl");
    retired_segment(
        &jobs,
        [("0123456789ab", "running"), ("ba9876543210", "queued")]
            .map(|(id, state)| {
                JsonValue::obj(vec![
                    ("id", JsonValue::Str(id.into())),
                    ("state", JsonValue::Str(state.into())),
                ])
            })
            .into(),
    );
    // A lease naming a PID that cannot exist, as a `kill -9` leaves it.
    let lease = dir.join("jobs").join("jobs.jsonl.lease");
    fs::write(&lease, "4294967294\n").expect("stale lease");
    let retired = [patterns, jobs, lease];
    let bytes: Vec<Vec<u8>> = retired.iter().map(|f| fs::read(f).expect("read")).collect();

    let store = Store::open(&dir).expect("store with retired families opens");
    let report = store.verify().expect("verify runs");
    assert!(report.is_clean(), "verify: {report:?}");
    store.gc().expect("gc runs");
    for (file, before) in retired.iter().zip(&bytes) {
        let after = fs::read(file).expect("retired file still there");
        assert_eq!(&after, before, "gc touched {}", file.display());
    }

    let resumed = repair_session(&p, &config(), 2, &dir, true).expect("resumed run");
    assert_eq!(
        result_to_canonical_json(&full).to_json(),
        result_to_canonical_json(&resumed).to_json(),
        "a store with retired families must resume to the uninterrupted result"
    );
    let _ = fs::remove_dir_all(full_dir);
    let _ = fs::remove_dir_all(dir);
}

/// Sessions of different scenarios run on one store at once while a
/// `gc` loops beside them, as `cirfix repair --store` runs and `cirfix
/// store gc` may. Leases keep every live segment and session log out of
/// gc's hands, so each result equals its solo run, nothing is damaged,
/// and every evaluation stays on disk.
#[test]
fn concurrent_sessions_and_gc_share_one_store() {
    let problems: Vec<RepairProblem> = ["flip_flop_cond", "counter_reset", "mux_width"]
        .into_iter()
        .map(problem)
        .collect();
    let solo: Vec<String> = problems
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let dir = fresh_dir(&format!("solo-{i}"));
            let result = repair_session(p, &config(), 2, &dir, false).expect("solo session runs");
            let _ = fs::remove_dir_all(dir);
            result_to_canonical_json(&result).to_json()
        })
        .collect();

    for round in 0..3 {
        let dir = fresh_dir(&format!("shared-{round}"));
        let done = AtomicBool::new(false);
        let (results, gc_passes) = thread::scope(|s| {
            let gc = s.spawn(|| {
                let store = Store::open(&dir).expect("store opens");
                let mut passes = 0;
                while !done.load(Ordering::SeqCst) {
                    store.gc().expect("gc runs");
                    passes += 1;
                }
                passes
            });
            let sessions: Vec<_> = problems
                .iter()
                .map(|p| s.spawn(|| repair_session(p, &config(), 2, &dir, false)))
                .collect();
            let results: Vec<String> = sessions
                .into_iter()
                .map(|h| h.join().expect("session thread").expect("session runs"))
                .map(|r| result_to_canonical_json(&r).to_json())
                .collect();
            done.store(true, Ordering::SeqCst);
            (results, gc.join().expect("gc thread"))
        });
        assert!(gc_passes > 0, "round {round}: gc never ran");
        assert_eq!(results, solo, "round {round}: a shared-store result moved");
        let report = Store::open(&dir)
            .expect("store opens")
            .verify()
            .expect("verify");
        assert!(report.is_clean(), "round {round}: {report:?}");
        for p in &problems {
            assert_warm(p, &dir, &format!("round {round}"));
        }
        let _ = fs::remove_dir_all(dir);
    }
}
