//! The on-disk store: directory layout, typed access to the record
//! families (evaluations, sessions, corpus, crashes), verification, and
//! garbage collection.
//!
//! Layout under the store directory:
//!
//! ```text
//! <dir>/evals/<scenario>/evals-<n>.jsonl
//!                                 append-only evaluation cache segments,
//!                                 partitioned by the 32-hex scenario
//!                                 digest every record key is salted with
//! <dir>/evals/evals-<n>.jsonl     legacy flat segments
//! <dir>/evals/<k>/evals-<n>.jsonl legacy key-prefix shards (`k` = the
//!                                 key's first hex digit)
//! <dir>/sessions/<id>.jsonl       one resumable session log per session id
//! <dir>/corpus/corpus.jsonl       plausible repairs, one record each
//! <dir>/crashes/crashes.jsonl     shrunk fuzz findings, one record each
//! ```
//!
//! Every file is a checksummed segment (see [`crate::segment`]). Each
//! evaluation writer appends to *one fresh segment of its own* in its
//! scenario's partition, so concurrent runs never interleave lines, and
//! a session reads only its own partition: no record of another
//! scenario could ever hit. Legacy segments, written before the
//! partitioning, are read by every session and written by none.
//! [`Store::gc`] compacts each evaluation directory in place, dropping
//! corrupt records and duplicate keys. Directories of retired families
//! that older stores may hold (`patterns/`, `jobs/`) are neither read,
//! verified nor collected.
//!
//! # Concurrent GC
//!
//! `gc` is safe to run while other processes (or the calling process
//! itself) hold open segments: every live writer advertises itself with
//! a `.lease` sidecar file naming its PID, and `gc` skips leased
//! segments whose owner is still alive. A segment's lease is taken
//! before the segment itself is created, so `gc` never sees a segment
//! unleased while its writer appends to it. Stale leases — left behind by a
//! `kill -9` — are detected (the PID is gone) and cleaned up, so a
//! crashed writer never blocks compaction forever. This is what lets
//! `cirfix store gc` run beside live `cirfix repair --store` sessions.

use std::collections::HashSet;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use cirfix_telemetry::JsonValue;

use crate::field_str;
use crate::hash::Digest;
use crate::segment::{read_segment, recover_segment, SegmentHealth, SegmentWriter};

/// Aggregate damage counts from reading a family of segments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreHealth {
    /// Records that decoded cleanly.
    pub records: usize,
    /// Records skipped for frame/checksum/shape damage.
    pub corrupt: usize,
    /// Segments ending in an incomplete (torn) record.
    pub torn: usize,
}

impl StoreHealth {
    fn absorb(&mut self, h: &SegmentHealth) {
        self.records += h.records;
        self.corrupt += h.corrupt.len();
        self.torn += usize::from(h.torn_tail.is_some());
    }

    /// `true` when nothing was damaged.
    pub fn is_clean(&self) -> bool {
        self.corrupt == 0 && self.torn == 0
    }
}

impl std::ops::AddAssign for StoreHealth {
    fn add_assign(&mut self, other: StoreHealth) {
        self.records += other.records;
        self.corrupt += other.corrupt;
        self.torn += other.torn;
    }
}

/// Per-file detail from [`Store::verify`].
#[derive(Debug, Clone)]
pub struct FileReport {
    /// Path relative to the store directory.
    pub name: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Clean records.
    pub records: usize,
    /// Corrupt lines: 1-based line number and reason.
    pub corrupt: Vec<(usize, String)>,
    /// Whether the file ends in a torn record.
    pub torn: bool,
}

/// The result of a full store verification pass.
#[derive(Debug, Clone, Default)]
pub struct StoreReport {
    /// One entry per segment file, in path order.
    pub files: Vec<FileReport>,
}

impl StoreReport {
    /// `true` when every file verified cleanly.
    pub fn is_clean(&self) -> bool {
        self.files.iter().all(|f| f.corrupt.is_empty() && !f.torn)
    }

    /// Total clean records across all files.
    pub fn records(&self) -> usize {
        self.files.iter().map(|f| f.records).sum()
    }

    /// Total corrupt records across all files.
    pub fn corrupt(&self) -> usize {
        self.files.iter().map(|f| f.corrupt.len()).sum()
    }

    /// Number of files with a torn tail.
    pub fn torn(&self) -> usize {
        self.files.iter().filter(|f| f.torn).count()
    }
}

/// What [`Store::gc`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Segment files removed (compacted away or fully dead).
    pub files_removed: usize,
    /// Records dropped: corrupt, torn, or duplicate-keyed.
    pub records_dropped: usize,
    /// Records surviving compaction.
    pub records_kept: usize,
    /// Bytes reclaimed on disk.
    pub bytes_reclaimed: u64,
    /// Segments left untouched because a live writer holds them.
    pub files_skipped_active: usize,
}

/// A persistent store rooted at one directory.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Opens (creating if necessary) a store at `dir`.
    pub fn open(dir: &Path) -> io::Result<Store> {
        for sub in ["evals", "sessions", "corpus", "crashes"] {
            fs::create_dir_all(dir.join(sub))?;
        }
        Ok(Store {
            dir: dir.to_path_buf(),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Every evaluation directory, in the order readers deduplicate in
    /// (first write wins): the legacy directories first — the flat
    /// `evals/` root, then the key-prefix shards — then the scenario
    /// partitions, each group in name order.
    pub fn eval_dirs(&self) -> io::Result<Vec<EvalDir>> {
        let root = self.dir.join("evals");
        let mut dirs = Vec::new();
        for entry in fs::read_dir(&root)?.filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                let scenario = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .and_then(Digest::from_hex);
                dirs.push(EvalDir { path, scenario });
            }
        }
        dirs.sort_by(|a, b| (a.scenario.is_some(), &a.path).cmp(&(b.scenario.is_some(), &b.path)));
        dirs.insert(
            0,
            EvalDir {
                path: root,
                scenario: None,
            },
        );
        Ok(dirs)
    }

    /// Every evaluation segment in the store, in [`Store::eval_dirs`]
    /// order.
    pub fn eval_segments(&self) -> io::Result<Vec<PathBuf>> {
        let mut paths = Vec::new();
        for dir in self.eval_dirs()? {
            paths.extend(dir.segments()?);
        }
        Ok(paths)
    }

    /// Every segment file in the store, in stable family-then-path
    /// order.
    pub fn all_segments(&self) -> io::Result<Vec<PathBuf>> {
        let mut all = self.eval_segments()?;
        for sub in ["sessions", "corpus", "crashes"] {
            all.extend(segments_of(&self.dir.join(sub))?);
        }
        Ok(all)
    }

    // ----- evaluations ---------------------------------------------------

    /// Loads the evaluation records a session of `scenario` can hit:
    /// its own partition plus every legacy segment, in
    /// [`Store::eval_dirs`] order. No other partition is read, and the
    /// returned health counts damage in the segments read only.
    pub fn load_evals(
        &self,
        scenario: Digest,
    ) -> io::Result<(Vec<(Digest, JsonValue)>, StoreHealth)> {
        let mut entries = Vec::new();
        let mut health = StoreHealth::default();
        for dir in self.eval_dirs()? {
            if dir.scenario.is_none_or(|s| s == scenario) {
                let (dir_entries, dir_health) = dir.load()?;
                entries.extend(dir_entries);
                health += dir_health;
            }
        }
        Ok((entries, health))
    }

    /// A writer that appends scenario `scenario`'s evaluation records
    /// to one fresh segment of its own in the scenario's partition,
    /// created lazily on first write and leased (see the module docs)
    /// until the writer is dropped.
    pub fn eval_writer(&self, scenario: Digest) -> EvalWriter {
        EvalWriter {
            dir: self.dir.join("evals").join(scenario.to_hex()),
            segment: None,
            named_durably: false,
        }
    }

    // ----- sessions ------------------------------------------------------

    /// The log file of session `id`.
    pub fn session_path(&self, id: &str) -> PathBuf {
        self.dir.join("sessions").join(format!("{id}.jsonl"))
    }

    /// The id of every session log in the store, sorted.
    pub fn sessions(&self) -> io::Result<Vec<String>> {
        let mut ids: Vec<String> = segments_of(&self.dir.join("sessions"))?
            .iter()
            .filter_map(|p| Some(p.file_stem()?.to_str()?.to_string()))
            .collect();
        ids.sort();
        Ok(ids)
    }

    /// Reads a session log (empty when none exists yet), skipping
    /// damaged records.
    pub fn load_session(&self, id: &str) -> io::Result<(Vec<JsonValue>, SegmentHealth)> {
        let path = self.session_path(id);
        if !path.exists() {
            return Ok((Vec::new(), SegmentHealth::default()));
        }
        read_segment(&path)
    }

    /// Opens a session log for appending, first truncating any torn
    /// trailing record so new records always start on a clean line.
    pub fn session_writer(&self, id: &str) -> io::Result<SegmentWriter> {
        let path = self.session_path(id);
        recover_segment(&path)?;
        SegmentWriter::append(&path)
    }

    /// Marks session `id` as actively written by this process, so a
    /// concurrent [`Store::gc`] neither reaps nor truncates its log mid-
    /// append. The lease is released when the guard drops (and treated
    /// as stale once the owning process dies).
    pub fn session_lease(&self, id: &str) -> io::Result<Lease> {
        Lease::take(&self.session_path(id))
    }

    // ----- corpus --------------------------------------------------------

    fn corpus_path(&self) -> PathBuf {
        self.dir.join("corpus").join("corpus.jsonl")
    }

    /// Appends one repair record to the corpus.
    pub fn append_corpus(&self, body: &JsonValue) -> io::Result<()> {
        recover_segment(&self.corpus_path())?;
        SegmentWriter::append(&self.corpus_path())?.write_record(body)
    }

    /// Reads the repair corpus, skipping damaged records.
    pub fn load_corpus(&self) -> io::Result<(Vec<JsonValue>, SegmentHealth)> {
        let path = self.corpus_path();
        if !path.exists() {
            return Ok((Vec::new(), SegmentHealth::default()));
        }
        read_segment(&path)
    }

    // ----- crashes -------------------------------------------------------

    /// The fuzz regression corpus (`cirfix fuzz` findings, shrunk).
    pub fn crashes_path(&self) -> PathBuf {
        self.dir.join("crashes").join("crashes.jsonl")
    }

    /// Appends one shrunk fuzz finding to the crash corpus.
    pub fn append_crash(&self, body: &JsonValue) -> io::Result<()> {
        recover_segment(&self.crashes_path())?;
        SegmentWriter::append(&self.crashes_path())?.write_record(body)
    }

    /// Reads the crash corpus, skipping damaged records.
    pub fn load_crashes(&self) -> io::Result<(Vec<JsonValue>, SegmentHealth)> {
        let path = self.crashes_path();
        if !path.exists() {
            return Ok((Vec::new(), SegmentHealth::default()));
        }
        read_segment(&path)
    }

    // ----- maintenance ---------------------------------------------------

    /// Read-only verification of every segment file: reports clean,
    /// corrupt, and torn records without modifying anything.
    pub fn verify(&self) -> io::Result<StoreReport> {
        let mut report = StoreReport::default();
        for path in self.all_segments()? {
            let (_, health) = read_segment(&path)?;
            let name = path
                .strip_prefix(&self.dir)
                .unwrap_or(&path)
                .display()
                .to_string();
            report.files.push(FileReport {
                name,
                bytes: fs::metadata(&path)?.len(),
                records: health.records,
                corrupt: health.corrupt,
                torn: health.torn_tail.is_some(),
            });
        }
        Ok(report)
    }

    /// Garbage collection: compacts each evaluation directory in place
    /// (dropping corrupt records, torn tails, and duplicate keys — first
    /// write wins across the whole store, in [`Store::eval_dirs`] order,
    /// matching the in-memory cache — and rewriting every kept record
    /// into the directory it was read from, so no record ever moves
    /// between partitions), removes session logs whose final record
    /// marks the session complete, truncates torn tails elsewhere, and
    /// rewrites the corpus without damage.
    ///
    /// Safe under concurrent writers: segments (and session logs) held
    /// by a live process — advertised by a `.lease` sidecar naming a
    /// PID that is still running — are left
    /// entirely untouched and counted in
    /// [`GcReport::files_skipped_active`]. Leases whose owner died are
    /// removed and their segments compacted normally.
    pub fn gc(&self) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        let before: u64 = self
            .all_segments()?
            .iter()
            .filter_map(|p| fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();

        // Compact the evaluation directories one at a time, leaving
        // segments leased by a running process alone. A directory's
        // fresh segment is written to a tmp file and renamed into place
        // *before* its old segments are deleted, so a crash at any point
        // leaves at worst duplicate records (which dedup on load), never
        // lost ones.
        let mut seen = HashSet::new();
        for dir in self.eval_dirs()? {
            let mut old_segments = Vec::new();
            for path in dir.segments()? {
                if lease_is_live(&path) {
                    report.files_skipped_active += 1;
                } else {
                    remove_stale_lease(&path);
                    old_segments.push(path);
                }
            }
            if old_segments.is_empty() {
                continue;
            }
            let mut kept = Vec::new();
            for path in &old_segments {
                let (bodies, h) = read_segment(path)?;
                report.records_dropped += h.corrupt.len() + usize::from(h.torn_tail.is_some());
                for body in bodies {
                    match field_str(&body, "key").and_then(Digest::from_hex) {
                        Some(key) if seen.insert(key) => kept.push(body),
                        _ => report.records_dropped += 1,
                    }
                }
            }
            if !kept.is_empty() {
                let tmp = dir.path.join("compact.tmp");
                let _ = fs::remove_file(&tmp);
                {
                    let mut w = SegmentWriter::append(&tmp)?;
                    for body in &kept {
                        w.write_record(body)?;
                    }
                    w.sync()?;
                }
                let (segment, _lease) = claim_segment(&dir.path)?;
                fs::rename(&tmp, segment)?;
                // The rename must be durable before the old segments'
                // removal, or a crash could keep only the removal.
                sync_dir(&dir.path)?;
            }
            for path in &old_segments {
                fs::remove_file(path)?;
                report.files_removed += 1;
            }
            report.records_kept += kept.len();
        }

        // Sessions: drop completed logs, truncate torn tails elsewhere.
        // A leased log belongs to a running session — hands off even on
        // its torn tail, which may be an append in flight.
        for path in segments_of(&self.dir.join("sessions"))? {
            if lease_is_live(&path) {
                report.files_skipped_active += 1;
                continue;
            }
            remove_stale_lease(&path);
            let (bodies, health) = read_segment(&path)?;
            let complete = bodies
                .last()
                .is_some_and(|b| field_str(b, "type") == Some("complete"));
            if complete {
                report.records_dropped += bodies.len() + health.corrupt.len();
                fs::remove_file(&path)?;
                report.files_removed += 1;
            } else {
                recover_segment(&path)?;
                report.records_kept += health.records;
                report.records_dropped += usize::from(health.torn_tail.is_some());
            }
        }

        // Corpus and crash corpus: rewrite without corrupt records when
        // damaged.
        for (sub, path) in [
            ("corpus", self.corpus_path()),
            ("crashes", self.crashes_path()),
        ] {
            if !path.exists() {
                continue;
            }
            let (bodies, health) = read_segment(&path)?;
            if health.is_clean() {
                report.records_kept += health.records;
            } else {
                let tmp = self.dir.join(sub).join("compact.tmp");
                let _ = fs::remove_file(&tmp);
                {
                    let mut w = SegmentWriter::append(&tmp)?;
                    for body in &bodies {
                        w.write_record(body)?;
                    }
                    w.sync()?;
                }
                fs::rename(&tmp, &path)?;
                report.records_kept += bodies.len();
                report.records_dropped +=
                    health.corrupt.len() + usize::from(health.torn_tail.is_some());
            }
        }

        let after: u64 = self
            .all_segments()?
            .iter()
            .filter_map(|p| fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();
        report.bytes_reclaimed = before.saturating_sub(after);
        Ok(report)
    }
}

/// The segment files directly in `dir`, in path order.
fn segments_of(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Creates the next free `evals-<n>.jsonl` in `dir` (and `dir` itself
/// if need be) as an empty file leased to this process, and returns its
/// path with the lease. `create_new` makes both claims exclusive, so
/// racing writers and a concurrent `gc` never pick the same segment.
/// The lease exists before the segment does: a segment visible unleased
/// even for a moment could be compacted away by a concurrent `gc` while
/// its writer appends to it.
fn claim_segment(dir: &Path) -> io::Result<(PathBuf, Lease)> {
    fs::create_dir_all(dir)?;
    let mut index = segments_of(dir)?
        .iter()
        .filter_map(|p| {
            p.file_stem()?
                .to_str()?
                .strip_prefix("evals-")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .map_or(1, |n| n + 1);
    loop {
        let path = dir.join(format!("evals-{index:05}.jsonl"));
        index += 1;
        // Another claimant holds this index; a dropped lease removes
        // itself when its segment turns out to be taken.
        let Some(lease) = Lease::claim(&path)? else {
            continue;
        };
        match fs::OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)
        {
            Ok(_) => return Ok((path, lease)),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(e),
        }
    }
}

/// Makes the entries of `dir` — files created, renamed or removed in it
/// — durable. Only Unix can sync a directory; elsewhere this does
/// nothing.
fn sync_dir(dir: &Path) -> io::Result<()> {
    if cfg!(unix) {
        fs::File::open(dir)?.sync_all()
    } else {
        Ok(())
    }
}

/// One directory of evaluation segments under `evals/`.
#[derive(Debug, Clone)]
pub struct EvalDir {
    /// The directory.
    pub path: PathBuf,
    /// The scenario whose partition this is; `None` for a legacy
    /// directory (the flat `evals/` root or a key-prefix shard), which
    /// every session reads.
    pub scenario: Option<Digest>,
}

impl EvalDir {
    /// The directory's segment files, in path order.
    pub fn segments(&self) -> io::Result<Vec<PathBuf>> {
        segments_of(&self.path)
    }

    /// Reads every evaluation record in the directory. Records are keyed
    /// by their `"key"` digest; damaged records and records without a
    /// valid key are counted in the returned health, never returned as
    /// data.
    pub fn load(&self) -> io::Result<(Vec<(Digest, JsonValue)>, StoreHealth)> {
        let mut entries = Vec::new();
        let mut health = StoreHealth::default();
        for path in self.segments()? {
            let (bodies, seg) = read_segment(&path)?;
            health.absorb(&seg);
            for body in bodies {
                match field_str(&body, "key").and_then(Digest::from_hex) {
                    Some(key) => entries.push((key, body)),
                    None => {
                        health.records -= 1;
                        health.corrupt += 1;
                    }
                }
            }
        }
        Ok((entries, health))
    }
}

// ----- leases -------------------------------------------------------------

/// The `.lease` sidecar path for a segment file.
fn lease_path(segment: &Path) -> PathBuf {
    let mut name = segment.as_os_str().to_os_string();
    name.push(".lease");
    PathBuf::from(name)
}

/// Whether `pid` names a currently running process. On Linux this is a
/// `/proc` lookup; elsewhere we conservatively report `true` (leases
/// then only expire when released, never by owner death).
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        true
    }
}

/// Whether `segment` is held by a live writer. A lease naming a dead
/// PID (or unreadable) is stale, not live.
fn lease_is_live(segment: &Path) -> bool {
    let lease = lease_path(segment);
    match fs::read_to_string(&lease) {
        Ok(text) => text.trim().parse::<u32>().is_ok_and(pid_alive),
        Err(_) => false,
    }
}

/// Removes a stale lease sidecar, if any.
fn remove_stale_lease(segment: &Path) {
    let _ = fs::remove_file(lease_path(segment));
}

/// An RAII writer lease on one segment file: a `.lease` sidecar naming
/// this process's PID, removed on drop. [`Store::gc`] leaves leased
/// files alone while the owner lives, and reclaims the lease once it
/// dies.
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
}

impl Lease {
    fn take(segment: &Path) -> io::Result<Lease> {
        let path = lease_path(segment);
        fs::write(&path, format!("{}\n", std::process::id()))?;
        Ok(Lease { path })
    }

    /// Takes the lease on `segment` only if no lease file exists yet;
    /// `None` when one does.
    fn claim(segment: &Path) -> io::Result<Option<Lease>> {
        let path = lease_path(segment);
        let mut file = match fs::OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)
        {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => return Ok(None),
            Err(e) => return Err(e),
        };
        let lease = Lease { path };
        file.write_all(format!("{}\n", std::process::id()).as_bytes())?;
        Ok(Some(lease))
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Appends one scenario's evaluation records to a private fresh segment
/// in the scenario's partition — created lazily so read-only (fully
/// warm) runs leave no empty files behind, and leased against
/// concurrent GC until the writer drops.
#[derive(Debug)]
pub struct EvalWriter {
    dir: PathBuf,
    segment: Option<(SegmentWriter, Lease)>,
    // Whether the segment's name (and its partition directory's) has
    // been made durable: a synced file whose directory entry is lost in
    // a crash is lost with it.
    named_durably: bool,
}

impl EvalWriter {
    /// Appends one evaluation record. The body should carry the `"key"`
    /// digest field: readers count a record without one as damage.
    pub fn write(&mut self, body: &JsonValue) -> io::Result<()> {
        let (writer, _) = match &mut self.segment {
            Some(segment) => segment,
            None => {
                let (path, lease) = claim_segment(&self.dir)?;
                self.segment.insert((SegmentWriter::append(&path)?, lease))
            }
        };
        writer.write_record(body)
    }

    /// Forces written records to stable storage; a no-op before the
    /// first write. The first sync also makes the segment's and the
    /// partition's directory entries durable.
    pub fn sync(&mut self) -> io::Result<()> {
        let Some((writer, _)) = &mut self.segment else {
            return Ok(());
        };
        writer.sync()?;
        if !self.named_durably {
            sync_dir(&self.dir)?;
            if let Some(evals) = self.dir.parent() {
                sync_dir(evals)?;
            }
            self.named_durably = true;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(name: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("cirfix-store-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Store::open(&dir).unwrap()
    }

    fn eval_body(key: Digest, n: u64) -> JsonValue {
        JsonValue::obj(vec![
            ("key", JsonValue::Str(key.to_hex())),
            ("n", JsonValue::Uint(n)),
        ])
    }

    /// The scenario most tests write under.
    const SCENARIO: Digest = Digest(0x5ce0);

    #[test]
    fn eval_records_round_trip_through_segments() {
        let store = tmp_store("evals");
        let mut w = store.eval_writer(SCENARIO);
        for n in 0..4u64 {
            w.write(&eval_body(Digest(u128::from(n)), n)).unwrap();
        }
        w.sync().unwrap();
        let (entries, health) = store.load_evals(SCENARIO).unwrap();
        assert_eq!(entries.len(), 4);
        assert!(health.is_clean());
        assert!(entries.iter().any(|(k, _)| *k == Digest(2)));
    }

    #[test]
    fn writes_are_partitioned_by_scenario() {
        let store = tmp_store("partitions");
        let other = Digest(0xf00d);
        let mut a = store.eval_writer(SCENARIO);
        let mut b = store.eval_writer(other);
        a.write(&eval_body(Digest(1), 1)).unwrap();
        a.write(&eval_body(Digest(2), 2)).unwrap();
        b.write(&eval_body(Digest(3), 3)).unwrap();
        drop((a, b));
        let segments = store.eval_segments().unwrap();
        assert_eq!(segments.len(), 2, "one segment per writer");
        for (scenario, want) in [(SCENARIO, vec![1, 2]), (other, vec![3])] {
            let dir = store.dir().join("evals").join(scenario.to_hex());
            assert!(segments.iter().any(|p| p.parent() == Some(dir.as_path())));
            let (entries, health) = store.load_evals(scenario).unwrap();
            assert!(health.is_clean());
            let keys: Vec<u128> = entries.iter().map(|(k, _)| k.0).collect();
            assert_eq!(keys, want, "a session reads its own partition only");
        }
        let dirs = store.eval_dirs().unwrap();
        let scenarios: Vec<Option<Digest>> = dirs.iter().map(|d| d.scenario).collect();
        assert_eq!(scenarios, vec![None, Some(SCENARIO), Some(other)]);
    }

    #[test]
    fn legacy_segments_are_read_and_compacted_in_place_by_gc() {
        let store = tmp_store("legacy");
        // A pre-partitioning store: one flat segment directly under
        // evals/ and one key-prefix shard.
        let flat = store.dir().join("evals");
        let shard = store.dir().join("evals").join("7");
        fs::create_dir_all(&shard).unwrap();
        for (dir, key) in [(&flat, 0x5), (&shard, 0x7)] {
            let mut w = SegmentWriter::append(&dir.join("evals-00001.jsonl")).unwrap();
            w.write_record(&eval_body(Digest(key), 1)).unwrap();
            // A duplicate key: gc keeps the first write only.
            w.write_record(&eval_body(Digest(key), 2)).unwrap();
        }
        store
            .eval_writer(SCENARIO)
            .write(&eval_body(Digest(0x9), 9))
            .unwrap();
        let (entries, _) = store.load_evals(Digest(0xabc)).unwrap();
        assert_eq!(entries.len(), 4, "every session reads legacy segments");
        let (entries, _) = store.load_evals(SCENARIO).unwrap();
        assert_eq!(entries.len(), 5);

        let report = store.gc().unwrap();
        assert_eq!(report.records_kept, 3);
        assert_eq!(report.records_dropped, 2);
        // Each record is rewritten into the directory it was read from.
        let partition = flat.join(SCENARIO.to_hex());
        for (dir, key, n) in [(&flat, 0x5, 1), (&shard, 0x7, 1), (&partition, 0x9, 9)] {
            let segments = segments_of(dir).unwrap();
            assert_eq!(segments.len(), 1, "{}", dir.display());
            let (bodies, health) = read_segment(&segments[0]).unwrap();
            assert!(health.is_clean());
            assert_eq!(bodies, vec![eval_body(Digest(key), n)]);
        }
        let (entries, health) = store.load_evals(SCENARIO).unwrap();
        assert!(health.is_clean());
        assert_eq!(entries.len(), 3);
    }

    #[test]
    fn each_writer_gets_its_own_segment() {
        let store = tmp_store("segments");
        let mut a = store.eval_writer(SCENARIO);
        a.write(&eval_body(Digest(1), 1)).unwrap();
        let mut b = store.eval_writer(SCENARIO);
        b.write(&eval_body(Digest(2), 2)).unwrap();
        assert_eq!(store.eval_segments().unwrap().len(), 2);
        let (entries, _) = store.load_evals(SCENARIO).unwrap();
        assert_eq!(entries.len(), 2);
    }

    #[test]
    fn crash_records_round_trip_and_survive_gc() {
        let store = tmp_store("crashes");
        let (crashes, health) = store.load_crashes().unwrap();
        assert!(
            crashes.is_empty() && health.is_clean(),
            "empty corpus reads clean"
        );
        for n in 0..3u64 {
            store
                .append_crash(&JsonValue::obj(vec![("finding", JsonValue::Uint(n))]))
                .unwrap();
        }
        let (crashes, health) = store.load_crashes().unwrap();
        assert_eq!(crashes.len(), 3);
        assert!(health.is_clean());
        // A torn tail (a crash mid-append) is healed by gc, keeping the
        // intact records.
        use std::io::Write as _;
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(store.crashes_path())
            .unwrap();
        f.write_all(b"{\"truncated").unwrap();
        drop(f);
        store.gc().unwrap();
        let (crashes, health) = store.load_crashes().unwrap();
        assert_eq!(crashes.len(), 3);
        assert!(health.is_clean());
        let report = store.verify().unwrap();
        assert!(report.is_clean(), "crashes are covered by verify");
        assert!(
            report.files.iter().any(|f| f.name.contains("crashes")),
            "verify lists the crash segment"
        );
    }

    #[test]
    fn gc_compacts_dedups_and_reports() {
        let store = tmp_store("gc");
        let mut a = store.eval_writer(SCENARIO);
        a.write(&eval_body(Digest(1), 1)).unwrap();
        a.write(&eval_body(Digest(2), 2)).unwrap();
        let mut b = store.eval_writer(SCENARIO);
        b.write(&eval_body(Digest(1), 99)).unwrap(); // duplicate key
        drop((a, b));
        let report = store.gc().unwrap();
        assert_eq!(report.records_kept, 2);
        assert_eq!(report.records_dropped, 1);
        assert_eq!(report.files_skipped_active, 0);
        let (entries, health) = store.load_evals(SCENARIO).unwrap();
        assert!(health.is_clean());
        let one = entries.iter().find(|(k, _)| *k == Digest(1)).unwrap();
        assert_eq!(crate::field_u64(&one.1, "n"), Some(1), "first write wins");
    }

    #[test]
    fn gc_skips_segments_held_by_live_writers() {
        let store = tmp_store("gc-live");
        let mut live = store.eval_writer(SCENARIO);
        live.write(&eval_body(Digest(1), 1)).unwrap();
        live.sync().unwrap();
        let mut done = store.eval_writer(SCENARIO);
        done.write(&eval_body(Digest(2), 2)).unwrap();
        drop(done);

        // `live` still holds its segment (same-process lease, PID
        // alive): gc must leave it untouched and still compact the
        // released one.
        let report = store.gc().unwrap();
        assert_eq!(report.files_skipped_active, 1);
        assert_eq!(report.records_kept, 1);

        // The held segment keeps accepting writes after the gc — the
        // regression this guards: the old gc deleted it out from under
        // the writer, silently dropping every subsequent record.
        live.write(&eval_body(Digest(3), 3)).unwrap();
        live.sync().unwrap();
        drop(live);
        let (entries, health) = store.load_evals(SCENARIO).unwrap();
        assert!(health.is_clean());
        let mut keys: Vec<u128> = entries.iter().map(|(k, _)| k.0).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2, 3]);

        // With the writer gone the lease is released; a second gc
        // compacts everything.
        let report = store.gc().unwrap();
        assert_eq!(report.files_skipped_active, 0);
        let (entries, _) = store.load_evals(SCENARIO).unwrap();
        assert_eq!(entries.len(), 3);
    }

    #[test]
    fn a_segment_is_leased_before_it_exists() {
        let store = tmp_store("claim");
        let dir = store.dir().join("evals").join(SCENARIO.to_hex());
        let (first, lease) = claim_segment(&dir).unwrap();
        assert!(
            lease_is_live(&first),
            "a gc listing the new segment must find it leased"
        );
        // A claimant between its lease and its segment holds the index.
        let held = Lease::claim(&dir.join("evals-00002.jsonl"))
            .unwrap()
            .expect("index 2 is free");
        let (third, _third_lease) = claim_segment(&dir).unwrap();
        assert_eq!(third, dir.join("evals-00003.jsonl"));
        assert!(!dir.join("evals-00002.jsonl").exists());
        drop((held, lease));
        assert!(!lease_is_live(&first));
    }

    #[test]
    fn gc_reclaims_stale_leases_from_dead_writers() {
        let store = tmp_store("gc-stale");
        let mut w = store.eval_writer(SCENARIO);
        w.write(&eval_body(Digest(9), 9)).unwrap();
        w.sync().unwrap();
        // Forget the writer without running Drop: the lease file stays
        // behind, as after a `kill -9`...
        std::mem::forget(w);
        let seg = store.eval_segments().unwrap()[0].clone();
        let lease = lease_path(&seg);
        assert!(lease.exists());
        // ...then rewrite it to name a PID that cannot exist.
        fs::write(&lease, "4294967294\n").unwrap();
        let report = store.gc().unwrap();
        assert_eq!(report.files_skipped_active, 0, "stale lease is not live");
        assert!(!lease.exists(), "stale lease cleaned up");
        assert_eq!(report.records_kept, 1);
    }

    #[test]
    fn gc_reaps_completed_sessions_and_keeps_live_ones() {
        let store = tmp_store("sessions");
        let done = JsonValue::obj(vec![("type", JsonValue::Str("complete".into()))]);
        let live = JsonValue::obj(vec![("type", JsonValue::Str("checkpoint".into()))]);
        store
            .session_writer("done")
            .unwrap()
            .write_record(&done)
            .unwrap();
        store
            .session_writer("live")
            .unwrap()
            .write_record(&live)
            .unwrap();
        assert_eq!(store.sessions().unwrap(), ["done", "live"]);
        store.gc().unwrap();
        assert!(!store.session_path("done").exists());
        assert!(store.session_path("live").exists());
        assert_eq!(store.sessions().unwrap(), ["live"]);
    }

    #[test]
    fn gc_spares_leased_sessions_even_when_complete() {
        let store = tmp_store("session-lease");
        let done = JsonValue::obj(vec![("type", JsonValue::Str("complete".into()))]);
        store
            .session_writer("held")
            .unwrap()
            .write_record(&done)
            .unwrap();
        let lease = store.session_lease("held").unwrap();
        store.gc().unwrap();
        assert!(
            store.session_path("held").exists(),
            "leased session survives gc"
        );
        drop(lease);
        store.gc().unwrap();
        assert!(!store.session_path("held").exists());
    }

    #[test]
    fn verify_reports_without_modifying() {
        let store = tmp_store("verify");
        let mut w = store.eval_writer(SCENARIO);
        w.write(&eval_body(Digest(1), 1)).unwrap();
        drop(w);
        let seg = &store.eval_segments().unwrap()[0];
        let len_before = fs::metadata(seg).unwrap().len();
        // Torn tail.
        use std::io::Write as _;
        let mut f = fs::OpenOptions::new().append(true).open(seg).unwrap();
        f.write_all(b"{\"sum\":\"partial").unwrap();
        drop(f);
        let report = store.verify().unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.torn(), 1);
        assert_eq!(report.records(), 1);
        assert!(
            fs::metadata(seg).unwrap().len() > len_before,
            "verify must not truncate"
        );
    }
}
