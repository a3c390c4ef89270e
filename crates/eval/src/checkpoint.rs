//! JSONL shard checkpoints for long experiment sweeps.
//!
//! A checkpoint file records the completed [`WorkUnit`]s of one shard
//! of a sweep so an interrupted run can resume and so shards executed
//! on different machines can be recombined by `merge_shards`. It is a
//! [`jsonl`](crate::jsonl) log; this module holds only its header and
//! record codecs and its domain errors:
//!
//! ```text
//! {"schema_version":1,"fingerprint":"d3b0…","shard":0,"of":2}   ← header
//! {"spec":"9a41…","unit":{…},"eval":{…},"attempt":0}           ← one per unit
//! ```
//!
//! * **Atomic appends** — each completed unit is one full line, written
//!   and flushed at once. A crash can leave at most one partial
//!   trailing line, which [`load_checkpoint`] drops and flags
//!   (`truncated`); [`CheckpointWriter::open`] with `resume` rewrites
//!   the file from its valid prefix via a temp-file rename before
//!   appending again.
//! * **Fingerprints** — the header carries the producing run's
//!   fingerprint and each record its spec's fingerprint (see
//!   [`crate::workunit::spec_fingerprint`]), so partial results from a
//!   different configuration are rejected instead of merged silently.
//! * **Exact numbers** — `reds-json` serializes `f64` with
//!   shortest-round-trip formatting, so every score survives
//!   serialize → parse → merge bit-for-bit; every count is read back
//!   with [`Json::as_u64`] and refused when it does not fit its field.

use std::collections::HashSet;
use std::fmt;
use std::path::Path;

use reds_json::Json;
use reds_subgroup::HyperBox;

use crate::experiment::Evaluation;
use crate::jsonl::{self, Format, LogError};
use crate::workunit::WorkUnit;

/// Version of the checkpoint file layout; bump on incompatible change.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 1;

/// First line of a checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// File-layout version ([`CHECKPOINT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Fingerprint of the producing run's full configuration.
    pub fingerprint: String,
    /// Shard index, `0 .. of`.
    pub shard: usize,
    /// Total number of shards (1 = monolithic).
    pub of: usize,
}

impl CheckpointHeader {
    /// A header for shard `shard` of `of` of a run with `fingerprint`.
    pub fn new(fingerprint: impl Into<String>, shard: usize, of: usize) -> Self {
        Self {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            fingerprint: fingerprint.into(),
            shard,
            of,
        }
    }
}

/// One completed work unit with its result.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitRecord {
    /// Fingerprint of the [`ExperimentSpec`](crate::ExperimentSpec) the
    /// unit belongs to (a sweep checkpoints many specs into one file).
    pub spec: String,
    /// The grid cell.
    pub unit: WorkUnit,
    /// Its result.
    pub eval: Evaluation,
    /// Lease attempt that produced the record: `0` for in-process
    /// execution (monolithic and sharded runs), `>= 1` when a fleet
    /// coordinator ingested the unit from a remote worker's lease.
    /// Results are bit-identical across attempts (stable seeding), so
    /// this is provenance, not payload; files written before the field
    /// existed load as attempt 0.
    pub attempt: u32,
}

/// The identity under which completed units are deduplicated — one
/// string per grid cell, shared by checkpoint merging, fleet lease
/// journals, and idempotent result ingestion.
pub fn unit_key(spec_fingerprint: &str, unit: &WorkUnit) -> String {
    format!("{spec_fingerprint}/{}/{}", unit.method, unit.rep)
}

/// A parsed checkpoint file: its header, every fully-written unit
/// record in append order, and whether a partial trailing line was
/// dropped.
pub type ShardCheckpoint = jsonl::Log<CheckpointHeader, UnitRecord>;

/// Failure to read, validate, or merge checkpoints.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written, or a fully-written line
    /// does not parse as the expected shape.
    Log(LogError),
    /// The file was written by an incompatible layout version.
    SchemaMismatch {
        /// Version found in the header.
        found: u32,
    },
    /// The file belongs to a differently-configured run.
    FingerprintMismatch {
        /// Fingerprint of the current configuration.
        expected: String,
        /// Fingerprint found in the header.
        found: String,
    },
    /// The file's shard coordinates differ from the resuming run's.
    ShardMismatch {
        /// Header of the resuming run.
        expected: CheckpointHeader,
        /// Header found in the file.
        found: CheckpointHeader,
    },
    /// The same grid cell appears more than once across the merged
    /// checkpoints.
    DuplicateUnit {
        /// Spec fingerprint of the duplicated unit.
        spec: String,
        /// Method name of the duplicated unit.
        method: String,
        /// Repetition of the duplicated unit.
        rep: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Log(e) => write!(f, "checkpoint {e}"),
            Self::SchemaMismatch { found } => write!(
                f,
                "checkpoint schema version {found} is not {CHECKPOINT_SCHEMA_VERSION}"
            ),
            Self::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {found} does not match this run's configuration \
                 ({expected}) — it was produced with different settings"
            ),
            Self::ShardMismatch { expected, found } => write!(
                f,
                "checkpoint is shard {}/{} but this run is shard {}/{}",
                found.shard, found.of, expected.shard, expected.of
            ),
            Self::DuplicateUnit { spec, method, rep } => write!(
                f,
                "unit (spec {spec}, method {method}, rep {rep}) appears more than once"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<LogError> for CheckpointError {
    fn from(e: LogError) -> Self {
        Self::Log(e)
    }
}

// ---- JSON conversions -------------------------------------------------

fn u64_to_json(v: u64) -> Json {
    // u64 does not fit f64 losslessly; decimal strings do.
    Json::str(v.to_string())
}

fn u64_from_json(v: &Json) -> Result<u64, String> {
    v.as_str()
        .ok_or_else(|| "expected a decimal string".to_string())?
        .parse()
        .map_err(|e| format!("bad u64: {e}"))
}

/// `v` as an exact count ([`Json::as_u64`]) that fits `T`.
fn count<T: TryFrom<u64>>(v: &Json, what: &str) -> Result<T, String> {
    v.as_u64()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("{what}: {v} is not a valid count"))
}

fn f64_from_json(v: &Json, what: &str) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("{what}: expected a number"))
}

/// Wire/JSONL form of a [`WorkUnit`] (public so the fleet protocol's
/// lease frames serialize units exactly like checkpoints do).
pub fn unit_to_json(u: &WorkUnit) -> Json {
    Json::obj([
        ("function", Json::str(u.function.clone())),
        ("n", Json::num(u.n as f64)),
        ("method", Json::str(u.method.clone())),
        ("method_index", Json::num(u.method_index as f64)),
        ("rep", Json::num(u.rep as f64)),
        ("rep_seed", u64_to_json(u.rep_seed)),
        ("method_seed", u64_to_json(u.method_seed)),
    ])
}

/// Inverse of [`unit_to_json`].
pub fn unit_from_json(doc: &Json) -> Result<WorkUnit, String> {
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("unit missing '{k}'"));
    Ok(WorkUnit {
        function: field("function")?
            .as_str()
            .ok_or("function: expected a string")?
            .to_string(),
        n: count(field("n")?, "n")?,
        method: field("method")?
            .as_str()
            .ok_or("method: expected a string")?
            .to_string(),
        method_index: count(field("method_index")?, "method_index")?,
        rep: count(field("rep")?, "rep")?,
        rep_seed: u64_from_json(field("rep_seed")?).map_err(|e| format!("rep_seed: {e}"))?,
        method_seed: u64_from_json(field("method_seed")?)
            .map_err(|e| format!("method_seed: {e}"))?,
    })
}

fn eval_to_json(e: &Evaluation) -> Json {
    Json::obj([
        ("pr_auc", Json::Num(e.pr_auc)),
        ("precision", Json::Num(e.precision)),
        ("recall", Json::Num(e.recall)),
        ("wracc", Json::Num(e.wracc)),
        ("n_restricted", Json::num(e.n_restricted as f64)),
        ("n_irrel", Json::num(e.n_irrel as f64)),
        ("runtime_ms", Json::Num(e.runtime_ms)),
        ("last_box", e.last_box.to_json()),
    ])
}

fn eval_from_json(doc: &Json) -> Result<Evaluation, String> {
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("eval missing '{k}'"));
    Ok(Evaluation {
        pr_auc: f64_from_json(field("pr_auc")?, "pr_auc")?,
        precision: f64_from_json(field("precision")?, "precision")?,
        recall: f64_from_json(field("recall")?, "recall")?,
        wracc: f64_from_json(field("wracc")?, "wracc")?,
        n_restricted: count(field("n_restricted")?, "n_restricted")?,
        n_irrel: count(field("n_irrel")?, "n_irrel")?,
        runtime_ms: f64_from_json(field("runtime_ms")?, "runtime_ms")?,
        last_box: HyperBox::from_json(field("last_box")?).ok_or("last_box: bad shape")?,
    })
}

/// JSON form of one record line (public for property tests).
pub fn record_to_json(r: &UnitRecord) -> Json {
    Json::obj([
        ("spec", Json::str(r.spec.clone())),
        ("unit", unit_to_json(&r.unit)),
        ("eval", eval_to_json(&r.eval)),
        ("attempt", Json::num(r.attempt as f64)),
    ])
}

/// Parses one record line (public for property tests).
pub fn record_from_json(doc: &Json) -> Result<UnitRecord, String> {
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("record missing '{k}'"));
    // Pre-fleet checkpoints have no attempt field: in-process execution.
    let attempt = match doc.get("attempt") {
        None => 0,
        Some(v) => count(v, "attempt")?,
    };
    Ok(UnitRecord {
        spec: field("spec")?
            .as_str()
            .ok_or("spec: expected a string")?
            .to_string(),
        unit: unit_from_json(field("unit")?)?,
        eval: eval_from_json(field("eval")?)?,
        attempt,
    })
}

/// The checkpoint's [`jsonl`] format: a [`CheckpointHeader`], then one
/// [`UnitRecord`] per line.
#[derive(Debug)]
pub struct CheckpointFormat;

impl Format for CheckpointFormat {
    type Header = CheckpointHeader;
    type Record = UnitRecord;
    type Error = CheckpointError;

    fn header_to_json(h: &CheckpointHeader) -> Json {
        Json::obj([
            ("schema_version", Json::num(h.schema_version as f64)),
            ("fingerprint", Json::str(h.fingerprint.clone())),
            ("shard", Json::num(h.shard as f64)),
            ("of", Json::num(h.of as f64)),
        ])
    }

    fn header_from_json(doc: &Json) -> Result<CheckpointHeader, String> {
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("header missing '{k}'"));
        Ok(CheckpointHeader {
            schema_version: count(field("schema_version")?, "schema_version")?,
            fingerprint: field("fingerprint")?
                .as_str()
                .ok_or("fingerprint: expected a string")?
                .to_string(),
            shard: count(field("shard")?, "shard")?,
            of: count(field("of")?, "of")?,
        })
    }

    fn record_to_json(record: &UnitRecord) -> Json {
        record_to_json(record)
    }

    fn record_from_json(doc: &Json) -> Result<UnitRecord, String> {
        record_from_json(doc)
    }

    /// A resumed checkpoint must carry the resuming run's schema
    /// version, fingerprint and shard coordinates.
    fn check(expected: &CheckpointHeader, found: CheckpointHeader) -> Result<(), CheckpointError> {
        if found.schema_version != expected.schema_version {
            return Err(CheckpointError::SchemaMismatch {
                found: found.schema_version,
            });
        }
        if found.fingerprint != expected.fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                expected: expected.fingerprint.clone(),
                found: found.fingerprint,
            });
        }
        if (found.shard, found.of) != (expected.shard, expected.of) {
            return Err(CheckpointError::ShardMismatch {
                expected: expected.clone(),
                found,
            });
        }
        Ok(())
    }
}

/// Appends completed units to a checkpoint file, one line per unit
/// ([`jsonl::Writer`]: `create`, `open`, `resume`, `append`).
pub type CheckpointWriter = jsonl::Writer<CheckpointFormat>;

/// Parses a checkpoint file. A partial trailing line (no terminating
/// newline — an append interrupted mid-write) is dropped and flagged via
/// [`jsonl::Log::truncated`]; any other malformed line is an error.
pub fn load_checkpoint(path: &Path) -> Result<ShardCheckpoint, CheckpointError> {
    jsonl::load::<CheckpointFormat>(path)
}

/// Validates and concatenates the records of several shard checkpoints:
/// every header must carry the current schema version and
/// `expected_fingerprint`, and no grid cell may appear twice. Shards
/// may arrive in any order; completeness is checked downstream by
/// [`aggregate_units`](crate::aggregate_units).
pub fn merge_records(
    expected_fingerprint: &str,
    shards: &[ShardCheckpoint],
) -> Result<Vec<UnitRecord>, CheckpointError> {
    let mut seen: HashSet<(String, String, usize)> = HashSet::new();
    let mut merged = Vec::new();
    for shard in shards {
        if shard.header.schema_version != CHECKPOINT_SCHEMA_VERSION {
            return Err(CheckpointError::SchemaMismatch {
                found: shard.header.schema_version,
            });
        }
        if shard.header.fingerprint != expected_fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                expected: expected_fingerprint.to_string(),
                found: shard.header.fingerprint.clone(),
            });
        }
        for r in &shard.records {
            let key = (r.spec.clone(), r.unit.method.clone(), r.unit.rep);
            if !seen.insert(key) {
                return Err(CheckpointError::DuplicateUnit {
                    spec: r.spec.clone(),
                    method: r.unit.method.clone(),
                    rep: r.unit.rep,
                });
            }
            merged.push(r.clone());
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn record(rep: usize, score: f64) -> UnitRecord {
        UnitRecord {
            spec: "00000000deadbeef".to_string(),
            unit: WorkUnit {
                function: "2".to_string(),
                n: 100,
                method: "P".to_string(),
                method_index: 0,
                rep,
                rep_seed: u64::MAX - rep as u64,
                method_seed: 0x1234_5678_9abc_def0 + rep as u64,
            },
            eval: Evaluation {
                pr_auc: score,
                precision: 0.75,
                recall: 1e-300,
                wracc: -0.0,
                n_restricted: 3,
                n_irrel: 0,
                runtime_ms: 12.5,
                last_box: HyperBox::from_bounds(vec![(0.25, f64::INFINITY), (-0.5, 0.5)]),
            },
            attempt: rep as u32 % 3,
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("reds-ckpt-test-{}-{name}", std::process::id()))
    }

    fn bitwise_eq(a: &UnitRecord, b: &UnitRecord) -> bool {
        a.spec == b.spec
            && a.unit == b.unit
            && a.eval.pr_auc.to_bits() == b.eval.pr_auc.to_bits()
            && a.eval.precision.to_bits() == b.eval.precision.to_bits()
            && a.eval.recall.to_bits() == b.eval.recall.to_bits()
            && a.eval.wracc.to_bits() == b.eval.wracc.to_bits()
            && a.eval.n_restricted == b.eval.n_restricted
            && a.eval.n_irrel == b.eval.n_irrel
            && a.eval.runtime_ms.to_bits() == b.eval.runtime_ms.to_bits()
            && a.eval.last_box == b.eval.last_box
            && a.attempt == b.attempt
    }

    #[test]
    fn file_round_trip_is_bitwise_exact() {
        let path = tmp_path("roundtrip.jsonl");
        let header = CheckpointHeader::new("cafe", 1, 3);
        let mut w = CheckpointWriter::create(&path, &header).expect("create");
        let records: Vec<UnitRecord> = (0..4).map(|r| record(r, 0.1 + 0.2 * r as f64)).collect();
        for r in &records {
            w.append(r).expect("append");
        }
        drop(w);
        let ck = load_checkpoint(&path).expect("load");
        assert_eq!(ck.header, header);
        assert!(!ck.truncated);
        assert_eq!(ck.records.len(), records.len());
        for (a, b) in ck.records.iter().zip(&records) {
            assert!(bitwise_eq(a, b), "{a:?}\n!=\n{b:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_trailing_line_is_dropped_and_flagged() {
        let path = tmp_path("truncated.jsonl");
        let header = CheckpointHeader::new("cafe", 0, 1);
        let mut w = CheckpointWriter::create(&path, &header).expect("create");
        w.append(&record(0, 0.5)).expect("append");
        drop(w);
        // Simulate a crash mid-append: half a record, no newline.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"spec\":\"00000000deadbeef\",\"unit\":{\"function\":");
        std::fs::write(&path, &text).unwrap();

        let ck = load_checkpoint(&path).expect("load tolerates the tail");
        assert!(ck.truncated);
        assert_eq!(ck.records.len(), 1);

        // Resume rewrites the valid prefix and appends cleanly after it.
        let (mut w, done) = CheckpointWriter::resume(&path, &header).expect("resume");
        assert_eq!(done.len(), 1);
        w.append(&record(1, 0.75)).expect("append after resume");
        drop(w);
        let ck = load_checkpoint(&path).expect("reload");
        assert!(!ck.truncated);
        assert_eq!(ck.records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_interior_line_is_an_error() {
        let path = tmp_path("corrupt.jsonl");
        let header = CheckpointHeader::new("cafe", 0, 1);
        let mut w = CheckpointWriter::create(&path, &header).expect("create");
        w.append(&record(0, 0.5)).expect("append");
        drop(w);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not json\n");
        text.push_str(&record_to_json(&record(1, 0.75)).to_string_compact());
        text.push('\n');
        std::fs::write(&path, &text).unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(CheckpointError::Log(LogError::Corrupt { line: 3, .. }))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counts_past_their_field_are_corrupt_not_wrapped() {
        let path = tmp_path("wrapped.jsonl");
        let header = CheckpointHeader::new("cafe", 0, 1);
        let mut w = CheckpointWriter::create(&path, &header).expect("create");
        w.append(&record(0, 0.5)).expect("append");
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        // 2³² + 1 is schema version 1 once cast to u32.
        let wrapped = text.replacen("\"schema_version\":1", "\"schema_version\":4294967297", 1);
        std::fs::write(&path, &wrapped).unwrap();
        match load_checkpoint(&path) {
            Err(CheckpointError::Log(LogError::Corrupt { line: 1, message })) => {
                assert!(message.contains("schema_version"), "{message}")
            }
            other => panic!("a wrapped schema version loaded: {other:?}"),
        }
        // Nor may a record's attempt wrap to 1.
        let wrapped = text.replacen("\"attempt\":0", "\"attempt\":4294967297", 1);
        std::fs::write(&path, &wrapped).unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(CheckpointError::Log(LogError::Corrupt { line: 2, .. }))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_foreign_headers() {
        let path = tmp_path("foreign.jsonl");
        let header = CheckpointHeader::new("cafe", 0, 2);
        CheckpointWriter::create(&path, &header).expect("create");
        assert!(matches!(
            CheckpointWriter::resume(&path, &CheckpointHeader::new("beef", 0, 2)),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
        assert!(matches!(
            CheckpointWriter::resume(&path, &CheckpointHeader::new("cafe", 1, 2)),
            Err(CheckpointError::ShardMismatch { .. })
        ));
        let mut wrong_schema = header.clone();
        wrong_schema.schema_version = 99;
        assert!(matches!(
            CheckpointWriter::resume(&path, &wrong_schema),
            Err(CheckpointError::SchemaMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_validates_fingerprints_and_duplicates() {
        let a = ShardCheckpoint {
            header: CheckpointHeader::new("cafe", 0, 2),
            records: vec![record(0, 0.5)],
            truncated: false,
        };
        let b = ShardCheckpoint {
            header: CheckpointHeader::new("cafe", 1, 2),
            records: vec![record(1, 0.6)],
            truncated: false,
        };
        let merged = merge_records("cafe", &[b.clone(), a.clone()]).expect("merges");
        assert_eq!(merged.len(), 2);

        assert!(matches!(
            merge_records("beef", std::slice::from_ref(&a)),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
        assert!(matches!(
            merge_records("cafe", &[a.clone(), a.clone()]),
            Err(CheckpointError::DuplicateUnit { .. })
        ));
    }

    #[test]
    fn empty_shard_round_trips() {
        let path = tmp_path("empty.jsonl");
        let header = CheckpointHeader::new("cafe", 2, 5);
        CheckpointWriter::create(&path, &header).expect("create");
        let ck = load_checkpoint(&path).expect("load");
        assert_eq!(ck.header, header);
        assert!(ck.records.is_empty() && !ck.truncated);
        assert!(merge_records("cafe", &[ck]).expect("merges").is_empty());
        std::fs::remove_file(&path).ok();
    }
}
