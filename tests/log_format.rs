//! The two JSONL logs — a shard checkpoint and a fleet lease journal —
//! keep their bytes: each is written through its public API (create,
//! three appends, a torn tail, resume, one more append) and compared
//! with a literal. And the one loader behind both is fed every prefix
//! of a checkpoint: it loads every complete record, or refuses a cut
//! header as corrupt line 1, and never panics.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use reds::eval::checkpoint::{
    load_checkpoint, CheckpointError, CheckpointHeader, CheckpointWriter, UnitRecord,
};
use reds::eval::jsonl::LogError;
use reds::eval::{Evaluation, WorkUnit};
use reds::subgroup::HyperBox;
use reds_fleet::{load_journal, JournalEvent, LeaseJournal};

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("reds-log-format-{}-{name}", std::process::id()))
}

/// A record with the float and integer extremes the codec must carry
/// exactly; `method` is not ASCII, so a cut can fall inside a
/// character.
fn record(rep: usize) -> UnitRecord {
    UnitRecord {
        spec: "0123456789abcdef".to_string(),
        unit: WorkUnit {
            function: "2".to_string(),
            n: 60 + rep,
            method: "RPx·".to_string(),
            method_index: rep % 2,
            rep,
            rep_seed: u64::MAX - rep as u64,
            method_seed: 0x1234_5678_9abc_def0 + rep as u64,
        },
        eval: Evaluation {
            pr_auc: 0.1 + 0.2 * rep as f64,
            precision: [0.75, -0.0, 1e-300, 5e-324][rep % 4],
            recall: 1.0 / 3.0,
            wracc: -0.0625,
            n_restricted: rep,
            n_irrel: 9_007_199_254_740_992,
            runtime_ms: 12.5,
            last_box: HyperBox::from_bounds(vec![(0.25, f64::INFINITY), (f64::NEG_INFINITY, 0.5)]),
        },
        attempt: rep as u32,
    }
}

fn events() -> Vec<JournalEvent> {
    vec![
        JournalEvent::Grant {
            lease: 1,
            attempt: 1,
            worker: "127.0.0.1:9400".to_string(),
            keys: vec!["fp/P/0".to_string(), "fp/P/1".to_string()],
        },
        JournalEvent::Ingest {
            lease: 1,
            attempt: 1,
            key: "fp/P/0".to_string(),
            duplicate: false,
        },
        JournalEvent::Expire {
            lease: 1,
            reason: "deadline".to_string(),
        },
        JournalEvent::Ingest {
            lease: 9_007_199_254_740_992,
            attempt: u32::MAX,
            key: "fp/P/1".to_string(),
            duplicate: true,
        },
    ]
}

/// Appends `torn` without a newline: an append a crash cut short.
fn tear(path: &Path, torn: &str) {
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .expect("open");
    file.write_all(torn.as_bytes()).expect("tear");
}

fn assert_bytes(path: &Path, expected: &str) {
    let found = std::fs::read(path).expect("read");
    assert!(
        found == expected.as_bytes(),
        "{} changed its bytes; it now reads\n{}",
        path.display(),
        String::from_utf8_lossy(&found)
    );
    std::fs::remove_file(path).ok();
}

const CHECKPOINT: &str = concat!(
    r#"{"schema_version":1,"fingerprint":"0123456789abcdef","shard":1,"of":2}"#,
    "\n",
    r#"{"spec":"0123456789abcdef","unit":{"function":"2","n":60,"method":"RPx·","method_index":0,"rep":0,"rep_seed":"18446744073709551615","method_seed":"1311768467463790320"},"eval":{"pr_auc":0.1,"precision":0.75,"recall":0.3333333333333333,"wracc":-0.0625,"n_restricted":0,"n_irrel":9007199254740992,"runtime_ms":12.5,"last_box":{"bounds":[[0.25,null],[null,0.5]]}},"attempt":0}"#,
    "\n",
    r#"{"spec":"0123456789abcdef","unit":{"function":"2","n":61,"method":"RPx·","method_index":1,"rep":1,"rep_seed":"18446744073709551614","method_seed":"1311768467463790321"},"eval":{"pr_auc":0.30000000000000004,"precision":-0,"recall":0.3333333333333333,"wracc":-0.0625,"n_restricted":1,"n_irrel":9007199254740992,"runtime_ms":12.5,"last_box":{"bounds":[[0.25,null],[null,0.5]]}},"attempt":1}"#,
    "\n",
    r#"{"spec":"0123456789abcdef","unit":{"function":"2","n":62,"method":"RPx·","method_index":0,"rep":2,"rep_seed":"18446744073709551613","method_seed":"1311768467463790322"},"eval":{"pr_auc":0.5,"precision":1e-300,"recall":0.3333333333333333,"wracc":-0.0625,"n_restricted":2,"n_irrel":9007199254740992,"runtime_ms":12.5,"last_box":{"bounds":[[0.25,null],[null,0.5]]}},"attempt":2}"#,
    "\n",
    r#"{"spec":"0123456789abcdef","unit":{"function":"2","n":63,"method":"RPx·","method_index":1,"rep":3,"rep_seed":"18446744073709551612","method_seed":"1311768467463790323"},"eval":{"pr_auc":0.7000000000000001,"precision":5e-324,"recall":0.3333333333333333,"wracc":-0.0625,"n_restricted":3,"n_irrel":9007199254740992,"runtime_ms":12.5,"last_box":{"bounds":[[0.25,null],[null,0.5]]}},"attempt":3}"#,
    "\n",
);

const JOURNAL: &str = concat!(
    r#"{"journal":"reds-fleet-journal-v1","fingerprint":"0123456789abcdef"}"#,
    "\n",
    r#"{"ev":"grant","lease":1,"attempt":1,"worker":"127.0.0.1:9400","keys":["fp/P/0","fp/P/1"]}"#,
    "\n",
    r#"{"ev":"ingest","lease":1,"attempt":1,"key":"fp/P/0","duplicate":false}"#,
    "\n",
    r#"{"ev":"expire","lease":1,"reason":"deadline"}"#,
    "\n",
    r#"{"ev":"ingest","lease":9007199254740992,"attempt":4294967295,"key":"fp/P/1","duplicate":true}"#,
    "\n",
);

#[test]
fn a_checkpoint_keeps_its_bytes_through_a_torn_tail_and_a_resume() {
    let path = tmp_path("checkpoint.jsonl");
    let header = CheckpointHeader::new("0123456789abcdef", 1, 2);
    let mut w = CheckpointWriter::create(&path, &header).expect("create");
    for rep in 0..3 {
        w.append(&record(rep)).expect("append");
    }
    drop(w);
    tear(
        &path,
        r#"{"spec":"0123456789abcdef","unit":{"function":"2","n":6"#,
    );
    let (mut w, done) = CheckpointWriter::resume(&path, &header).expect("resume");
    assert_eq!(done.len(), 3);
    w.append(&record(3)).expect("append after resume");
    drop(w);
    assert_bytes(&path, CHECKPOINT);
}

#[test]
fn a_journal_keeps_its_bytes_through_a_torn_tail_and_a_resume() {
    let path = tmp_path("journal.jsonl");
    let events = events();
    let mut j = LeaseJournal::create(&path, "0123456789abcdef").expect("create");
    for ev in &events[..3] {
        j.record(ev).expect("record");
    }
    drop(j);
    tear(&path, r#"{"ev":"ingest","lease":9007"#);
    let (mut j, state) = LeaseJournal::resume(&path, "0123456789abcdef").expect("resume");
    assert_eq!(state.max_lease, 1);
    j.record(&events[3]).expect("record after resume");
    drop(j);
    let (_, _, loaded) = load_journal(&path).expect("load");
    assert_eq!(loaded, events);
    assert_bytes(&path, JOURNAL);
}

#[test]
fn every_prefix_of_a_checkpoint_loads_its_complete_records_or_is_corrupt_at_line_1() {
    let path = tmp_path("whole.jsonl");
    let header = CheckpointHeader::new("0123456789abcdef", 0, 1);
    let records: Vec<UnitRecord> = (0..3).map(record).collect();
    let mut w = CheckpointWriter::create(&path, &header).expect("create");
    for r in &records {
        w.append(r).expect("append");
    }
    drop(w);
    let bytes = std::fs::read(&path).expect("read");
    std::fs::remove_file(&path).ok();
    // Where each line ends: the header's, then each record's.
    let ends: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
    assert_eq!(ends.len(), 4);

    let path = tmp_path("prefix.jsonl");
    for cut in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..cut]).expect("write prefix");
        let loaded = load_checkpoint(&path);
        if cut < ends[0] {
            assert!(
                matches!(
                    loaded,
                    Err(CheckpointError::Log(LogError::Corrupt { line: 1, .. }))
                ),
                "a header cut at byte {cut} was not refused as line 1: {loaded:?}"
            );
            continue;
        }
        let ck = loaded.unwrap_or_else(|e| panic!("prefix of {cut} bytes: {e}"));
        assert_eq!(ck.header, header);
        // A record's JSON is complete where its line's `\n` would go.
        let complete = ends[1..].iter().filter(|&&end| end <= cut).count();
        assert_eq!(ck.records, records[..complete], "prefix of {cut} bytes");
        let torn = ends.windows(2).any(|w| w[0] + 1 < cut && cut < w[1]);
        assert_eq!(ck.truncated, torn, "prefix of {cut} bytes");
    }
    std::fs::remove_file(&path).ok();
}

/// A crash inside `create`, before its one write landed, leaves a log
/// with no complete header line: empty, or a header cut short. It holds
/// no record, so resuming starts it afresh, for the checkpoint and the
/// journal alike. A complete header line that does not decode, or that
/// belongs to another run, is still refused.
#[test]
fn resume_starts_afresh_over_a_log_with_no_complete_header_line() {
    let header = CheckpointHeader::new("0123456789abcdef", 1, 2);
    let checkpoint = tmp_path("headless-checkpoint.jsonl");
    let journal = tmp_path("headless-journal.jsonl");
    for torn in ["", r#"{"schema_version":1,"finger"#] {
        std::fs::write(&checkpoint, torn).expect("write");
        let (mut w, done) = CheckpointWriter::open(&checkpoint, &header, true)
            .unwrap_or_else(|e| panic!("resume over {torn:?}: {e}"));
        assert!(done.is_empty());
        w.append(&record(0)).expect("append");
        drop(w);
        let lines: Vec<&str> = CHECKPOINT.split_inclusive('\n').collect();
        assert_bytes(&checkpoint, &lines[..2].concat());

        std::fs::write(&journal, torn).expect("write");
        let (mut j, state) = LeaseJournal::open(&journal, "0123456789abcdef", true)
            .unwrap_or_else(|e| panic!("resume over {torn:?}: {e}"));
        assert_eq!(state.max_lease, 0);
        j.record(&events()[0]).expect("record");
        drop(j);
        let lines: Vec<&str> = JOURNAL.split_inclusive('\n').collect();
        assert_bytes(&journal, &lines[..2].concat());
    }

    std::fs::write(&checkpoint, "{\"schema_version\":1,\"finger\n").expect("write");
    let refused = CheckpointWriter::open(&checkpoint, &header, true);
    assert!(
        matches!(
            refused,
            Err(CheckpointError::Log(LogError::Corrupt { line: 1, .. }))
        ),
        "a complete but torn header was resumed: {refused:?}"
    );
    let other = CheckpointHeader::new("fedcba9876543210", 1, 2);
    CheckpointWriter::create(&checkpoint, &other).expect("create");
    let refused = CheckpointWriter::open(&checkpoint, &header, true);
    assert!(
        matches!(refused, Err(CheckpointError::FingerprintMismatch { .. })),
        "another run's header was resumed: {refused:?}"
    );
    std::fs::remove_file(&checkpoint).ok();
}
