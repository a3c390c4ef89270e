//! The coordinator's lease journal: an append-only JSONL audit of
//! every grant, ingest, and expiry, with crash-tolerant resume.
//!
//! The journal is the coordinator's second durable file next to the
//! result checkpoint. The checkpoint holds *what* was computed; the
//! journal holds *how it got there* — which lease carried each unit,
//! at which attempt, and whether an ingested record was fresh or a
//! duplicate of an earlier attempt. Resuming a crashed coordinator
//! restores the per-unit attempt counters from it (so reassigned
//! leases keep strictly increasing attempt numbers), and the
//! fault-injection suite audits it to prove that no unit's result was
//! accepted twice.
//!
//! The file is written by the checkpoint's own log,
//! [`reds_eval::jsonl`]: a header line carrying the sweep fingerprint,
//! one event per line appended with a single `write_all` + flush, a
//! loader that drops one torn last line, and resume by temp-file
//! rename. This module holds only the header and event codecs, the
//! fingerprint check and [`JournalState::apply`].

use std::collections::HashMap;
use std::fmt;
use std::path::Path;

use reds_eval::jsonl::{self, Format, LogError, Writer};
use reds_json::Json;

use crate::protocol::uint;

/// Format tag of the journal's header line.
pub const JOURNAL_FORMAT: &str = "reds-fleet-journal-v1";

/// Name of the journal file in a coordinator's checkpoint directory,
/// beside the results checkpoint (which `merge_shards` reads and this
/// file is not).
pub const JOURNAL_FILE: &str = "fleet-journal.jsonl";

/// One journal line (after the header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEvent {
    /// A lease was granted to a worker.
    Grant {
        /// Lease id.
        lease: u64,
        /// Attempt number carried by the lease.
        attempt: u32,
        /// Worker address the lease went to.
        worker: String,
        /// `unit_key`s of the leased units.
        keys: Vec<String>,
    },
    /// A record arrived from a worker and was examined.
    Ingest {
        /// Lease that delivered the record.
        lease: u64,
        /// The record's attempt number.
        attempt: u32,
        /// The record's `unit_key`.
        key: String,
        /// `false`: first arrival, appended to the checkpoint.
        /// `true`: the unit was already ingested (an earlier attempt
        /// won); the record was discarded.
        duplicate: bool,
    },
    /// A lease was given up on (deadline passed, worker lost, or
    /// abort); its un-ingested units were requeued.
    Expire {
        /// The expired lease.
        lease: u64,
        /// Why ("deadline", "worker-lost", "abort").
        reason: String,
    },
}

/// Journal I/O or validation failure.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read or written, or a fully-written line
    /// does not parse.
    Log(LogError),
    /// The journal belongs to a differently-configured sweep.
    FingerprintMismatch {
        /// Fingerprint of the resuming run.
        expected: String,
        /// Fingerprint in the journal header.
        found: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Log(e) => write!(f, "journal {e}"),
            Self::FingerprintMismatch { expected, found } => write!(
                f,
                "journal fingerprint {found} does not match this sweep ({expected})"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<LogError> for JournalError {
    fn from(e: LogError) -> Self {
        Self::Log(e)
    }
}

/// The journal's [`jsonl`] format: the sweep fingerprint, then one
/// [`JournalEvent`] per line.
#[derive(Debug)]
struct JournalFormat;

impl Format for JournalFormat {
    type Header = String;
    type Record = JournalEvent;
    type Error = JournalError;

    fn header_to_json(fingerprint: &String) -> Json {
        Json::obj([
            ("journal", Json::str(JOURNAL_FORMAT)),
            ("fingerprint", Json::str(fingerprint.clone())),
        ])
    }

    fn header_from_json(doc: &Json) -> Result<String, String> {
        if doc.get("journal").and_then(Json::as_str) != Some(JOURNAL_FORMAT) {
            return Err(format!("header is not a {JOURNAL_FORMAT} header"));
        }
        doc.get("fingerprint")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "header missing 'fingerprint'".to_string())
    }

    fn record_to_json(ev: &JournalEvent) -> Json {
        match ev {
            JournalEvent::Grant {
                lease,
                attempt,
                worker,
                keys,
            } => Json::obj([
                ("ev", Json::str("grant")),
                ("lease", Json::num(*lease as f64)),
                ("attempt", Json::num(*attempt as f64)),
                ("worker", Json::str(worker.clone())),
                ("keys", Json::arr(keys.iter().map(|k| Json::str(k.clone())))),
            ]),
            JournalEvent::Ingest {
                lease,
                attempt,
                key,
                duplicate,
            } => Json::obj([
                ("ev", Json::str("ingest")),
                ("lease", Json::num(*lease as f64)),
                ("attempt", Json::num(*attempt as f64)),
                ("key", Json::str(key.clone())),
                ("duplicate", Json::Bool(*duplicate)),
            ]),
            JournalEvent::Expire { lease, reason } => Json::obj([
                ("ev", Json::str("expire")),
                ("lease", Json::num(*lease as f64)),
                ("reason", Json::str(reason.clone())),
            ]),
        }
    }

    fn record_from_json(doc: &Json) -> Result<JournalEvent, String> {
        let ev = doc.get("ev").and_then(Json::as_str).ok_or("missing 'ev'")?;
        let text = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing '{key}'"))
        };
        Ok(match ev {
            "grant" => JournalEvent::Grant {
                lease: uint(doc, "lease")?,
                attempt: uint(doc, "attempt")?,
                worker: text("worker")?,
                keys: doc
                    .get("keys")
                    .and_then(Json::as_array)
                    .ok_or("missing 'keys'")?
                    .iter()
                    .map(|k| k.as_str().map(str::to_string).ok_or("bad key".to_string()))
                    .collect::<Result<_, _>>()?,
            },
            "ingest" => JournalEvent::Ingest {
                lease: uint(doc, "lease")?,
                attempt: uint(doc, "attempt")?,
                key: text("key")?,
                duplicate: doc
                    .get("duplicate")
                    .and_then(Json::as_bool)
                    .ok_or("missing 'duplicate'")?,
            },
            "expire" => JournalEvent::Expire {
                lease: uint(doc, "lease")?,
                reason: text("reason")?,
            },
            other => return Err(format!("unknown event '{other}'")),
        })
    }

    fn check(expected: &String, found: String) -> Result<(), JournalError> {
        if found != *expected {
            return Err(JournalError::FingerprintMismatch {
                expected: expected.clone(),
                found,
            });
        }
        Ok(())
    }
}

/// The coordinator state a journal replay restores.
#[derive(Debug, Clone, Default)]
pub struct JournalState {
    /// Highest attempt granted so far, per `unit_key` — a resumed
    /// coordinator keeps attempt numbers strictly increasing.
    pub attempts: HashMap<String, u32>,
    /// The attempt whose record was accepted, per ingested `unit_key`.
    pub ingested: HashMap<String, u32>,
    /// Ingests that were discarded as duplicates.
    pub duplicates: usize,
    /// Highest lease id seen, so new leases stay unique after resume.
    pub max_lease: u64,
}

impl JournalState {
    /// Folds one event into the state (also used during replay).
    pub fn apply(&mut self, ev: &JournalEvent) {
        match ev {
            JournalEvent::Grant {
                lease,
                attempt,
                keys,
                ..
            } => {
                self.max_lease = self.max_lease.max(*lease);
                for k in keys {
                    let a = self.attempts.entry(k.clone()).or_insert(0);
                    *a = (*a).max(*attempt);
                }
            }
            JournalEvent::Ingest {
                attempt,
                key,
                duplicate,
                ..
            } => {
                if *duplicate {
                    self.duplicates += 1;
                } else {
                    self.ingested.insert(key.clone(), *attempt);
                }
            }
            JournalEvent::Expire { lease, .. } => {
                self.max_lease = self.max_lease.max(*lease);
            }
        }
    }

    /// The state `events` leave, in order.
    fn replay(events: &[JournalEvent]) -> Self {
        let mut state = Self::default();
        events.iter().for_each(|ev| state.apply(ev));
        state
    }
}

/// Parses a journal file: the header fingerprint, the replayed state,
/// and the raw event list (for audits). A partial trailing line — an
/// append interrupted by a crash — is dropped; any other malformed
/// line is an error.
pub fn load_journal(
    path: &Path,
) -> Result<(String, JournalState, Vec<JournalEvent>), JournalError> {
    let log = jsonl::load::<JournalFormat>(path)?;
    Ok((log.header, JournalState::replay(&log.records), log.records))
}

/// Appends lease events durably, one line per event.
#[derive(Debug)]
pub struct LeaseJournal(Writer<JournalFormat>);

impl LeaseJournal {
    /// Creates (or truncates) the journal with a fresh header.
    pub fn create(path: &Path, fingerprint: &str) -> Result<Self, JournalError> {
        Writer::create(path, &fingerprint.to_string()).map(Self)
    }

    /// Reopens an interrupted journal: validates the fingerprint,
    /// rewrites the valid prefix via a temp-file rename (dropping a
    /// torn trailing line), and returns the writer plus the replayed
    /// state.
    pub fn resume(path: &Path, fingerprint: &str) -> Result<(Self, JournalState), JournalError> {
        let (writer, events) = Writer::resume(path, &fingerprint.to_string())?;
        Ok((Self(writer), JournalState::replay(&events)))
    }

    /// With `resume` and a journal at `path`, [`LeaseJournal::resume`];
    /// otherwise creates `path`'s directory and a fresh journal.
    pub fn open(
        path: &Path,
        fingerprint: &str,
        resume: bool,
    ) -> Result<(Self, JournalState), JournalError> {
        let (writer, events) = Writer::open(path, &fingerprint.to_string(), resume)?;
        Ok((Self(writer), JournalState::replay(&events)))
    }

    /// Appends one event as a single atomic line write.
    pub fn record(&mut self, ev: &JournalEvent) -> Result<(), JournalError> {
        self.0.append(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("reds-journal-test-{}-{name}", std::process::id()))
    }

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Grant {
                lease: 1,
                attempt: 1,
                worker: "127.0.0.1:9".to_string(),
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
            JournalEvent::Grant {
                lease: 2,
                attempt: 2,
                worker: "127.0.0.1:10".to_string(),
                keys: vec!["fp/P/1".to_string()],
            },
            JournalEvent::Ingest {
                lease: 2,
                attempt: 2,
                key: "fp/P/1".to_string(),
                duplicate: false,
            },
            JournalEvent::Ingest {
                lease: 1,
                attempt: 1,
                key: "fp/P/1".to_string(),
                duplicate: true,
            },
        ]
    }

    #[test]
    fn journal_round_trips_and_replays_state() {
        let path = tmp_path("roundtrip.jsonl");
        let mut j = LeaseJournal::create(&path, "cafe").expect("create");
        for ev in sample_events() {
            j.record(&ev).expect("record");
        }
        drop(j);
        let (fp, state, events) = load_journal(&path).expect("load");
        assert_eq!(fp, "cafe");
        assert_eq!(events, sample_events());
        assert_eq!(state.max_lease, 2);
        assert_eq!(state.attempts.get("fp/P/0"), Some(&1));
        assert_eq!(state.attempts.get("fp/P/1"), Some(&2));
        assert_eq!(state.ingested.get("fp/P/0"), Some(&1));
        assert_eq!(state.ingested.get("fp/P/1"), Some(&2));
        assert_eq!(state.duplicates, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_resume_rewrites_it() {
        let path = tmp_path("torn.jsonl");
        let mut j = LeaseJournal::create(&path, "cafe").expect("create");
        j.record(&sample_events()[0]).expect("record");
        drop(j);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"ev\":\"ingest\",\"lease\":1,");
        std::fs::write(&path, &text).unwrap();

        let (_, state, events) = load_journal(&path).expect("tolerates the tail");
        assert_eq!(events.len(), 1);
        assert_eq!(state.duplicates, 0);

        let (mut j, state) = LeaseJournal::resume(&path, "cafe").expect("resume");
        assert_eq!(state.max_lease, 1);
        j.record(&sample_events()[1]).expect("append after resume");
        drop(j);
        let (_, _, events) = load_journal(&path).expect("reload");
        assert_eq!(events.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_foreign_fingerprint_and_corrupt_interiors() {
        let path = tmp_path("foreign.jsonl");
        LeaseJournal::create(&path, "cafe").expect("create");
        assert!(matches!(
            LeaseJournal::resume(&path, "beef"),
            Err(JournalError::FingerprintMismatch { .. })
        ));
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not json\n{\"ev\":\"expire\",\"lease\":1,\"reason\":\"x\"}\n");
        std::fs::write(&path, &text).unwrap();
        assert!(matches!(
            load_journal(&path),
            Err(JournalError::Log(LogError::Corrupt { line: 2, .. }))
        ));
        std::fs::remove_file(&path).ok();
    }
}
