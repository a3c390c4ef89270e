//! The fleet wire protocol: NDJSON frames between a sweep coordinator
//! and its workers.
//!
//! Frames ride the serving layer's reactor and client, and its
//! response envelope (`{"id":…,"ok":…,"result"/"error":…}`, built by
//! the reactor's front, which also reads the id); this module holds
//! only the fleet's command set and its error-code tokens:
//!
//! * `fleet_hello` — handshake: protocol version and sweep fingerprint
//!   must match, and the worker reports its active lease (if any) so a
//!   reconnecting coordinator can resume polling or abort a stray one.
//! * `fleet_grant` — hands the worker a *lease*: a batch of
//!   [`WorkUnit`]s, the attempt number, the owning spec fingerprint,
//!   and the coordinator's deadline. Re-granting the same lease id is
//!   idempotent, so a lost response is safe to retry.
//! * `fleet_poll` — cursor-based fetch of the lease's completed
//!   records. Every poll doubles as a heartbeat (the coordinator
//!   extends the lease deadline on success), and because the cursor
//!   names the resume point, a duplicated or re-sent poll can never
//!   double-deliver a record.
//! * `fleet_abort` — discards a lease the coordinator no longer wants.
//! * `fleet_shutdown` — stops the worker process.
//!
//! Every request carries a client-chosen `id` which the response
//! echoes; a coordinator that re-sends after a timeout skips stale
//! frames (lower ids) until its own answer arrives, which makes the
//! whole protocol safe under dropped, delayed, and duplicated frames.

use reds_eval::checkpoint::{record_from_json, record_to_json, unit_from_json, unit_to_json};
use reds_eval::{UnitRecord, WorkUnit};
use reds_json::Json;
use reds_serve::protocol::small_uint;

/// Version of the fleet protocol; a mismatch fails the handshake.
pub const PROTO_VERSION: u32 = 1;

/// Upper bound on one fleet frame. Lease grants carry whole unit
/// batches and polls whole record batches, so this is roomier than the
/// serving default — but still finite, so a corrupt peer cannot
/// balloon memory.
pub const MAX_FLEET_FRAME_BYTES: usize = 64 << 20;

/// Machine-readable error codes of the fleet protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetErrorCode {
    /// The frame was not valid JSON or not a valid command.
    Parse,
    /// The command was well-formed but semantically invalid.
    BadRequest,
    /// Handshake fingerprint or protocol version does not match.
    FingerprintMismatch,
    /// The worker already runs a different, unfinished lease.
    Busy,
    /// The named lease is not (or no longer) held by the worker.
    UnknownLease,
    /// The worker failed internally (executor error, panic).
    Internal,
}

impl FleetErrorCode {
    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Parse => "parse",
            Self::BadRequest => "bad_request",
            Self::FingerprintMismatch => "fingerprint_mismatch",
            Self::Busy => "busy",
            Self::UnknownLease => "unknown_lease",
            Self::Internal => "internal",
        }
    }

    /// Inverse of [`FleetErrorCode::as_str`].
    pub fn from_wire(token: &str) -> Option<Self> {
        Some(match token {
            "parse" => Self::Parse,
            "bad_request" => Self::BadRequest,
            "fingerprint_mismatch" => Self::FingerprintMismatch,
            "busy" => Self::Busy,
            "unknown_lease" => Self::UnknownLease,
            "internal" => Self::Internal,
            _ => return None,
        })
    }
}

/// The wire token, so a [`Refusal`] is a `reds_serve` wire error.
impl AsRef<str> for FleetErrorCode {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// A refused fleet request: its code and why. The serving front answers
/// it in the error envelope, with the request's id.
pub type Refusal = (FleetErrorCode, String);

/// A parsed coordinator → worker request.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetRequest {
    /// Handshake.
    Hello {
        /// Request id.
        id: u64,
        /// Sweep fingerprint the coordinator executes.
        fingerprint: String,
        /// Coordinator's protocol version.
        proto: u32,
    },
    /// Lease a batch of units to the worker.
    Grant {
        /// Request id.
        id: u64,
        /// Lease id (coordinator-unique, monotonic).
        lease: u64,
        /// Attempt number recorded into every produced record.
        attempt: u32,
        /// Fingerprint of the spec every unit in the batch belongs to.
        spec: String,
        /// The units to execute.
        units: Vec<WorkUnit>,
        /// Coordinator-side lease TTL in milliseconds (informational;
        /// the coordinator enforces it).
        deadline_ms: u64,
    },
    /// Fetch completed records of a lease from `cursor` on.
    Poll {
        /// Request id.
        id: u64,
        /// Lease id.
        lease: u64,
        /// Number of records the coordinator has already ingested.
        cursor: usize,
    },
    /// Discard a lease.
    Abort {
        /// Request id.
        id: u64,
        /// Lease id.
        lease: u64,
    },
    /// Stop the worker process.
    Shutdown {
        /// Request id.
        id: u64,
    },
}

impl FleetRequest {
    /// Wire form of the request.
    pub fn to_json(&self) -> Json {
        match self {
            Self::Hello {
                id,
                fingerprint,
                proto,
            } => Json::obj([
                ("id", Json::num(*id as f64)),
                ("cmd", Json::str("fleet_hello")),
                ("fingerprint", Json::str(fingerprint.clone())),
                ("proto", Json::num(*proto as f64)),
            ]),
            Self::Grant {
                id,
                lease,
                attempt,
                spec,
                units,
                deadline_ms,
            } => Json::obj([
                ("id", Json::num(*id as f64)),
                ("cmd", Json::str("fleet_grant")),
                ("lease", Json::num(*lease as f64)),
                ("attempt", Json::num(*attempt as f64)),
                ("spec", Json::str(spec.clone())),
                ("units", Json::arr(units.iter().map(unit_to_json))),
                ("deadline_ms", Json::num(*deadline_ms as f64)),
            ]),
            Self::Poll { id, lease, cursor } => Json::obj([
                ("id", Json::num(*id as f64)),
                ("cmd", Json::str("fleet_poll")),
                ("lease", Json::num(*lease as f64)),
                ("cursor", Json::num(*cursor as f64)),
            ]),
            Self::Abort { id, lease } => Json::obj([
                ("id", Json::num(*id as f64)),
                ("cmd", Json::str("fleet_abort")),
                ("lease", Json::num(*lease as f64)),
            ]),
            Self::Shutdown { id } => Json::obj([
                ("id", Json::num(*id as f64)),
                ("cmd", Json::str("fleet_shutdown")),
            ]),
        }
    }

    /// Parses a request frame; a failure is the refusal to answer it
    /// with.
    pub fn from_json(doc: &Json) -> Result<Self, Refusal> {
        let id = doc.get("id").and_then(small_uint).unwrap_or(0);
        let bad = |msg: String| (FleetErrorCode::BadRequest, msg);
        let Some(cmd) = doc.get("cmd").and_then(Json::as_str) else {
            return Err((FleetErrorCode::Parse, "missing 'cmd'".to_string()));
        };
        match cmd {
            "fleet_hello" => {
                let fingerprint = doc
                    .get("fingerprint")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("missing 'fingerprint'".to_string()))?
                    .to_string();
                Ok(Self::Hello {
                    id,
                    fingerprint,
                    proto: uint(doc, "proto").map_err(bad)?,
                })
            }
            "fleet_grant" => {
                let spec = doc
                    .get("spec")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("missing 'spec'".to_string()))?
                    .to_string();
                let raw_units = doc
                    .get("units")
                    .and_then(Json::as_array)
                    .ok_or_else(|| bad("missing 'units'".to_string()))?;
                let mut units = Vec::with_capacity(raw_units.len());
                for u in raw_units {
                    units.push(unit_from_json(u).map_err(|e| bad(format!("bad unit: {e}")))?);
                }
                if units.is_empty() {
                    return Err(bad("empty lease".to_string()));
                }
                Ok(Self::Grant {
                    id,
                    lease: uint(doc, "lease").map_err(bad)?,
                    attempt: uint(doc, "attempt").map_err(bad)?,
                    spec,
                    units,
                    deadline_ms: uint(doc, "deadline_ms").map_err(bad)?,
                })
            }
            "fleet_poll" => Ok(Self::Poll {
                id,
                lease: uint(doc, "lease").map_err(bad)?,
                cursor: uint(doc, "cursor").map_err(bad)?,
            }),
            "fleet_abort" => Ok(Self::Abort {
                id,
                lease: uint(doc, "lease").map_err(bad)?,
            }),
            "fleet_shutdown" => Ok(Self::Shutdown { id }),
            other => Err((FleetErrorCode::Parse, format!("unknown command '{other}'"))),
        }
    }
}

/// Field `key` of `doc` as an exact integer ([`Json::as_u64`]) that
/// fits `T`: a value out of `T`'s range is refused, not wrapped.
pub(crate) fn uint<T: TryFrom<u64>>(doc: &Json, key: &str) -> Result<T, String> {
    let v = doc.get(key).ok_or_else(|| format!("missing '{key}'"))?;
    v.as_u64()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("bad '{key}': {v}"))
}

/// The worker's `fleet_hello` result payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloReply {
    /// Stable per-process worker identity.
    pub worker: String,
    /// Worker's protocol version.
    pub proto: u32,
    /// The lease the worker is still holding, if any, with its attempt
    /// and whether execution has finished.
    pub active_lease: Option<(u64, u32, bool)>,
}

impl HelloReply {
    /// Wire form.
    pub fn to_json(&self) -> Json {
        let (lease, attempt, done) = match self.active_lease {
            Some((l, a, d)) => (Json::num(l as f64), Json::num(a as f64), Json::Bool(d)),
            None => (Json::Null, Json::Null, Json::Bool(false)),
        };
        Json::obj([
            ("worker", Json::str(self.worker.clone())),
            ("proto", Json::num(self.proto as f64)),
            ("lease", lease),
            ("attempt", attempt),
            ("done", done),
        ])
    }

    /// Inverse of [`HelloReply::to_json`].
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let worker = doc
            .get("worker")
            .and_then(Json::as_str)
            .ok_or("hello reply missing 'worker'")?
            .to_string();
        let bad = |e: String| format!("hello reply: {e}");
        let proto = uint(doc, "proto").map_err(bad)?;
        let active_lease = match doc.get("lease") {
            None | Some(Json::Null) => None,
            Some(_) => {
                let lease = uint(doc, "lease").map_err(bad)?;
                let attempt = uint(doc, "attempt").map_err(bad)?;
                let done = doc
                    .get("done")
                    .and_then(Json::as_bool)
                    .ok_or("hello reply: bad 'done'")?;
                Some((lease, attempt, done))
            }
        };
        Ok(Self {
            worker,
            proto,
            active_lease,
        })
    }
}

/// The worker's `fleet_poll` result payload.
#[derive(Debug, Clone, PartialEq)]
pub struct PollReply {
    /// The polled lease.
    pub lease: u64,
    /// Units executed so far under this lease.
    pub executed: usize,
    /// `true` once every unit of the lease has a record.
    pub done: bool,
    /// The cursor this batch starts at (echo of the request).
    pub base: usize,
    /// Records from `base` on.
    pub records: Vec<UnitRecord>,
}

impl PollReply {
    /// Wire form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("lease", Json::num(self.lease as f64)),
            ("executed", Json::num(self.executed as f64)),
            ("done", Json::Bool(self.done)),
            ("base", Json::num(self.base as f64)),
            (
                "records",
                Json::arr(self.records.iter().map(record_to_json)),
            ),
        ])
    }

    /// Inverse of [`PollReply::to_json`].
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let bad = |e: String| format!("poll reply: {e}");
        let raw = doc
            .get("records")
            .and_then(Json::as_array)
            .ok_or("poll reply missing 'records'")?;
        let mut records = Vec::with_capacity(raw.len());
        for r in raw {
            records.push(record_from_json(r).map_err(|e| format!("poll reply: bad record: {e}"))?);
        }
        Ok(Self {
            lease: uint(doc, "lease").map_err(bad)?,
            executed: uint(doc, "executed").map_err(bad)?,
            done: doc
                .get("done")
                .and_then(Json::as_bool)
                .ok_or("poll reply missing 'done'")?,
            base: uint(doc, "base").map_err(bad)?,
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(rep: usize) -> WorkUnit {
        WorkUnit {
            function: "2".to_string(),
            n: 100,
            method: "P".to_string(),
            method_index: 0,
            rep,
            rep_seed: u64::MAX - rep as u64,
            method_seed: 77 + rep as u64,
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            FleetRequest::Hello {
                id: 1,
                fingerprint: "cafe".to_string(),
                proto: PROTO_VERSION,
            },
            FleetRequest::Grant {
                id: 2,
                lease: 7,
                attempt: 3,
                spec: "beef".to_string(),
                units: vec![unit(0), unit(1)],
                deadline_ms: 30_000,
            },
            FleetRequest::Poll {
                id: 3,
                lease: 7,
                cursor: 1,
            },
            FleetRequest::Abort { id: 4, lease: 7 },
            FleetRequest::Shutdown { id: 5 },
        ];
        for r in requests {
            let parsed = FleetRequest::from_json(&r.to_json()).expect("parses");
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn bad_requests_are_refused_with_a_code() {
        // The reply's id is the front's; the worker's tests check it.
        let (code, _) = FleetRequest::from_json(
            &reds_json::from_str("{\"id\":9,\"cmd\":\"fleet_poll\"}").unwrap(),
        )
        .unwrap_err();
        assert_eq!(code, FleetErrorCode::BadRequest);
        let (code, _) = FleetRequest::from_json(&reds_json::from_str("{\"cmd\":\"zap\"}").unwrap())
            .unwrap_err();
        assert_eq!(code, FleetErrorCode::Parse);
        // An empty lease is rejected before reaching the worker state.
        let (code, msg) = FleetRequest::from_json(
            &reds_json::from_str(
                "{\"id\":1,\"cmd\":\"fleet_grant\",\"lease\":1,\"attempt\":1,\
                 \"spec\":\"x\",\"units\":[],\"deadline_ms\":5}",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert_eq!(code, FleetErrorCode::BadRequest);
        assert!(msg.contains("empty"), "{msg}");
    }

    #[test]
    fn hello_and_poll_replies_round_trip() {
        for reply in [
            HelloReply {
                worker: "w-1".to_string(),
                proto: 1,
                active_lease: None,
            },
            HelloReply {
                worker: "w-2".to_string(),
                proto: 1,
                active_lease: Some((42, 2, true)),
            },
        ] {
            assert_eq!(HelloReply::from_json(&reply.to_json()).unwrap(), reply);
        }
        let poll = PollReply {
            lease: 42,
            executed: 2,
            done: false,
            base: 1,
            records: Vec::new(),
        };
        assert_eq!(PollReply::from_json(&poll.to_json()).unwrap(), poll);
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            FleetErrorCode::Parse,
            FleetErrorCode::BadRequest,
            FleetErrorCode::FingerprintMismatch,
            FleetErrorCode::Busy,
            FleetErrorCode::UnknownLease,
            FleetErrorCode::Internal,
        ] {
            assert_eq!(FleetErrorCode::from_wire(code.as_str()), Some(code));
        }
        assert_eq!(FleetErrorCode::from_wire("nope"), None);
    }
}
