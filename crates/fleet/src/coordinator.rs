//! The fleet coordinator: leases work to remote workers, ingests
//! results idempotently, and survives every failure the fault harness
//! can throw at it.
//!
//! The coordinator owns the sweep's unit list and two durable files —
//! the PR 2 result checkpoint (shard 0/1) and the lease
//! [`journal`](crate::journal). Its single-threaded round loop:
//!
//! 1. **Connect** — every worker without a link gets a `fleet_hello`
//!    (fingerprint + protocol validated). A reconnecting worker that
//!    still holds a lease this coordinator knows is re-adopted; a
//!    stray lease is aborted.
//! 2. **Poll** — every leased worker is polled from the coordinator's
//!    cursor; each returned record is ingested **first-wins** on its
//!    `unit_key` (a duplicate from a redundant attempt is journaled
//!    and discarded — results are bit-identical across attempts, so
//!    either copy is correct, but only one is ever accepted). A
//!    successful poll is the lease's heartbeat: the deadline extends.
//! 3. **Grant** — idle linked workers receive the next batch of
//!    pending units under a fresh lease id and a bumped attempt.
//! 4. **Reap** — leases past their deadline are journaled `expire`
//!    and their un-ingested units requeued.
//! 5. **Park** — with zero live workers and work outstanding, the
//!    coordinator parks under backoff and keeps retrying; acknowledged
//!    work is already durable, so parking loses nothing. A configured
//!    park budget bounds how long it waits before giving up with an
//!    error (resume later with the same files).
//!
//! Workers are called through [`reds_serve::Client`]: every socket
//! operation, the connect included, runs under the per-request timeout,
//! and a stale reply (a duplicated or late frame) is skipped within it.
//! Failed requests are retried a bounded number of times; a worker
//! that keeps failing is marked down and re-dialed on its own
//! exponential backoff with full jitter. Besides the fleet's own error
//! codes, the reactor a worker runs on may answer `too_large`,
//! `too_busy` or `internal`; each is a failed request like any other. The final merged records are byte-identical to a
//! monolithic run because units are bit-identical regardless of where
//! (or how many times) they execute, and the checkpoint/merge layer
//! already validates fingerprints and completeness.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::path::Path;
use std::time::{Duration, Instant};

use reds_eval::checkpoint::unit_key;
use reds_eval::{CheckpointError, CheckpointHeader, CheckpointWriter, UnitRecord, WorkUnit};
use reds_json::Json;
use reds_serve::{Backoff, Client, ClientError};

use crate::journal::{JournalError, JournalEvent, LeaseJournal};
use crate::protocol::{FleetErrorCode, FleetRequest, HelloReply, PollReply, PROTO_VERSION};

/// Coordinator tuning. The defaults suit integration tests; real
/// sweeps raise the TTLs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker addresses (`host:port`), possibly behind fault proxies.
    pub workers: Vec<String>,
    /// Units per lease.
    pub lease_units: usize,
    /// Lease deadline; every successful poll extends it by this much.
    pub lease_ttl: Duration,
    /// Total patience per socket request before it counts as failed.
    pub io_timeout: Duration,
    /// Pause between coordinator rounds.
    pub poll_interval: Duration,
    /// Bounded retries of one request (reconnect + resend) before the
    /// worker is marked down.
    pub max_request_retries: u32,
    /// First backoff delay ceiling.
    pub backoff_base: Duration,
    /// Backoff ceiling cap.
    pub backoff_cap: Duration,
    /// Consecutive zero-worker parked rounds tolerated before the run
    /// returns [`FleetError::FleetLost`].
    pub max_park_rounds: u32,
    /// Seed of the backoff jitter streams.
    pub seed: u64,
    /// Test hook: stop (as if killed) after this many fresh ingests.
    pub halt_after_ingests: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            workers: Vec::new(),
            lease_units: 4,
            lease_ttl: Duration::from_secs(30),
            io_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(25),
            max_request_retries: 4,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(500),
            max_park_rounds: 40,
            seed: 0,
            halt_after_ingests: None,
        }
    }
}

/// What a fleet run produced.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Every ingested record: resumed from the checkpoint plus newly
    /// ingested, exactly one per unit when complete.
    pub records: Vec<UnitRecord>,
    /// Fresh (non-duplicate) ingests performed by this invocation.
    pub ingested: usize,
    /// Records discarded as duplicates of an earlier attempt.
    pub duplicates: usize,
    /// Leases given up on (deadline, worker lost, abort).
    pub expired_leases: usize,
    /// Rounds spent parked with zero live workers.
    pub parked_rounds: u32,
    /// `true` when the run stopped early via `halt_after_ingests`
    /// (simulated coordinator crash) — resume with the same files.
    pub halted: bool,
}

/// A fleet run failure.
#[derive(Debug)]
pub enum FleetError {
    /// Checkpoint I/O or validation failed.
    Checkpoint(CheckpointError),
    /// Journal I/O or validation failed.
    Journal(JournalError),
    /// Every worker stayed unreachable past the park budget.
    FleetLost {
        /// Units still without an ingested record.
        pending: usize,
    },
    /// The configuration is unusable.
    Config(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Checkpoint(e) => write!(f, "fleet checkpoint error: {e}"),
            Self::Journal(e) => write!(f, "fleet journal error: {e}"),
            Self::FleetLost { pending } => write!(
                f,
                "no worker reachable within the park budget; {pending} unit(s) pending \
                 (acknowledged work is checkpointed — restart workers and resume)"
            ),
            Self::Config(m) => write!(f, "fleet configuration error: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<CheckpointError> for FleetError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

impl From<JournalError> for FleetError {
    fn from(e: JournalError) -> Self {
        Self::Journal(e)
    }
}

/// Sends one fleet request, built for the client's next id.
fn call(
    client: &mut Client,
    request: impl FnOnce(u64) -> FleetRequest,
) -> Result<Json, ClientError> {
    let id = client.fresh_id();
    client.call_frame(&request(id).to_json())
}

/// The fleet code a worker refused a request with; `None` for any
/// other failure.
fn refusal(e: &ClientError) -> Option<FleetErrorCode> {
    match e {
        ClientError::Server { code, .. } => FleetErrorCode::from_wire(code),
        _ => None,
    }
}

/// Connects to a worker and shakes hands: the connection to keep, and
/// the worker's reply.
fn hello(
    addr: &str,
    fingerprint: &str,
    io_timeout: Duration,
) -> Result<(Client, HelloReply), ClientError> {
    let mut client = Client::connect_timeout(addr, io_timeout)?;
    let result = call(&mut client, |id| FleetRequest::Hello {
        id,
        fingerprint: fingerprint.to_string(),
        proto: PROTO_VERSION,
    })?;
    let reply = HelloReply::from_json(&result).map_err(ClientError::Protocol)?;
    Ok((client, reply))
}

/// A lease the coordinator is tracking.
struct Lease {
    unit_idxs: Vec<usize>,
    deadline: Instant,
    cursor: usize,
    worker: usize,
}

/// Per-worker slot state.
struct Slot {
    addr: String,
    link: Option<Client>,
    lease: Option<u64>,
    backoff: Backoff,
    /// Do not try to reconnect before this instant.
    retry_at: Instant,
    /// Request failures since the last success (bounds per-request
    /// retry before the worker is marked down).
    failures: u32,
}

/// Runs the sweep's `units` over the configured fleet. `units` pairs
/// each [`WorkUnit`] with its spec fingerprint; `fingerprint` is the
/// sweep-level digest both files are keyed on. With `resume`, the
/// checkpoint and journal at the given paths are reloaded and the run
/// continues where the previous coordinator stopped.
pub fn run_fleet(
    fingerprint: &str,
    units: &[(String, WorkUnit)],
    checkpoint_path: &Path,
    journal_path: &Path,
    resume: bool,
    config: &FleetConfig,
) -> Result<FleetOutcome, FleetError> {
    if config.workers.is_empty() {
        return Err(FleetError::Config("no workers configured".to_string()));
    }
    if config.lease_units == 0 {
        return Err(FleetError::Config(
            "lease_units must be positive".to_string(),
        ));
    }

    // --- durable state -------------------------------------------------
    let header = CheckpointHeader::new(fingerprint, 0, 1);
    let (mut writer, done_records) = CheckpointWriter::open(checkpoint_path, &header, resume)?;
    let (mut journal, journal_state) = LeaseJournal::open(journal_path, fingerprint, resume)?;

    let keys: Vec<String> = units.iter().map(|(fp, u)| unit_key(fp, u)).collect();
    let mut ingested_keys: HashSet<String> = done_records
        .iter()
        .map(|r| unit_key(&r.spec, &r.unit))
        .collect();
    let mut attempts: HashMap<String, u32> = journal_state.attempts;
    let mut next_lease: u64 = journal_state.max_lease + 1;

    let mut records = done_records;
    let mut pending: VecDeque<usize> = (0..units.len())
        .filter(|&i| !ingested_keys.contains(&keys[i]))
        .collect();

    // --- volatile state ------------------------------------------------
    let now = Instant::now();
    let mut slots: Vec<Slot> = config
        .workers
        .iter()
        .enumerate()
        .map(|(i, addr)| Slot {
            addr: addr.clone(),
            link: None,
            lease: None,
            backoff: Backoff::new(
                config.backoff_base,
                config.backoff_cap,
                // Distinct jitter stream per worker, derived from the
                // run seed so a replay is exact.
                config
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64),
            ),
            retry_at: now,
            failures: 0,
        })
        .collect();
    let mut leases: HashMap<u64, Lease> = HashMap::new();
    let mut park_backoff = Backoff::new(
        config.backoff_base,
        config.backoff_cap,
        config.seed ^ 0x5bd1_e995,
    );

    let mut outcome = FleetOutcome {
        records: Vec::new(),
        ingested: 0,
        duplicates: journal_state.duplicates,
        expired_leases: 0,
        parked_rounds: 0,
        halted: false,
    };

    // One place to give up on a lease: journal it, requeue what the
    // checkpoint does not already hold, free the slot.
    #[allow(clippy::too_many_arguments)] // plain borrows of the round loop's state
    fn expire_lease(
        lease_id: u64,
        reason: &str,
        leases: &mut HashMap<u64, Lease>,
        slots: &mut [Slot],
        pending: &mut VecDeque<usize>,
        ingested_keys: &HashSet<String>,
        keys: &[String],
        journal: &mut LeaseJournal,
        expired: &mut usize,
    ) -> Result<(), FleetError> {
        let Some(lease) = leases.remove(&lease_id) else {
            return Ok(());
        };
        journal.record(&JournalEvent::Expire {
            lease: lease_id,
            reason: reason.to_string(),
        })?;
        *expired += 1;
        for idx in lease.unit_idxs {
            if !ingested_keys.contains(&keys[idx]) {
                pending.push_back(idx);
            }
        }
        if let Some(slot) = slots.get_mut(lease.worker) {
            if slot.lease == Some(lease_id) {
                slot.lease = None;
            }
        }
        Ok(())
    }

    let total = units.len();
    let mut consecutive_parked = 0u32;
    loop {
        // Complete?
        if ingested_keys.len() == total {
            break;
        }
        if let Some(halt) = config.halt_after_ingests {
            if outcome.ingested >= halt {
                outcome.halted = true;
                eprintln!("coordinator: halting after {halt} ingest(s) (test hook)");
                break;
            }
        }

        let round_start = Instant::now();

        // ---- reap expired leases -------------------------------------
        let expired_now: Vec<u64> = leases
            .iter()
            .filter(|(_, l)| round_start >= l.deadline)
            .map(|(&id, _)| id)
            .collect();
        for lease_id in expired_now {
            eprintln!("coordinator: lease {lease_id} passed its deadline — reassigning");
            expire_lease(
                lease_id,
                "deadline",
                &mut leases,
                &mut slots,
                &mut pending,
                &ingested_keys,
                &keys,
                &mut journal,
                &mut outcome.expired_leases,
            )?;
        }

        // ---- drive every slot ----------------------------------------
        let mut live = 0usize;
        for si in 0..slots.len() {
            // (Re)connect + handshake.
            if slots[si].link.is_none() {
                if Instant::now() < slots[si].retry_at {
                    continue;
                }
                match hello(&slots[si].addr, fingerprint, config.io_timeout) {
                    Ok((mut client, reply)) => {
                        // Adopt or abort whatever lease the worker
                        // still holds.
                        match reply.active_lease {
                            Some((lease_id, _, _))
                                if leases.get(&lease_id).is_some_and(|l| l.worker == si) =>
                            {
                                slots[si].lease = Some(lease_id);
                            }
                            Some((lease_id, _, _)) => {
                                let _ = call(&mut client, |id| FleetRequest::Abort {
                                    id,
                                    lease: lease_id,
                                });
                            }
                            None => {}
                        }
                        slots[si].link = Some(client);
                        slots[si].backoff.reset();
                        slots[si].failures = 0;
                    }
                    Err(e) if refusal(&e) == Some(FleetErrorCode::FingerprintMismatch) => {
                        // Persistent config error — never retry into a
                        // wrong-sweep worker.
                        return Err(FleetError::Config(format!(
                            "worker {}: {e}",
                            slots[si].addr
                        )));
                    }
                    Err(e) => {
                        let delay = slots[si].backoff.next_delay();
                        slots[si].retry_at = Instant::now() + delay;
                        eprintln!(
                            "coordinator: worker {} unreachable ({e}); retry in {delay:?}",
                            slots[si].addr
                        );
                        continue;
                    }
                }
            }
            live += 1;

            // Poll the active lease.
            if let Some(lease_id) = slots[si].lease {
                let cursor = leases.get(&lease_id).map(|l| l.cursor).unwrap_or(0);
                let link = slots[si].link.as_mut().expect("linked");
                let poll = call(link, |id| FleetRequest::Poll {
                    id,
                    lease: lease_id,
                    cursor,
                });
                match poll {
                    Ok(result) => match PollReply::from_json(&result) {
                        Ok(reply) => {
                            slots[si].failures = 0;
                            let lease = leases.get_mut(&lease_id).expect("tracked lease");
                            // Heartbeat: a live worker extends its lease.
                            lease.deadline = Instant::now() + config.lease_ttl;
                            // The reply's base echoes our cursor; records
                            // are the suffix from there.
                            for record in reply.records {
                                let key = unit_key(&record.spec, &record.unit);
                                let duplicate = ingested_keys.contains(&key);
                                journal.record(&JournalEvent::Ingest {
                                    lease: lease_id,
                                    attempt: record.attempt,
                                    key: key.clone(),
                                    duplicate,
                                })?;
                                if duplicate {
                                    outcome.duplicates += 1;
                                } else {
                                    writer.append(&record)?;
                                    ingested_keys.insert(key);
                                    records.push(record);
                                    outcome.ingested += 1;
                                }
                                lease.cursor += 1;
                            }
                            if reply.done && lease.cursor >= reply.executed {
                                leases.remove(&lease_id);
                                slots[si].lease = None;
                            }
                        }
                        Err(m) => {
                            eprintln!("coordinator: bad poll reply from {} ({m})", slots[si].addr);
                            slots[si].failures += 1;
                        }
                    },
                    Err(e) if refusal(&e) == Some(FleetErrorCode::UnknownLease) => {
                        // The worker restarted (or aborted us): the lease
                        // is gone there, so give it up here and requeue.
                        expire_lease(
                            lease_id,
                            "worker-lost",
                            &mut leases,
                            &mut slots,
                            &mut pending,
                            &ingested_keys,
                            &keys,
                            &mut journal,
                            &mut outcome.expired_leases,
                        )?;
                    }
                    Err(e) => {
                        slots[si].failures += 1;
                        if slots[si].failures > config.max_request_retries {
                            // Worker down: drop the link; its lease stays
                            // until the deadline (it may come back).
                            slots[si].link = None;
                            let delay = slots[si].backoff.next_delay();
                            slots[si].retry_at = Instant::now() + delay;
                            slots[si].failures = 0;
                            live -= 1;
                            eprintln!(
                                "coordinator: worker {} not answering ({e}); backing off {delay:?}",
                                slots[si].addr
                            );
                        }
                    }
                }
                continue;
            }

            // Idle + linked: grant the next batch.
            if pending.is_empty() {
                continue;
            }
            let mut unit_idxs: Vec<usize> = Vec::with_capacity(config.lease_units);
            while unit_idxs.len() < config.lease_units {
                let Some(idx) = pending.front().copied() else {
                    break;
                };
                // Lease batches never span specs: worker execution
                // groups per spec, and single-spec leases keep the
                // protocol simple.
                if let Some(&first) = unit_idxs.first() {
                    if units[idx].0 != units[first].0 {
                        break;
                    }
                }
                pending.pop_front();
                unit_idxs.push(idx);
            }
            if unit_idxs.is_empty() {
                continue;
            }
            let attempt = 1 + unit_idxs
                .iter()
                .map(|&i| attempts.get(&keys[i]).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            let lease_id = next_lease;
            next_lease += 1;
            let lease_keys: Vec<String> = unit_idxs.iter().map(|&i| keys[i].clone()).collect();
            journal.record(&JournalEvent::Grant {
                lease: lease_id,
                attempt,
                worker: slots[si].addr.clone(),
                keys: lease_keys.clone(),
            })?;
            for k in &lease_keys {
                attempts.insert(k.clone(), attempt);
            }
            let link = slots[si].link.as_mut().expect("linked");
            let grant = call(link, |id| FleetRequest::Grant {
                id,
                lease: lease_id,
                attempt,
                spec: units[unit_idxs[0]].0.clone(),
                units: unit_idxs.iter().map(|&i| units[i].1.clone()).collect(),
                deadline_ms: config.lease_ttl.as_millis() as u64,
            });
            // Track the lease even when the grant failed: the worker may
            // have taken it (e.g. only the reply was dropped). If it did,
            // the next hello or poll adopts it; if not, the deadline
            // expires it and the units requeue.
            leases.insert(
                lease_id,
                Lease {
                    unit_idxs,
                    deadline: Instant::now() + config.lease_ttl,
                    cursor: 0,
                    worker: si,
                },
            );
            slots[si].lease = Some(lease_id);
            match grant {
                Ok(_) => {}
                Err(e) if refusal(&e) == Some(FleetErrorCode::Busy) => {
                    // Our bookkeeping said idle but the worker holds
                    // another lease (e.g. adopt raced): expire ours
                    // immediately so the units requeue.
                    eprintln!("coordinator: {} busy ({e})", slots[si].addr);
                    expire_lease(
                        lease_id,
                        "abort",
                        &mut leases,
                        &mut slots,
                        &mut pending,
                        &ingested_keys,
                        &keys,
                        &mut journal,
                        &mut outcome.expired_leases,
                    )?;
                }
                Err(_) => slots[si].failures += 1,
            }
        }

        // ---- park when the fleet is gone ------------------------------
        if live == 0 {
            consecutive_parked += 1;
            outcome.parked_rounds += 1;
            if consecutive_parked > config.max_park_rounds {
                return Err(FleetError::FleetLost {
                    pending: total - ingested_keys.len(),
                });
            }
            let delay = park_backoff.next_delay();
            eprintln!(
                "coordinator: zero live workers ({} unit(s) pending) — parked, retrying in {delay:?}",
                total - ingested_keys.len()
            );
            std::thread::sleep(delay);
            continue;
        }
        consecutive_parked = 0;
        park_backoff.reset();
        std::thread::sleep(config.poll_interval);
    }

    // Best-effort cleanup: abort leases that are still out (halted runs
    // resume against workers whose hello reports them anyway).
    for (lease_id, lease) in &leases {
        if let Some(slot) = slots.get_mut(lease.worker) {
            if let Some(link) = slot.link.as_mut() {
                let _ = call(link, |id| FleetRequest::Abort {
                    id,
                    lease: *lease_id,
                });
            }
        }
    }

    outcome.records = records;
    Ok(outcome)
}

/// Sends `fleet_shutdown` to every worker (best effort) — the
/// coordinator binary calls this after a successful sweep when asked
/// to wind the fleet down.
pub fn shutdown_workers(workers: &[String], io_timeout: Duration) {
    for addr in workers {
        if let Ok(mut client) = Client::connect_timeout(addr.as_str(), io_timeout) {
            let _ = call(&mut client, |id| FleetRequest::Shutdown { id });
        }
    }
}
