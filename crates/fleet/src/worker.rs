//! The fleet worker: a [`FrameHandler`] that executes leased
//! [`WorkUnit`]s, served by the `reds_serve` reactor.
//!
//! The handler keeps only the fleet protocol's decode and dispatch: the
//! reactor's front parses each line, reads its id, builds the envelope
//! and turns a panic into an `internal` error carrying the request's
//! id, as it does for the serving handlers.
//!
//! A worker holds at most one lease at a time. `fleet_grant` starts a
//! background execution thread that runs the lease's units **in
//! order**, appending one [`UnitRecord`] per finished unit to an
//! in-memory log; `fleet_poll` serves that log from a caller-supplied
//! cursor, so a coordinator that lost a reply (or reconnected through
//! a flaky link) simply re-polls from its last durable cursor and can
//! never double-ingest. Results are bit-identical to in-process
//! execution because every unit carries its own stable seeds — the
//! worker adds provenance (the lease's attempt number), never payload.
//! [`WorkerHandle::shutdown`] and [`WorkerHandle::join`] cancel the
//! held lease and join every execution thread, so no unit runs once
//! they return.
//!
//! For the fault suite, [`WorkerConfig::die_after_units`] makes the
//! worker deterministically "crash" at a unit boundary: the Nth
//! executed unit's record is discarded (as if the process died before
//! writing it), and the reactor aborts — no further reply, the
//! listener and every connection dropped at once — exactly what a
//! killed process looks like to the coordinator.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use reds_eval::checkpoint::unit_key;
use reds_eval::{Evaluation, UnitRecord, WorkUnit};
use reds_json::Json;
use reds_serve::{serve_handler, ConnGauges, FrameHandler, ServeLimits, ServerHandle};

use crate::protocol::{
    FleetErrorCode, FleetRequest, HelloReply, PollReply, Refusal, MAX_FLEET_FRAME_BYTES,
    PROTO_VERSION,
};

/// Executes one work unit. The fleet crate is deliberately ignorant
/// of *what* a sweep is — the bench layer implements this over its
/// `Sweep`, validating that the unit's derived seeds match the spec
/// the fingerprint names before running it.
pub trait UnitExecutor: Send + Sync + 'static {
    /// Fingerprint of the sweep this executor can serve; the handshake
    /// rejects coordinators running anything else.
    fn fingerprint(&self) -> String;

    /// Runs one unit of the spec with fingerprint `spec` and returns
    /// its evaluation, or a message when the unit is foreign.
    fn execute(&self, spec: &str, unit: &WorkUnit) -> Result<Evaluation, String>;
}

/// Worker tuning and fault hooks.
#[derive(Debug, Clone, Default)]
pub struct WorkerConfig {
    /// Deterministic crash for the fault suite: after executing this
    /// many units (across all leases), discard that unit's record and
    /// die — close the listener and every connection without replies.
    pub die_after_units: Option<usize>,
}

/// One granted lease and its execution progress.
struct LeaseRun {
    id: u64,
    attempt: u32,
    n_units: usize,
    /// Completed records, in unit order; `fleet_poll` serves suffixes.
    records: Arc<Mutex<Vec<UnitRecord>>>,
    /// Set when the lease is aborted or the worker stops; the execution
    /// thread stops at the next unit boundary.
    cancelled: Arc<AtomicBool>,
}

impl LeaseRun {
    fn executed(&self) -> usize {
        self.records.lock().expect("records lock").len()
    }

    fn done(&self) -> bool {
        self.executed() == self.n_units
    }
}

struct WorkerState {
    lease: Option<LeaseRun>,
    /// Every lease aborted here; none of them is granted again.
    aborted: HashSet<u64>,
    /// Execution threads that may still be running a unit.
    threads: Vec<JoinHandle<()>>,
}

/// The deterministic crash the execution thread trips.
struct DeathSwitch {
    died: AtomicBool,
    /// Units left before the configured deterministic death;
    /// `usize::MAX` means never.
    die_countdown: AtomicUsize,
}

/// Worker ids are unique within a process: its pid and a serial.
static NEXT_WORKER: AtomicUsize = AtomicUsize::new(0);

struct Shared<E> {
    executor: Arc<E>,
    worker_id: String,
    state: Mutex<WorkerState>,
    switch: Arc<DeathSwitch>,
}

/// The reactor may run two frames of one connection at once, so a
/// frame can run after the one that followed it on the wire: a frame
/// the network duplicated or delayed does that. Every command is
/// idempotent under the state lock, so a repeat in any order is
/// harmless — hello and poll only read, a repeated abort finds nothing
/// left to abort, a repeated grant of the held lease is acknowledged
/// without a restart, and a poll that overtakes its grant answers
/// `unknown_lease`, which the coordinator takes for a lost lease whose
/// units it requeues (first-wins ingestion keeps the report exact). The
/// one exception is a grant that runs after the abort that followed it:
/// it would restart a lease the coordinator gave up, so the worker
/// remembers every lease it aborted and refuses to grant it again.
impl<E: UnitExecutor> FrameHandler for Shared<E> {
    type Request = FleetRequest;
    type Error = Refusal;

    fn decode(&self, doc: &Json) -> Result<FleetRequest, Refusal> {
        FleetRequest::from_json(doc)
    }

    fn stops(&self, request: &FleetRequest) -> bool {
        matches!(request, FleetRequest::Shutdown { .. })
    }

    fn dispatch(&self, request: FleetRequest) -> Result<Json, Refusal> {
        match request {
            FleetRequest::Hello {
                fingerprint, proto, ..
            } => {
                if proto != PROTO_VERSION {
                    return Err((
                        FleetErrorCode::FingerprintMismatch,
                        format!("worker speaks proto {PROTO_VERSION}, coordinator {proto}"),
                    ));
                }
                let ours = self.executor.fingerprint();
                if fingerprint != ours {
                    return Err((
                        FleetErrorCode::FingerprintMismatch,
                        format!(
                            "worker executes sweep {ours}, coordinator asked for {fingerprint}"
                        ),
                    ));
                }
                let state = self.state.lock().expect("state lock");
                let active_lease = state
                    .lease
                    .as_ref()
                    .map(|run| (run.id, run.attempt, run.done()));
                let reply = HelloReply {
                    worker: self.worker_id.clone(),
                    proto: PROTO_VERSION,
                    active_lease,
                };
                Ok(reply.to_json())
            }
            FleetRequest::Grant {
                lease,
                attempt,
                spec,
                units,
                ..
            } => {
                let granted = |accepted: usize| {
                    Json::obj([
                        ("lease", Json::num(lease as f64)),
                        ("accepted", Json::num(accepted as f64)),
                    ])
                };
                let mut state = self.state.lock().expect("state lock");
                if state.aborted.contains(&lease) {
                    return Err((
                        FleetErrorCode::UnknownLease,
                        format!("lease {lease} was aborted here"),
                    ));
                }
                if let Some(run) = &state.lease {
                    if run.id == lease {
                        // Idempotent re-grant: the first grant's reply
                        // was lost; acknowledge without restarting.
                        return Ok(granted(run.n_units));
                    }
                    if !run.done() && !run.cancelled.load(Ordering::SeqCst) {
                        return Err((
                            FleetErrorCode::Busy,
                            format!("lease {} still executing", run.id),
                        ));
                    }
                }
                let accepted = units.len();
                let run = self.start_lease(&mut state, lease, attempt, spec, units);
                state.lease = Some(run);
                Ok(granted(accepted))
            }
            FleetRequest::Poll { lease, cursor, .. } => {
                let state = self.state.lock().expect("state lock");
                let Some(run) = state.lease.as_ref().filter(|r| r.id == lease) else {
                    return Err((
                        FleetErrorCode::UnknownLease,
                        format!("lease {lease} is not held here"),
                    ));
                };
                let records = run.records.lock().expect("records lock");
                let reply = PollReply {
                    lease,
                    executed: records.len(),
                    done: records.len() == run.n_units,
                    base: cursor,
                    records: records.get(cursor..).unwrap_or(&[]).to_vec(),
                };
                Ok(reply.to_json())
            }
            FleetRequest::Abort { lease, .. } => {
                let mut state = self.state.lock().expect("state lock");
                state.aborted.insert(lease);
                // Idempotent: aborting a lease we no longer hold is
                // exactly what the coordinator wanted.
                let run = state.lease.take_if(|run| run.id == lease);
                if let Some(run) = &run {
                    run.cancelled.store(true, Ordering::SeqCst);
                }
                Ok(Json::obj([
                    ("lease", Json::num(lease as f64)),
                    ("aborted", Json::Bool(run.is_some())),
                ]))
            }
            FleetRequest::Shutdown { .. } => Ok(Json::obj([("shutdown", Json::Bool(true))])),
        }
    }

    fn aborted(&self) -> bool {
        self.switch.died.load(Ordering::SeqCst)
    }
}

impl<E: UnitExecutor> Shared<E> {
    fn new(executor: E, config: &WorkerConfig) -> Self {
        Self {
            executor: Arc::new(executor),
            worker_id: format!(
                "w-{}-{}",
                std::process::id(),
                NEXT_WORKER.fetch_add(1, Ordering::Relaxed)
            ),
            state: Mutex::new(WorkerState {
                lease: None,
                aborted: HashSet::new(),
                threads: Vec::new(),
            }),
            switch: Arc::new(DeathSwitch {
                died: AtomicBool::new(false),
                die_countdown: AtomicUsize::new(config.die_after_units.unwrap_or(usize::MAX)),
            }),
        }
    }

    /// Starts `units` on an execution thread of their own, whose handle
    /// `state` keeps until [`Shared::stop_leases`] joins it.
    fn start_lease(
        &self,
        state: &mut WorkerState,
        lease: u64,
        attempt: u32,
        spec: String,
        units: Vec<WorkUnit>,
    ) -> LeaseRun {
        let records = Arc::new(Mutex::new(Vec::with_capacity(units.len())));
        let cancelled = Arc::new(AtomicBool::new(false));
        let run = LeaseRun {
            id: lease,
            attempt,
            n_units: units.len(),
            records: Arc::clone(&records),
            cancelled: Arc::clone(&cancelled),
        };
        let executor = Arc::clone(&self.executor);
        let switch = Arc::clone(&self.switch);
        let worker_id = self.worker_id.clone();
        // Dropping a finished thread's handle releases it; only a thread
        // that may still run a unit needs the join.
        state.threads.retain(|thread| !thread.is_finished());
        state.threads.push(std::thread::spawn(move || {
            for unit in units {
                if cancelled.load(Ordering::SeqCst) || switch.died.load(Ordering::SeqCst) {
                    return;
                }
                let eval = match executor.execute(&spec, &unit) {
                    Ok(eval) => eval,
                    Err(message) => {
                        // A foreign unit poisons the lease: cancel it so
                        // `done` never comes true and the coordinator's
                        // deadline reassigns the units elsewhere.
                        eprintln!(
                            "worker {worker_id}: unit {} rejected: {message}",
                            unit_key(&spec, &unit)
                        );
                        cancelled.store(true, Ordering::SeqCst);
                        return;
                    }
                };
                // Deterministic crash at a unit boundary: this unit's
                // work happened but its record is never published —
                // the coordinator must reassign and a later attempt's
                // bit-identical record must win.
                let countdown = switch.die_countdown.fetch_sub(1, Ordering::SeqCst);
                if countdown != usize::MAX && countdown <= 1 {
                    switch.died.store(true, Ordering::SeqCst);
                    return;
                }
                records.lock().expect("records lock").push(UnitRecord {
                    spec: spec.clone(),
                    unit,
                    eval,
                    attempt,
                });
            }
        }));
        run
    }

    /// Cancels the held lease and joins every execution thread. Called
    /// once the reactor has stopped, so no grant can start another. The
    /// joins run outside the state lock: nothing that takes the lock may
    /// wait for a unit to finish.
    fn stop_leases(&self) {
        let threads = {
            let mut state = self.state.lock().expect("state lock");
            if let Some(run) = &state.lease {
                run.cancelled.store(true, Ordering::SeqCst);
            }
            std::mem::take(&mut state.threads)
        };
        for thread in threads {
            let _ = thread.join();
        }
    }
}

/// A running worker; keep the handle to control and join it.
pub struct WorkerHandle<E: UnitExecutor> {
    server: ServerHandle,
    shared: Arc<Shared<E>>,
}

impl<E: UnitExecutor> WorkerHandle<E> {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// `true` once the deterministic crash hook has fired.
    pub fn died(&self) -> bool {
        self.shared.aborted()
    }

    /// Stops the worker, letting in-flight requests finish, cancels its
    /// lease and joins its threads: once this returns, no unit runs.
    pub fn shutdown(self) {
        self.server.shutdown();
        self.shared.stop_leases();
    }

    /// Waits for the worker to stop on its own (a coordinator's
    /// `fleet_shutdown`, or the death hook), then cancels its lease and
    /// joins its threads as [`WorkerHandle::shutdown`] does; returns
    /// `true` when the deterministic crash hook is what stopped it.
    pub fn join(self) -> bool {
        self.server.join();
        self.shared.stop_leases();
        self.shared.aborted()
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and serves the fleet protocol
/// with `executor` until shutdown or the configured death.
pub fn serve_worker<E: UnitExecutor>(
    executor: E,
    addr: &str,
    config: WorkerConfig,
) -> std::io::Result<WorkerHandle<E>> {
    let shared = Arc::new(Shared::new(executor, &config));
    // Lease grants carry whole unit batches and polls whole record
    // batches, hence the roomier frame cap.
    let limits = ServeLimits {
        max_frame_bytes: MAX_FLEET_FRAME_BYTES,
        ..ServeLimits::default()
    };
    let gauges = Arc::new(ConnGauges::default());
    let server = serve_handler(Arc::clone(&shared), addr, limits, gauges)?;
    Ok(WorkerHandle { server, shared })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    use reds_eval::checkpoint::record_from_json;
    use reds_serve::Client;

    /// Executes every unit at once with one fixed evaluation.
    struct Stub;

    impl UnitExecutor for Stub {
        fn fingerprint(&self) -> String {
            "stub".to_string()
        }

        fn execute(&self, _spec: &str, unit: &WorkUnit) -> Result<Evaluation, String> {
            let doc = reds_json::from_str(&format!(
                r#"{{"spec":"stub","unit":{},"eval":{{"pr_auc":1,"precision":1,"recall":1,
                "wracc":0,"n_restricted":0,"n_irrel":0,"runtime_ms":0,
                "last_box":{{"bounds":[[null,null]]}}}}}}"#,
                reds_eval::checkpoint::unit_to_json(unit).to_string_compact()
            ))
            .expect("record parses");
            Ok(record_from_json(&doc).expect("record decodes").eval)
        }
    }

    fn unit(rep: usize) -> WorkUnit {
        WorkUnit {
            function: "2".to_string(),
            n: 60,
            method: "P".to_string(),
            method_index: 0,
            rep,
            rep_seed: rep as u64,
            method_seed: 7,
        }
    }

    fn grant(id: u64, lease: u64) -> String {
        FleetRequest::Grant {
            id,
            lease,
            attempt: 1,
            spec: "stub".to_string(),
            units: vec![unit(0), unit(1)],
            deadline_ms: 1_000,
        }
        .to_json()
        .to_string_compact()
    }

    fn connect(addr: SocketAddr) -> Client {
        let mut client = Client::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(5))).unwrap();
        client
    }

    fn error_code(reply: &Json) -> Option<&str> {
        reply.get("error")?.get("code")?.as_str()
    }

    const HELLO: &str = r#"{"id":1,"cmd":"fleet_hello","fingerprint":"stub","proto":1}"#;

    #[test]
    fn death_drops_every_connection_and_the_listener_without_a_reply() {
        let worker = serve_worker(
            Stub,
            "127.0.0.1:0",
            WorkerConfig {
                die_after_units: Some(1),
            },
        )
        .expect("bind");
        let addr = worker.addr();
        let mut before = connect(addr);
        let reply = before.send_raw_line(HELLO).expect("hello answered");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        // The grant's own reply may or may not beat the death.
        let _ = connect(addr).send_raw_line(&grant(1, 1));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !worker.died() {
            assert!(Instant::now() < deadline, "the death hook never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        let poll = r#"{"id":2,"cmd":"fleet_poll","lease":1,"cursor":0}"#;
        let outcome = before.send_raw_line(poll);
        assert!(outcome.is_err(), "a dead worker answered: {outcome:?}");
        assert!(worker.join(), "join reports the death");
        assert!(
            std::net::TcpStream::connect(addr).is_err(),
            "a dead worker still accepts connections"
        );
    }

    #[test]
    fn fleet_shutdown_is_answered_then_the_worker_stops() {
        let worker = serve_worker(Stub, "127.0.0.1:0", WorkerConfig::default()).expect("bind");
        let reply = connect(worker.addr())
            .send_raw_line(r#"{"id":4,"cmd":"fleet_shutdown"}"#)
            .expect("shutdown answered");
        assert_eq!(reply.get("id").and_then(Json::as_f64), Some(4.0));
        assert_eq!(
            reply
                .get("result")
                .and_then(|r| r.get("shutdown"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert!(!worker.join(), "a shutdown is not a death");
    }

    #[test]
    fn a_line_that_is_not_json_is_a_parse_error_and_the_connection_keeps_serving() {
        let worker = serve_worker(Stub, "127.0.0.1:0", WorkerConfig::default()).expect("bind");
        let mut client = connect(worker.addr());
        let reply = client.send_raw_line("{not json").expect("answered");
        assert_eq!(error_code(&reply), Some("parse"));
        assert_eq!(reply.get("id").and_then(Json::as_f64), Some(0.0));
        let reply = client.send_raw_line(HELLO).expect("still serving");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(reply.get("id").and_then(Json::as_f64), Some(1.0));
        worker.shutdown();
    }

    #[test]
    fn worker_replies_go_through_the_front() {
        let worker = Shared::new(Stub, &WorkerConfig::default());
        let (reply, stop) = worker.handle_frame(r#"{"id":9,"cmd":"fleet_poll"}"#);
        assert_eq!(
            reply.to_string_compact(),
            r#"{"id":9,"ok":false,"error":{"code":"bad_request","message":"missing 'lease'"}}"#
        );
        assert!(!stop);
        let (reply, stop) = worker.handle_frame(HELLO);
        assert_eq!(reply.get("id").and_then(Json::as_f64), Some(1.0));
        assert!(!stop, "only a shutdown stops the worker");
        // An id above u32::MAX is answered with 0, as by every handler.
        let (reply, stop) = worker.handle_frame(r#"{"id":4294967296,"cmd":"fleet_shutdown"}"#);
        assert_eq!(
            reply.to_string_compact(),
            r#"{"id":0,"ok":true,"result":{"shutdown":true}}"#
        );
        assert!(stop);
    }

    #[test]
    fn integers_past_their_field_are_refused_not_wrapped() {
        let worker = Shared::new(Stub, &WorkerConfig::default());
        // 2³² + 1 is proto 1 once cast to u32; it must not shake hands.
        let (reply, _) = worker.handle_frame(
            r#"{"id":1,"cmd":"fleet_hello","fingerprint":"stub","proto":4294967297}"#,
        );
        assert_eq!(
            reply.to_string_compact(),
            r#"{"id":1,"ok":false,"error":{"code":"bad_request","message":"bad 'proto': 4294967297"}}"#
        );
        // Nor may a grant's attempt wrap to 1.
        let (reply, _) =
            worker.handle_frame(&grant(2, 1).replace(r#""attempt":1"#, r#""attempt":4294967297"#));
        assert_eq!(error_code(&reply), Some("bad_request"), "{reply:?}");
        // The ids a fleet request carries are the front's: above
        // u32::MAX they read as 0, and the request is still served.
        let (reply, _) = worker.handle_frame(
            r#"{"id":4294967297,"cmd":"fleet_hello","fingerprint":"stub","proto":1}"#,
        );
        assert_eq!(reply.get("id").and_then(Json::as_f64), Some(0.0));
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    }

    /// [`Stub`], one unit at a time, counting the units it executed.
    struct Slow(Arc<AtomicUsize>);

    impl UnitExecutor for Slow {
        fn fingerprint(&self) -> String {
            Stub.fingerprint()
        }

        fn execute(&self, spec: &str, unit: &WorkUnit) -> Result<Evaluation, String> {
            std::thread::sleep(Duration::from_millis(20));
            self.0.fetch_add(1, Ordering::SeqCst);
            Stub.execute(spec, unit)
        }
    }

    #[test]
    fn no_unit_runs_once_shutdown_returns() {
        let executed = Arc::new(AtomicUsize::new(0));
        let worker = serve_worker(
            Slow(Arc::clone(&executed)),
            "127.0.0.1:0",
            WorkerConfig::default(),
        )
        .expect("bind");
        let grant = FleetRequest::Grant {
            id: 1,
            lease: 1,
            attempt: 1,
            spec: "stub".to_string(),
            units: (0..100).map(unit).collect(),
            deadline_ms: 1_000,
        };
        let reply = connect(worker.addr())
            .send_raw_line(&grant.to_json().to_string_compact())
            .expect("granted");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        let deadline = Instant::now() + Duration::from_secs(5);
        while executed.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "no unit ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        worker.shutdown();
        let at_shutdown = executed.load(Ordering::SeqCst);
        assert!(at_shutdown < 100, "the lease ran to its end");
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(
            executed.load(Ordering::SeqCst),
            at_shutdown,
            "a unit ran after shutdown returned"
        );
    }

    #[test]
    fn a_grant_that_runs_after_its_abort_starts_nothing() {
        // The reactor may run a duplicated grant after the abort that
        // followed it on the wire; the aborted lease must stay gone.
        let worker = Shared::new(Stub, &WorkerConfig::default());
        let reply = |line: &str| worker.handle_frame(line).0;
        let granted = reply(&grant(1, 7));
        assert_eq!(granted.get("ok").and_then(Json::as_bool), Some(true));
        let aborted = reply(r#"{"id":2,"cmd":"fleet_abort","lease":7}"#);
        assert_eq!(
            aborted
                .get("result")
                .and_then(|r| r.get("aborted"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(error_code(&reply(&grant(1, 7))), Some("unknown_lease"));
        let poll = reply(r#"{"id":3,"cmd":"fleet_poll","lease":7,"cursor":0}"#);
        assert_eq!(error_code(&poll), Some("unknown_lease"));
        let hello = reply(HELLO);
        let lease = hello.get("result").and_then(|r| r.get("lease"));
        assert!(
            lease.is_some_and(Json::is_null),
            "no lease is held: {hello:?}"
        );
    }
}
