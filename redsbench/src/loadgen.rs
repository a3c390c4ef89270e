//! The `serve-mixed` workload: artifact preparation and the open-loop
//! load generator.
//!
//! One generator process drives a `reds_serve` process over two
//! connections, one thread each: the first carries the predicts, the
//! second the discovers. The server answers each connection in request
//! order, so a shared connection would make every predict sent behind a
//! discover wait for it; split, a predict waits only where the two
//! compete for the cores. Request `j` of the run is due at
//! `t0 + j / rate`; a thread sends each request when it is due, however
//! many earlier requests are still unanswered, and matches replies
//! first in, first out. Latency is timed from the due time, so a stall
//! is charged to every request it delays, and the generator reports how
//! late it sent.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use reds_json::Json;
use reds_metamodel::{Metamodel, RandomForest, RandomForestParams, SavedModel, Svm, SvmParams};
use reds_serve::{
    run_discover, Algorithm, DiscoverParams, ModelArtifact, Request, ServedModel,
    POOL_DESIGN_UNIFORM,
};
use reds_subgroup::SdResult;

use crate::pipeline::PREDICT_ROWS;
use crate::stats::{median, summary_json, Summary};
use crate::timed::{TimedModel, Trace};
use crate::workload::{design, digest, mix};
use crate::Args;

/// Connections (and generator threads).
pub const CONNECTIONS: usize = 2;

/// Pseudo-labeled points of a served BestInterval discover (the
/// paper's Table 2 default for BI).
pub const DISCOVER_L: usize = 10_000;

/// Distinct predict batches, cycled.
const BATCHES: usize = 16;

/// Distinct discover seeds, cycled.
const DISCOVER_SEEDS: usize = 16;

/// Name of the second, non-default model.
const SVM_MODEL: &str = "svm";

/// How long unanswered requests are awaited after the last send.
const DRAIN: Duration = Duration::from_secs(30);

fn artifact_paths(dir: &Path) -> (PathBuf, PathBuf) {
    (dir.join("forest.redsart"), dir.join("svm.redsart"))
}

/// `prep-serve`: fits the default forest and SVM on the first design
/// and packs them as `.redsart` artifacts in `--dir`.
pub fn prep(args: &Args) -> Result<Json, String> {
    let seed: u64 = args.num("seed")?;
    let dir = PathBuf::from(args.str("dir")?);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let d = design(0);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5f));
    let forest = SavedModel::Forest(RandomForest::fit(
        &d,
        &RandomForestParams::default(),
        &mut rng,
    ));
    let svm = SavedModel::Svm(Svm::fit(&d, &SvmParams::default(), &mut rng));
    let (forest_path, svm_path) = artifact_paths(&dir);
    for (model, path) in [(forest, &forest_path), (svm, &svm_path)] {
        ModelArtifact {
            function: "dsgc".to_string(),
            seed,
            pool_seed: seed,
            pool_design: POOL_DESIGN_UNIFORM.to_string(),
            model: ServedModel::Json(model),
            train: d.clone(),
        }
        .save_art(path)
        .map_err(|e| e.to_string())?;
    }
    Ok(Json::obj([
        ("forest", Json::str(forest_path.display().to_string())),
        ("svm", Json::str(svm_path.display().to_string())),
    ]))
}

/// One planned request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `predict_batch` of batch `batch` on the default model (`svm =
    /// false`) or the SVM.
    Predict {
        /// Index into the batch set.
        batch: usize,
        /// Whether the SVM model answers.
        svm: bool,
    },
    /// A BestInterval `discover` with seed index `seed`.
    Discover {
        /// Index into the discover seed set.
        seed: usize,
    },
}

/// The request mix: every `every`-th request is a discover; of the
/// predicts, two in three go to the default forest and one to the SVM.
/// An even split would put the median predict latency in the gap
/// between the two models' latencies, where it swings with any shift
/// of either; two to one keeps it inside the forest's.
pub fn plan(total: usize, every: usize) -> Vec<Op> {
    let mut predicts = 0;
    (0..total)
        .map(|j| {
            if every > 0 && (j + 1) % every == 0 {
                Op::Discover {
                    seed: (j / every) % DISCOVER_SEEDS,
                }
            } else {
                predicts += 1;
                Op::Predict {
                    batch: (predicts - 1) % BATCHES,
                    svm: (predicts - 1) % 3 == 2,
                }
            }
        })
        .collect()
}

/// Inputs and the in-process answers every reply is checked against.
struct Expected {
    m: usize,
    batches: Vec<Vec<f64>>,
    /// `[batch][model]` prediction bits (model 0 = forest, 1 = SVM).
    predictions: Vec<[Vec<u64>; 2]>,
    discover_params: Vec<DiscoverParams>,
    discover_digests: Vec<u64>,
    /// In-process `run_discover` wall times, ms.
    discover_inproc_ms: Vec<f64>,
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn expected(models: &[ModelArtifact; 2], seed: u64) -> Result<Expected, String> {
    let m = models[0].train.m();
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xba7c));
    let batches: Vec<Vec<f64>> = (0..BATCHES)
        .map(|_| reds_sampling::uniform(PREDICT_ROWS, m, &mut rng))
        .collect();
    let predictions = batches
        .iter()
        .map(|b| {
            [
                bits(&models[0].model.predict_batch(b, m)),
                bits(&models[1].model.predict_batch(b, m)),
            ]
        })
        .collect();
    let discover_params: Vec<DiscoverParams> = (0..DISCOVER_SEEDS as u64)
        .map(|i| DiscoverParams {
            l: DISCOVER_L,
            seed: mix(seed, 0xd15c + i),
            algorithm: Algorithm::BestInterval,
            bnd: 0.5,
        })
        .collect();
    let forest = &models[0];
    let mut discover_digests = Vec::new();
    let mut discover_inproc_ms = Vec::new();
    for params in &discover_params {
        let t0 = Instant::now();
        let result = run_discover(
            |p| Ok(forest.model.predict_batch(&p, m)),
            m,
            &forest.train,
            params,
        )
        .map_err(|e| e.to_string())?;
        discover_inproc_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        discover_digests.push(digest(&result));
    }
    Ok(Expected {
        m,
        batches,
        predictions,
        discover_params,
        discover_digests,
        discover_inproc_ms,
    })
}

/// Request line of `op` with request id `id`.
fn encode(op: Op, id: u64, exp: &Expected) -> String {
    let request = match op {
        Op::Predict { batch, svm } => Request::PredictBatch {
            id,
            points: exp.batches[batch].clone(),
            m: exp.m,
            model: svm.then(|| SVM_MODEL.to_string()),
        },
        Op::Discover { seed } => Request::Discover {
            id,
            params: exp.discover_params[seed].clone(),
            model: None,
        },
    };
    let mut line = request.to_json().to_string_compact();
    line.push('\n');
    line
}

/// Pre-encoded request lines: the generator only swaps in the id, so
/// no encoding happens on the timed path.
struct Lines {
    predicts: Vec<[String; 2]>,
    discovers: Vec<String>,
}

const ID_PREFIX: &str = "{\"id\":0,";

impl Lines {
    fn new(exp: &Expected) -> Self {
        let predicts = (0..BATCHES)
            .map(|batch| [false, true].map(|svm| encode(Op::Predict { batch, svm }, 0, exp)))
            .collect();
        let discovers = (0..DISCOVER_SEEDS)
            .map(|seed| encode(Op::Discover { seed }, 0, exp))
            .collect();
        Self {
            predicts,
            discovers,
        }
    }

    fn line(&self, op: Op, id: u64) -> String {
        let template = match op {
            Op::Predict { batch, svm } => &self.predicts[batch][svm as usize],
            Op::Discover { seed } => &self.discovers[seed],
        };
        let body = template
            .strip_prefix(ID_PREFIX)
            .expect("requests serialize their id first");
        format!("{{\"id\":{id},{body}")
    }
}

/// What became of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Answered correctly after `latency_ms` (from the due time).
    Ok {
        /// Due-time latency.
        latency_ms: f64,
    },
    /// Refused with `too_busy`.
    TooBusy,
    /// Any other error reply, a wrong answer, or no answer.
    Error(String),
}

fn check_reply(doc: &Json, op: Op, exp: &Expected) -> Result<(), String> {
    match doc.get("ok").and_then(Json::as_bool) {
        Some(true) => {}
        Some(false) => {
            let code = doc
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
                .unwrap_or("unknown");
            return Err(code.to_string());
        }
        None => return Err("reply without 'ok'".to_string()),
    }
    let result = doc.get("result").ok_or("reply without 'result'")?;
    let same = match op {
        Op::Predict { batch, svm } => {
            let got: Option<Vec<u64>> = result
                .get("predictions")
                .and_then(Json::as_array)
                .and_then(|a| {
                    a.iter()
                        .map(|v| {
                            reds_metamodel::persist::f64_from_json(v)
                                .ok()
                                .map(f64::to_bits)
                        })
                        .collect()
                });
            got.as_ref() == Some(&exp.predictions[batch][svm as usize])
        }
        Op::Discover { seed } => {
            SdResult::from_json(result).is_some_and(|r| digest(&r) == exp.discover_digests[seed])
        }
    };
    if same {
        Ok(())
    } else {
        Err("mismatch".to_string())
    }
}

/// Per-connection record of one run.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// `(op, outcome)` per request, in reply order.
    pub outcomes: Vec<(Op, Outcome)>,
    /// Send time minus due time of every request, ms.
    pub late_ms: Vec<f64>,
}

/// One generator connection with its outstanding requests.
struct Conn<'a> {
    stream: TcpStream,
    lines: &'a Lines,
    exp: &'a Expected,
    next_id: u64,
    pending: VecDeque<(u64, Op, Instant)>,
    buf: Vec<u8>,
    chunk: Vec<u8>,
    log: ConnLog,
}

impl<'a> Conn<'a> {
    fn open(
        addr: &str,
        lines: &'a Lines,
        exp: &'a Expected,
        first_id: u64,
    ) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Self {
            stream,
            lines,
            exp,
            next_id: first_id,
            pending: VecDeque::new(),
            buf: Vec::new(),
            chunk: vec![0; 1 << 16],
            log: ConnLog::default(),
        })
    }

    /// Sends `op`, recording how late it went out against `due`.
    fn send(&mut self, op: Op, due: Instant) -> Result<(), String> {
        let line = self.lines.line(op, self.next_id);
        let sent = Instant::now();
        self.log
            .late_ms
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        self.pending.push_back((self.next_id, op, due));
        self.next_id += 1;
        Ok(())
    }

    /// Reads and checks replies until `until`, or until no request is
    /// outstanding.
    fn receive_until(&mut self, until: Instant) -> Result<(), String> {
        while !self.pending.is_empty() {
            let wait = until.saturating_duration_since(Instant::now());
            if wait < Duration::from_micros(20) {
                return Ok(());
            }
            self.stream
                .set_read_timeout(Some(wait))
                .map_err(|e| e.to_string())?;
            let n = match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => n,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(e) => return Err(e.to_string()),
            };
            let received = Instant::now();
            self.buf.extend_from_slice(&self.chunk[..n]);
            while let Some(eol) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=eol).collect();
                self.settle(&line, received)?;
            }
        }
        Ok(())
    }

    /// Matches one reply line to the oldest outstanding request.
    fn settle(&mut self, line: &[u8], received: Instant) -> Result<(), String> {
        let (id, op, due) = self
            .pending
            .pop_front()
            .ok_or("reply without an outstanding request")?;
        let doc = reds_json::from_str(String::from_utf8_lossy(line).trim())
            .map_err(|e| format!("unparseable reply: {e}"))?;
        let outcome = if doc.get("id").and_then(Json::as_f64) != Some(id as f64) {
            Outcome::Error(format!("reply out of order (expected id {id})"))
        } else {
            match check_reply(&doc, op, self.exp) {
                Ok(()) => Outcome::Ok {
                    latency_ms: (received - due).as_secs_f64() * 1e3,
                },
                Err(code) if code == "too_busy" => Outcome::TooBusy,
                Err(e) => Outcome::Error(e),
            }
        };
        self.log.outcomes.push((op, outcome));
        Ok(())
    }

    /// Waits for every outstanding reply, up to [`DRAIN`]; what is
    /// still unanswered then counts as failed.
    fn drain(mut self) -> Result<ConnLog, String> {
        self.receive_until(Instant::now() + DRAIN)?;
        for (_, op, _) in self.pending.drain(..) {
            self.log.outcomes.push((
                op,
                Outcome::Error("no reply before the drain deadline".into()),
            ));
        }
        Ok(self.log)
    }
}

/// Drives one connection open-loop through `schedule` (`(due, op)`
/// pairs in due order): each request goes out when due, whatever is
/// still outstanding.
fn open_loop(conn: &mut Conn<'_>, schedule: &[(Instant, Op)]) -> Result<(), String> {
    for &(due, op) in schedule {
        conn.receive_until(due)?;
        let early = due.saturating_duration_since(Instant::now());
        if !early.is_zero() {
            std::thread::sleep(early);
        }
        conn.send(op, due)?;
    }
    Ok(())
}

/// The connection that carries `op`: predicts on the first, discovers
/// on the second.
fn connection_of(op: Op) -> usize {
    matches!(op, Op::Discover { .. }) as usize
}

/// Due times of the requests of a run at `rate` per second, split by
/// connection.
pub fn deal(t0: Instant, ops: &[Op], rate: f64) -> Vec<Vec<(Instant, Op)>> {
    let mut per_conn = vec![Vec::new(); CONNECTIONS];
    for (j, &op) in ops.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(j as f64 / rate);
        per_conn[connection_of(op)].push((due, op));
    }
    per_conn
}

/// Runs `each` on one thread per connection and collects the logs.
fn per_connection(
    addr: &str,
    lines: &Lines,
    exp: &Expected,
    each: impl Fn(usize, &mut Conn<'_>) -> Result<(), String> + Sync,
) -> Result<Vec<ConnLog>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let each = &each;
                s.spawn(move || {
                    let mut conn = Conn::open(addr, lines, exp, 1 + c as u64 * 1_000_000)?;
                    each(c, &mut conn)?;
                    conn.drain()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

/// Closed loop: each connection sends its next request as soon as the
/// previous one is answered. Returns answered requests per second.
fn closed_loop(
    addr: &str,
    lines: &Lines,
    exp: &Expected,
    ops: &[Op],
    seconds: f64,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let logs = per_connection(addr, lines, exp, |c, conn| {
        let mine: Vec<Op> = ops
            .iter()
            .copied()
            .filter(|&op| connection_of(op) == c)
            .collect();
        for &op in mine.iter().cycle() {
            if Instant::now() >= deadline {
                break;
            }
            conn.send(op, Instant::now())?;
            conn.receive_until(Instant::now() + DRAIN)?;
        }
        Ok(())
    })?;
    let answered = logs
        .iter()
        .flat_map(|l| &l.outcomes)
        .filter(|(_, o)| matches!(o, Outcome::Ok { .. }))
        .count();
    Ok(answered as f64 / t0.elapsed().as_secs_f64())
}

/// `loadgen`: loads the served artifacts in process (the reference
/// answers), then drives the server.
pub fn drive(args: &Args) -> Result<Json, String> {
    let addr = args.str("addr")?.to_string();
    let dir = PathBuf::from(args.str("dir")?);
    let seed: u64 = args.num("seed")?;
    let seconds: f64 = args.num("seconds")?;
    let every: usize = args.num("every")?;
    let (forest_path, svm_path) = artifact_paths(&dir);
    let load = |p: &Path| ModelArtifact::load(p).map_err(|e| format!("{}: {e}", p.display()));
    let models = [load(&forest_path)?, load(&svm_path)?];
    let exp = expected(&models, seed)?;
    let lines = Lines::new(&exp);
    if args.flag("closed")? {
        let ops = plan(BATCHES * every.max(1), every);
        let rate = closed_loop(&addr, &lines, &exp, &ops, seconds)?;
        return Ok(Json::obj([("closed_loop_rps", Json::num(rate))]));
    }
    let rate: f64 = args.num("rate")?;
    let ops = plan((rate * seconds).ceil() as usize, every);
    let t0 = Instant::now() + Duration::from_millis(20);
    let per_conn = deal(t0, &ops, rate);
    let logs = per_connection(&addr, &lines, &exp, |c, conn| open_loop(conn, &per_conn[c]))?;
    let wall = t0.elapsed().as_secs_f64();
    let mut predict_ms = Vec::new();
    let mut discover_ms = Vec::new();
    let mut late_ms = Vec::new();
    let (mut too_busy, mut errors) = (0u64, 0u64);
    let mut messages = Vec::new();
    for log in logs {
        late_ms.extend(log.late_ms);
        for (op, outcome) in log.outcomes {
            match outcome {
                Outcome::Ok { latency_ms } => match op {
                    Op::Predict { .. } => predict_ms.push(latency_ms),
                    Op::Discover { .. } => discover_ms.push(latency_ms),
                },
                Outcome::TooBusy => too_busy += 1,
                Outcome::Error(e) => {
                    errors += 1;
                    if messages.len() < 5 {
                        messages.push(Json::str(e));
                    }
                }
            }
        }
    }
    let mut pairs = vec![
        ("attempted", Json::num(ops.len() as f64)),
        ("failed", Json::num((too_busy + errors) as f64)),
        ("errors", Json::arr(messages)),
        ("predict_ms", summary_json(&predict_ms)),
        ("discover_ms", summary_json(&discover_ms)),
        ("late_ms", summary_json(&late_ms)),
        ("sent", Json::num(late_ms.len() as f64)),
        ("too_busy", Json::num(too_busy as f64)),
        ("error_replies", Json::num(errors as f64)),
        ("offered_rps", Json::num(rate)),
        ("achieved_rps", Json::num(ops.len() as f64 / wall)),
    ];
    if args.flag("trace")? {
        pairs.push((
            "layers",
            replay(&models, &exp, &ops, &predict_ms, &discover_ms),
        ));
    }
    Ok(Json::obj(pairs))
}

/// The traced part of `serve-mixed`: the run's predicts replayed in
/// process on the same artifacts, once plain and once through the
/// timing wrapper, to split served latency into kernel time and the
/// serve layer's overhead.
fn replay(
    models: &[ModelArtifact; 2],
    exp: &Expected,
    ops: &[Op],
    served_predict_ms: &[f64],
    served_discover_ms: &[f64],
) -> Json {
    let trace = Trace::shared();
    let m = exp.m;
    let (mut plain_ms, mut timed_ms) = (Vec::new(), Vec::new());
    let time = |f: &dyn Fn() -> Vec<f64>| {
        let t0 = Instant::now();
        std::hint::black_box(f());
        t0.elapsed().as_secs_f64() * 1e3
    };
    for (j, &op) in ops.iter().enumerate() {
        let Op::Predict { batch, svm } = op else {
            continue;
        };
        let model = &models[svm as usize].model;
        let points = &exp.batches[batch];
        let timed = TimedModel {
            inner: Box::new(BorrowedModel(model)),
            trace: trace.clone(),
        };
        let plain = || model.predict_batch(points, m);
        let wrapped = || timed.predict_batch(points, m);
        // Alternate which goes first, so neither always finds the
        // batch warm in cache.
        if j % 2 == 0 {
            plain_ms.push(time(&plain));
            timed_ms.push(time(&wrapped));
        } else {
            timed_ms.push(time(&wrapped));
            plain_ms.push(time(&plain));
        }
    }
    let p50 = |v: &[f64]| Summary::of(v).map_or(0.0, |s| s.p50);
    let inproc_p50 = p50(&plain_ms);
    let discover_inproc = median(&exp.discover_inproc_ms);
    let layers: Vec<(&str, f64)> = vec![
        ("kernels.predict_ms", trace.predict_ns.ms()),
        ("kernels.rows", trace.predict_rows.get() as f64),
        ("kernels.calls", trace.predict_calls.get() as f64),
        (
            "serve.predict_overhead_p50_ms",
            p50(served_predict_ms) - inproc_p50,
        ),
        ("serve.discover_inproc_ms", discover_inproc),
        ("core.other_ms", p50(served_discover_ms) - discover_inproc),
        (
            "trace.overhead_pct",
            if inproc_p50 > 0.0 {
                (p50(&timed_ms) / inproc_p50 - 1.0) * 100.0
            } else {
                0.0
            },
        ),
    ];
    Json::obj(layers.into_iter().map(|(k, v)| (k, Json::num(v))))
}

/// A borrowed served model behind the `Metamodel` trait object the
/// timing wrapper holds.
struct BorrowedModel<'a>(&'a ServedModel);

impl Metamodel for BorrowedModel<'_> {
    fn predict(&self, x: &[f64]) -> f64 {
        self.0.predict(x)
    }

    fn predict_batch(&self, points: &[f64], m: usize) -> Vec<f64> {
        self.0.predict_batch(points, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_mixes_discovers_and_both_models() {
        let ops = plan(12, 4);
        let discovers: Vec<usize> = (0..12)
            .filter(|&j| matches!(ops[j], Op::Discover { .. }))
            .collect();
        assert_eq!(discovers, vec![3, 7, 11]);
        let svm: Vec<bool> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Predict { svm, .. } => Some(*svm),
                _ => None,
            })
            .collect();
        assert_eq!(
            svm,
            vec![false, false, true, false, false, true, false, false, true]
        );
    }

    /// Expected answers for a one-row, one-column toy model.
    fn toy_expected() -> Expected {
        let answer = bits(&[0.25]);
        Expected {
            m: 1,
            batches: vec![vec![0.5]; BATCHES],
            predictions: vec![[answer.clone(), answer]; BATCHES],
            discover_params: vec![DiscoverParams::default(); DISCOVER_SEEDS],
            discover_digests: vec![0; DISCOVER_SEEDS],
            discover_inproc_ms: vec![],
        }
    }

    /// A server that answers every predict with 0.25, holding the
    /// first reply back for `stall`.
    fn stalling_server(stall: Duration, replies: usize) -> (String, std::thread::JoinHandle<()>) {
        use std::io::BufRead;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for i in 0..replies {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let doc = reds_json::from_str(line.trim()).unwrap();
                let id = doc.get("id").and_then(Json::as_f64).unwrap();
                if i == 0 {
                    std::thread::sleep(stall);
                }
                let reply =
                    format!("{{\"id\":{id},\"ok\":true,\"result\":{{\"predictions\":[0.25]}}}}\n");
                writer.write_all(reply.as_bytes()).unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn latency_counts_from_the_due_time_and_lateness_from_the_send() {
        let exp = toy_expected();
        let lines = Lines::new(&exp);
        let stall = Duration::from_millis(120);
        let (addr, server) = stalling_server(stall, 5);
        let mut conn = Conn::open(&addr, &lines, &exp, 1).unwrap();
        // The first request is already 30 ms overdue when the loop
        // starts; the others are due every 10 ms after it.
        let t0 = Instant::now() - Duration::from_millis(30);
        let op = Op::Predict {
            batch: 0,
            svm: false,
        };
        let schedule: Vec<(Instant, Op)> = (0..5)
            .map(|j| (t0 + Duration::from_millis(10 * j), op))
            .collect();
        open_loop(&mut conn, &schedule).unwrap();
        let log = conn.drain().unwrap();
        server.join().unwrap();

        assert_eq!(log.late_ms.len(), 5);
        assert!(log.late_ms[0] >= 30.0, "overdue send: {:?}", log.late_ms);
        assert!(
            log.late_ms[3] < 20.0,
            "sends stay on schedule: {:?}",
            log.late_ms
        );
        let latencies: Vec<f64> = log
            .outcomes
            .iter()
            .map(|(_, o)| match o {
                Outcome::Ok { latency_ms } => *latency_ms,
                other => panic!("unexpected outcome {other:?}"),
            })
            .collect();
        assert_eq!(latencies.len(), 5);
        // Open loop: requests queued behind the stall are charged the
        // wait from their own due time, the overdue first one its
        // lateness as well.
        for (j, lat) in latencies.iter().enumerate() {
            let floor = 30.0 + 120.0 - 10.0 * j as f64;
            assert!(*lat >= floor - 1.0, "request {j}: {lat} ms < {floor} ms");
        }
    }

    #[test]
    fn dealing_spaces_requests_at_the_offered_rate() {
        let t0 = Instant::now();
        let ops = plan(10, 4);
        let per_conn = deal(t0, &ops, 100.0);
        assert_eq!(per_conn.len(), CONNECTIONS);
        assert_eq!(per_conn[0].len(), 8, "predicts share the first connection");
        assert!(per_conn[1]
            .iter()
            .all(|(_, op)| matches!(op, Op::Discover { .. })));
        // Request j is due at j / rate, whichever connection sends it.
        let due = |c: usize, i: usize| (per_conn[c][i].0 - t0).as_secs_f64();
        assert!((due(0, 0) - 0.00).abs() < 1e-9);
        assert!((due(0, 3) - 0.04).abs() < 1e-9);
        assert!((due(1, 0) - 0.03).abs() < 1e-9);
        assert!((due(1, 1) - 0.07).abs() < 1e-9);
    }
}
