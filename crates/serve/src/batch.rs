//! Bounded per-model micro-batching prediction queues.
//!
//! Every model in the registry owns one `BatchQueue`: a bounded job
//! queue drained by a worker thread that concatenates all queued
//! requests' query rows into a single buffer and makes **one**
//! `predict_batch` call — the ensemble models' tree-major kernels then
//! fan the combined batch out across the `reds-par` workers, so `k`
//! concurrent small requests cost one cache-friendly pass over the
//! trees instead of `k`.
//!
//! Two properties the queue guarantees:
//!
//! * **Single-version batches.** The worker pins the model's current
//!   version ([`VersionSlot::pin`]) exactly once per batch, *after*
//!   collecting the batch's jobs. Every answer in a batch therefore
//!   comes from one version, and a hot swap can never produce a
//!   mixed-version batch — there is no second read to race with.
//! * **Explicit backpressure.** The queue is bounded
//!   (`ServeLimits::queue_depth`); when it is full, `predict` fails
//!   immediately with a structured `too_busy` error instead of
//!   queueing unboundedly. Because each model has its own queue, a
//!   saturated model backpressures only its own callers.
//!
//! Correctness does not depend on how requests coalesce: every model's
//! `predict_batch` is row-independent and bit-identical under any
//! chunking, so a request's answers are the same whether it was served
//! alone or inside a batch (the equivalence tests assert this against
//! in-process calls).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

use reds_metamodel::Metamodel;

use crate::protocol::ServeError;
use crate::registry::VersionSlot;

struct Job {
    points: Vec<f64>,
    reply: mpsc::Sender<(u64, Vec<f64>)>,
}

/// Counters the `info` command reports, per model.
#[derive(Debug, Default)]
pub struct BatchStats {
    /// Requests served.
    pub requests: AtomicU64,
    /// Kernel calls made (requests ÷ batches ≥ 1 under concurrency).
    pub batches: AtomicU64,
    /// Largest number of requests coalesced into one kernel call.
    pub max_batched: AtomicU64,
    /// Requests rejected with `too_busy` because the queue was full.
    pub rejected: AtomicU64,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
    stats: BatchStats,
}

/// Handle to one model's bounded micro-batch queue and its worker
/// thread. The worker exits — after draining what is queued — when the
/// queue is closed or the handle is dropped.
pub struct BatchQueue {
    shared: Arc<Shared>,
}

impl BatchQueue {
    /// Spawns the worker for model `name`, predicting with whatever
    /// version `slot` holds at the start of each batch. `capacity`
    /// bounds the number of waiting jobs; requests beyond it are
    /// rejected with `too_busy`.
    pub(crate) fn spawn(name: &str, slot: VersionSlot, m: usize, capacity: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            stats: BatchStats::default(),
        });
        let worker = Arc::clone(&shared);
        let label = format!("reds-batch-{name}");
        std::thread::Builder::new()
            .name(label)
            .spawn(move || worker_loop(&worker, &slot, m))
            .expect("spawn batch worker");
        Self { shared }
    }

    /// Number of jobs waiting right now (excludes the batch the worker
    /// is computing).
    pub fn depth(&self) -> usize {
        self.shared.state.lock().expect("queue poisoned").jobs.len()
    }

    /// The admission cap.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Worker counters.
    pub fn stats(&self) -> &BatchStats {
        &self.shared.stats
    }

    /// Queues `points` (row-major, already validated) and blocks for
    /// `(version, predictions)` — the version being the one the whole
    /// batch was served with.
    pub fn predict(&self, points: Vec<f64>) -> Result<(u64, Vec<f64>), ServeError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        {
            let mut state = self.shared.state.lock().expect("queue poisoned");
            if state.closed {
                return Err(ServeError::internal("prediction worker exited"));
            }
            if state.jobs.len() >= self.shared.capacity {
                self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::too_busy(format!(
                    "prediction queue is at its depth limit of {}; retry later",
                    self.shared.capacity
                )));
            }
            state.jobs.push_back(Job {
                points,
                reply: reply_tx,
            });
        }
        self.shared.ready.notify_one();
        reply_rx
            .recv()
            .map_err(|_| ServeError::internal("prediction worker dropped the request"))
    }

    /// Closes the queue: the worker drains what is already queued,
    /// then exits; subsequent `predict` calls fail with an internal
    /// error.
    pub fn close(&self) {
        self.shared.state.lock().expect("queue poisoned").closed = true;
        self.shared.ready.notify_all();
    }
}

impl Drop for BatchQueue {
    fn drop(&mut self) {
        self.close();
    }
}

fn worker_loop(shared: &Shared, slot: &VersionSlot, m: usize) {
    loop {
        let jobs: Vec<Job> = {
            let mut state = shared.state.lock().expect("queue poisoned");
            while state.jobs.is_empty() && !state.closed {
                state = shared.ready.wait(state).expect("queue poisoned");
            }
            if state.jobs.is_empty() {
                return; // closed and drained
            }
            state.jobs.drain(..).collect()
        };
        shared
            .stats
            .requests
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .stats
            .max_batched
            .fetch_max(jobs.len() as u64, Ordering::Relaxed);
        serve_batch(jobs, slot, m);
    }
}

/// Serves one collected batch: pins the current version (once — this
/// is the no-mixed-versions guarantee), predicts, slices answers back
/// to their requests.
fn serve_batch(mut jobs: Vec<Job>, slot: &VersionSlot, m: usize) {
    let version = slot.pin();
    let rows_per_job: Vec<usize> = jobs.iter().map(|j| j.points.len() / m).collect();
    let combined: Vec<f64> = if jobs.len() == 1 {
        std::mem::take(&mut jobs[0].points)
    } else {
        let total: usize = jobs.iter().map(|j| j.points.len()).sum();
        let mut buf = Vec::with_capacity(total);
        for job in &jobs {
            buf.extend_from_slice(&job.points);
        }
        buf
    };
    let total_rows: usize = rows_per_job.iter().sum();
    // A panic inside the model must not kill the worker — that would
    // brick every future request on a server whose contract is
    // per-request errors. Catch it, drop this batch's reply channels
    // (each waiter gets an `internal` error), and keep serving.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        version.predict_batch(&combined, m)
    }));
    let preds = match outcome {
        Ok(preds) if preds.len() == total_rows => preds,
        // Panic or a short/long prediction vector: drop the replies
        // rather than mis-slice answers.
        _ => return,
    };
    let v = version.version;
    if jobs.len() == 1 {
        let job = jobs.pop().expect("one job");
        let _ = job.reply.send((v, preds));
    } else {
        let mut offset = 0usize;
        for (job, rows) in jobs.into_iter().zip(rows_per_job) {
            let _ = job.reply.send((v, preds[offset..offset + rows].to_vec()));
            offset += rows;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::tiny_artifact;
    use crate::protocol::{ErrorCode, ServeLimits};
    use crate::registry::{ModelEntry, ModelRegistry, ModelVersion};
    use reds_metamodel::Metamodel;
    use std::time::Duration;

    fn entry(limits: &ServeLimits) -> (ModelRegistry, Arc<ModelEntry>) {
        let registry = ModelRegistry::new(tiny_artifact(1), limits);
        let entry = registry.get(None).unwrap();
        (registry, entry)
    }

    #[test]
    fn batched_predictions_match_direct_calls_bitwise() {
        let (_registry, entry) = entry(&ServeLimits::default());
        let model = entry.current();
        let m = entry.m();
        let queries: Vec<Vec<f64>> = (0..16)
            .map(|k| {
                (0..((k % 5) + 1) * m)
                    .map(|i| (i + k) as f64 / 17.0)
                    .collect()
            })
            .collect();
        let mut handles = Vec::new();
        for q in &queries {
            let e = Arc::clone(&entry);
            let q = q.clone();
            handles.push(std::thread::spawn(move || e.predict(q).expect("predicts")));
        }
        for (handle, q) in handles.into_iter().zip(&queries) {
            let (version, got) = handle.join().expect("thread");
            assert_eq!(version, 1, "single-version entry");
            let want = model.artifact.model.predict_batch(q, m);
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let stats = entry.stats();
        assert_eq!(stats.requests.load(Ordering::Relaxed), 16);
        assert!(stats.batches.load(Ordering::Relaxed) <= 16);
    }

    #[test]
    fn empty_request_yields_empty_predictions() {
        let (_registry, entry) = entry(&ServeLimits::default());
        let (version, preds) = entry.predict(Vec::new()).unwrap();
        assert_eq!(version, 1);
        assert_eq!(preds, Vec::<f64>::new());
    }

    #[test]
    fn worker_survives_a_panicking_model() {
        // A panic inside predict must fail only the in-flight request
        // (structured internal error) and leave the worker serving.
        let (_registry, entry) = entry(&ServeLimits::default());
        let shimmed = ModelVersion::with_shim(
            2,
            tiny_artifact(1),
            Box::new(|points, m| {
                assert!(
                    !points.contains(&-1.0),
                    "poison value triggers a model panic"
                );
                Some(vec![0.5; points.len() / m])
            }),
        );
        entry.install_version(Arc::new(shimmed), Duration::from_millis(100));
        let err = entry
            .predict(vec![-1.0; entry.m()])
            .expect_err("poisoned request fails");
        assert_eq!(err.code, ErrorCode::Internal);
        // The next request is served normally.
        let (version, preds) = entry.predict(vec![0.1; entry.m()]).unwrap();
        assert_eq!(version, 2);
        assert_eq!(preds, vec![0.5]);
    }

    #[test]
    fn worker_rejects_a_misbehaving_prediction_length() {
        // A model returning the wrong number of predictions must not
        // mis-slice answers across coalesced requests.
        let (_registry, entry) = entry(&ServeLimits::default());
        let shimmed =
            ModelVersion::with_shim(2, tiny_artifact(1), Box::new(|_, _| Some(vec![0.5; 999])));
        entry.install_version(Arc::new(shimmed), Duration::from_millis(100));
        let err = entry
            .predict(vec![0.1; entry.m()])
            .expect_err("length mismatch");
        assert_eq!(err.code, ErrorCode::Internal);
    }

    #[test]
    fn full_queue_rejects_with_too_busy_and_frees_up() {
        // Block the worker inside a predict, fill the queue behind it,
        // and the next request must bounce with too_busy immediately.
        let limits = ServeLimits {
            queue_depth: 1,
            ..Default::default()
        };
        let (_registry, entry) = entry(&limits);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new((Mutex::new(false), Condvar::new()));
        let shim_gate = Arc::clone(&gate);
        let shim_entered = Arc::clone(&entered);
        let shimmed = ModelVersion::with_shim(
            2,
            tiny_artifact(1),
            Box::new(move |points, m| {
                {
                    let (flag, cv) = &*shim_entered;
                    *flag.lock().unwrap() = true;
                    cv.notify_all();
                }
                let (open, cv) = &*shim_gate;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Some(vec![0.5; points.len() / m])
            }),
        );
        entry.install_version(Arc::new(shimmed), Duration::from_millis(50));
        let m = entry.m();
        // First request: the worker takes it and blocks in the shim.
        let e1 = Arc::clone(&entry);
        let t1 = std::thread::spawn(move || e1.predict(vec![0.1; m]));
        {
            let (flag, cv) = &*entered;
            let mut flag = flag.lock().unwrap();
            while !*flag {
                flag = cv.wait(flag).unwrap();
            }
        }
        // Second request: queued (depth 1).
        let e2 = Arc::clone(&entry);
        let t2 = std::thread::spawn(move || e2.predict(vec![0.2; m]));
        while entry.queue_depth() < 1 {
            std::thread::yield_now();
        }
        // Third request: the queue is full — immediate too_busy.
        let err = entry
            .predict(vec![0.3; m])
            .expect_err("bounded queue rejects");
        assert_eq!(err.code, ErrorCode::TooBusy);
        assert!(err.message.contains("depth limit of 1"), "{}", err.message);
        assert_eq!(entry.stats().rejected.load(Ordering::Relaxed), 1);
        // Release the gate: both queued requests complete normally.
        {
            let (open, cv) = &*gate;
            *open.lock().unwrap() = true;
            cv.notify_all();
        }
        assert_eq!(t1.join().unwrap().unwrap().1, vec![0.5]);
        assert_eq!(t2.join().unwrap().unwrap().1, vec![0.5]);
    }
}
