//! Versioned, hot-swappable model registry.
//!
//! The registry generalizes the server's single `ModelArtifact` into a
//! named collection of independently versioned models. Each model name
//! owns:
//!
//! * a **version slot** — an `Arc<ModelVersion>` behind an `RwLock`.
//!   Requests pin the version they will answer with by cloning the
//!   `Arc`; a swap replaces the slot's `Arc` and the old version stays
//!   alive exactly until the last in-flight request drops its pin.
//!   Drain-before-drop is therefore structural: the `Arc` refcount
//!   *is* the in-flight ledger.
//! * a **bounded micro-batch queue** ([`crate::batch::BatchQueue`]) —
//!   per-model admission control, so one saturated model backpressures
//!   its own callers with `too_busy` instead of starving the rest.
//!
//! A swap is load → flip → drain: the new artifact is fully loaded and
//! validated *before* the slot flips (a bad artifact never interrupts
//! service), the flip is a single pointer store under the write lock
//! (no request ever observes a half-installed model), and the swap
//! call then waits — bounded by `ServeLimits::swap_drain_ms` — for the
//! old version's refcount to hit one so the caller learns whether the
//! previous version was released. Versions are per-model, monotonic,
//! and start at 1.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use reds_json::Json;
use reds_metamodel::Metamodel;

use crate::artifact::ModelArtifact;
use crate::batch::{BatchQueue, BatchStats};
use crate::protocol::{ServeError, ServeLimits};

/// The model name requests without an explicit `"model"` field hit,
/// and the name the `--model` startup artifact is registered under.
pub const DEFAULT_MODEL: &str = "default";

/// Test shim slotted into a [`ModelVersion`]: called before the real
/// model on every batch, it may block (to hold a version in flight),
/// panic (to exercise worker survival), or return `Some(predictions)`
/// to override the model entirely.
#[doc(hidden)]
pub type PredictShim = Box<dyn Fn(&[f64], usize) -> Option<Vec<f64>> + Send + Sync>;

/// One immutable installed version of a model: the artifact plus its
/// per-model version number. Requests hold these via `Arc` for exactly
/// as long as they compute with the model, which is what makes
/// drain-before-drop a refcount property rather than a protocol.
pub struct ModelVersion {
    /// Monotonic per-model version, starting at 1.
    pub version: u64,
    /// The loaded artifact this version serves.
    pub artifact: ModelArtifact,
    shim: Option<PredictShim>,
}

impl ModelVersion {
    /// Wraps a loaded artifact as version `version`.
    pub fn new(version: u64, artifact: ModelArtifact) -> Self {
        Self {
            version,
            artifact,
            shim: None,
        }
    }

    /// A version whose predictions can be intercepted by `shim` —
    /// test instrumentation for blocking/panicking/misbehaving models.
    #[doc(hidden)]
    pub fn with_shim(version: u64, artifact: ModelArtifact, shim: PredictShim) -> Self {
        Self {
            version,
            artifact,
            shim: Some(shim),
        }
    }

    /// Number of input columns this version's model expects.
    pub fn m(&self) -> usize {
        self.artifact.model.m()
    }
}

/// A pinned version is the metamodel a served run predicts with, so
/// one run never mixes versions. The test shim, when set, sees every
/// batch: `hard_labels` then thresholds the shimmed `predict_batch`.
impl Metamodel for ModelVersion {
    fn predict(&self, x: &[f64]) -> f64 {
        self.predict_batch(x, x.len())[0]
    }

    fn predict_batch(&self, points: &[f64], m: usize) -> Vec<f64> {
        if let Some(shim) = &self.shim {
            if let Some(preds) = shim(points, m) {
                return preds;
            }
        }
        self.artifact.model.predict_batch(points, m)
    }

    fn hard_labels(&self, points: &[f64], m: usize, bnd: f64) -> Vec<f64> {
        if self.shim.is_none() {
            return self.artifact.model.hard_labels(points, m, bnd);
        }
        self.predict_batch(points, m)
            .into_iter()
            .map(|p| if p > bnd { 1.0 } else { 0.0 })
            .collect()
    }
}

/// The slot a model's current version lives in, shared between the
/// entry (which swaps it) and the batch worker (which pins it once per
/// batch — the single read that guarantees no mixed-version batches).
#[derive(Clone)]
pub(crate) struct VersionSlot {
    current: Arc<RwLock<Arc<ModelVersion>>>,
}

impl VersionSlot {
    fn new(version: Arc<ModelVersion>) -> Self {
        Self {
            current: Arc::new(RwLock::new(version)),
        }
    }

    pub(crate) fn pin(&self) -> Arc<ModelVersion> {
        Arc::clone(&self.current.read().expect("version slot poisoned"))
    }

    fn replace(&self, next: Arc<ModelVersion>) -> Arc<ModelVersion> {
        let mut slot = self.current.write().expect("version slot poisoned");
        std::mem::replace(&mut *slot, next)
    }
}

/// What a completed swap reports back over the wire.
#[derive(Debug)]
pub struct SwapOutcome {
    /// Name of the swapped model.
    pub model: String,
    /// Version now serving.
    pub version: u64,
    /// Version that was serving before (0 when the swap created the
    /// entry).
    pub previous: u64,
    /// Whether every in-flight request against the old version
    /// finished (releasing the old model) within the drain window.
    pub drained: bool,
    /// How long the drain wait took.
    pub drain_wait: Duration,
    /// Whether this swap created a new registry entry instead of
    /// replacing a version.
    pub created: bool,
}

impl SwapOutcome {
    /// Wire encoding for the `swap` response.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("model", Json::str(&self.model)),
            ("version", Json::num(self.version as f64)),
            ("previous", Json::num(self.previous as f64)),
            ("drained", Json::Bool(self.drained)),
            (
                "drain_wait_ms",
                Json::num(self.drain_wait.as_millis() as f64),
            ),
            ("created", Json::Bool(self.created)),
        ])
    }
}

/// One named model: its version slot, its bounded micro-batch queue,
/// and its counters.
pub struct ModelEntry {
    name: String,
    m: usize,
    slot: VersionSlot,
    queue: BatchQueue,
    next_version: AtomicU64,
    swaps: AtomicU64,
    active_discovers: AtomicUsize,
}

impl ModelEntry {
    fn new(name: &str, artifact: ModelArtifact, queue_depth: usize) -> Self {
        let m = artifact.model.m();
        let slot = VersionSlot::new(Arc::new(ModelVersion::new(1, artifact)));
        let queue = BatchQueue::spawn(name, slot.clone(), m, queue_depth);
        Self {
            name: name.to_string(),
            m,
            slot,
            queue,
            next_version: AtomicU64::new(2),
            swaps: AtomicU64::new(0),
            active_discovers: AtomicUsize::new(0),
        }
    }

    /// The entry's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of input columns every version of this model expects
    /// (fixed per entry so coalesced batches stay well-formed).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Pins the currently serving version.
    pub fn current(&self) -> Arc<ModelVersion> {
        self.slot.pin()
    }

    /// Swaps this entry to `artifact`, then waits up to `drain` for
    /// in-flight requests against the old version to finish.
    pub fn swap(
        &self,
        artifact: ModelArtifact,
        drain: Duration,
    ) -> Result<SwapOutcome, ServeError> {
        if artifact.model.m() != self.m {
            return Err(ServeError::bad_request(format!(
                "swap for model '{}' expects m = {}, artifact has m = {}",
                self.name,
                self.m,
                artifact.model.m()
            )));
        }
        let version = self.next_version.fetch_add(1, Ordering::SeqCst);
        let next = Arc::new(ModelVersion::new(version, artifact));
        Ok(self.install(next, drain))
    }

    /// Installs an already-constructed version (test instrumentation:
    /// lets a shimmed version enter the slot). The version counter is
    /// advanced past `next.version` so monotonicity survives.
    #[doc(hidden)]
    pub fn install_version(&self, next: Arc<ModelVersion>, drain: Duration) -> SwapOutcome {
        self.next_version
            .fetch_max(next.version + 1, Ordering::SeqCst);
        self.install(next, drain)
    }

    fn install(&self, next: Arc<ModelVersion>, drain: Duration) -> SwapOutcome {
        let version = next.version;
        let old = self.slot.replace(next);
        let previous = old.version;
        self.swaps.fetch_add(1, Ordering::Relaxed);
        // Drain: the flip already happened, so no new request can pin
        // `old`; wait for the refcount to fall to ours. `old` is
        // dropped at the end of this scope either way — if stragglers
        // remain, the old model is released when the last one
        // finishes, never before (drain-before-drop).
        let started = Instant::now();
        let deadline = started + drain;
        let mut drained = Arc::strong_count(&old) == 1;
        while !drained && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(500));
            drained = Arc::strong_count(&old) == 1;
        }
        SwapOutcome {
            model: self.name.clone(),
            version,
            previous,
            drained,
            drain_wait: started.elapsed(),
            created: false,
        }
    }

    /// Queues a validated row-major batch on this model's micro-batch
    /// queue; blocks for `(version, predictions)`.
    pub fn predict(&self, points: Vec<f64>) -> Result<(u64, Vec<f64>), ServeError> {
        self.queue.predict(points)
    }

    /// This model's queue counters.
    pub fn stats(&self) -> &BatchStats {
        self.queue.stats()
    }

    /// Jobs waiting in the queue right now.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// The queue's admission cap.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Completed swaps on this entry.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Discover requests currently computing against this model.
    pub fn active_discovers(&self) -> usize {
        self.active_discovers.load(Ordering::Relaxed)
    }

    pub(crate) fn discover_started(&self) {
        self.active_discovers.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn discover_finished(&self) {
        self.active_discovers.fetch_sub(1, Ordering::Relaxed);
    }

    /// Registry-state block the `info` command reports for this model.
    pub fn info(&self) -> Json {
        let current = self.current();
        let stats = self.stats();
        Json::obj([
            ("name", Json::str(&self.name)),
            ("family", Json::str(current.artifact.model.family())),
            ("format", Json::str(current.artifact.model.format().name())),
            ("m", Json::num(self.m as f64)),
            ("n_train", Json::num(current.artifact.train.n() as f64)),
            ("version", Json::num(current.version as f64)),
            ("swaps", Json::num(self.swap_count() as f64)),
            (
                "requests",
                Json::num(stats.requests.load(Ordering::Relaxed) as f64),
            ),
            (
                "batches",
                Json::num(stats.batches.load(Ordering::Relaxed) as f64),
            ),
            (
                "max_batched",
                Json::num(stats.max_batched.load(Ordering::Relaxed) as f64),
            ),
            (
                "rejected",
                Json::num(stats.rejected.load(Ordering::Relaxed) as f64),
            ),
            ("queue_depth", Json::num(self.queue_depth() as f64)),
            ("queue_capacity", Json::num(self.queue_capacity() as f64)),
            (
                "active_discovers",
                Json::num(self.active_discovers() as f64),
            ),
        ])
    }
}

/// The named, versioned model collection a server instance serves.
pub struct ModelRegistry {
    models: RwLock<BTreeMap<String, Arc<ModelEntry>>>,
    default_name: String,
    queue_depth: usize,
    max_models: usize,
    drain: Duration,
}

impl ModelRegistry {
    /// A registry serving `artifact` under [`DEFAULT_MODEL`].
    pub fn new(artifact: ModelArtifact, limits: &ServeLimits) -> Self {
        Self::with_default(DEFAULT_MODEL, artifact, limits)
    }

    /// A registry whose default model is registered under `name`.
    pub fn with_default(name: &str, artifact: ModelArtifact, limits: &ServeLimits) -> Self {
        let entry = Arc::new(ModelEntry::new(name, artifact, limits.queue_depth));
        let mut models = BTreeMap::new();
        models.insert(name.to_string(), entry);
        Self {
            models: RwLock::new(models),
            default_name: name.to_string(),
            queue_depth: limits.queue_depth,
            max_models: limits.max_models,
            drain: Duration::from_millis(limits.swap_drain_ms),
        }
    }

    /// The name unnamed requests resolve to.
    pub fn default_name(&self) -> &str {
        &self.default_name
    }

    /// The configured swap drain window.
    pub fn drain_window(&self) -> Duration {
        self.drain
    }

    /// Resolves a request's optional model name to its entry.
    pub fn get(&self, name: Option<&str>) -> Result<Arc<ModelEntry>, ServeError> {
        let name = name.unwrap_or(&self.default_name);
        self.models
            .read()
            .expect("registry poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::bad_request(format!("unknown model '{name}'")))
    }

    /// Registers `artifact` under `name` alongside the existing models.
    /// Fails if the name is taken or the registry is full.
    pub fn install(
        &self,
        name: &str,
        artifact: ModelArtifact,
    ) -> Result<Arc<ModelEntry>, ServeError> {
        if name.is_empty() {
            return Err(ServeError::bad_request("model name must be non-empty"));
        }
        let mut models = self.models.write().expect("registry poisoned");
        if models.contains_key(name) {
            return Err(ServeError::bad_request(format!(
                "model '{name}' is already registered"
            )));
        }
        if models.len() >= self.max_models {
            return Err(ServeError::bad_request(format!(
                "registry is at its limit of {} models",
                self.max_models
            )));
        }
        let entry = Arc::new(ModelEntry::new(name, artifact, self.queue_depth));
        models.insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Hot-swaps `name` (default model when `None`) to `artifact`,
    /// creating the entry when the name is new.
    pub fn swap(
        &self,
        name: Option<&str>,
        artifact: ModelArtifact,
    ) -> Result<SwapOutcome, ServeError> {
        let name = name.unwrap_or(&self.default_name);
        let existing = self
            .models
            .read()
            .expect("registry poisoned")
            .get(name)
            .cloned();
        match existing {
            Some(entry) => entry.swap(artifact, self.drain),
            None => {
                let entry = self.install(name, artifact)?;
                Ok(SwapOutcome {
                    model: entry.name().to_string(),
                    version: 1,
                    previous: 0,
                    drained: true,
                    drain_wait: Duration::ZERO,
                    created: true,
                })
            }
        }
    }

    /// All entries, in name order.
    pub fn entries(&self) -> Vec<Arc<ModelEntry>> {
        self.models
            .read()
            .expect("registry poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.read().expect("registry poisoned").len()
    }

    /// Whether the registry has no models (never true in a server —
    /// construction requires an initial artifact).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The per-model registry-state array `info` reports.
    pub fn info(&self) -> Json {
        Json::Arr(self.entries().iter().map(|e| e.info()).collect())
    }
}
