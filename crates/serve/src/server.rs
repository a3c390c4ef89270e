//! The model service: request handling over the readiness reactor.
//!
//! One [`reactor`](crate::reactor) thread owns every socket; complete
//! frames are served by a small executor pool against a
//! [`ModelRegistry`] of independently versioned, hot-swappable models,
//! each with its own bounded micro-batch queue. [`Service`] keeps only
//! the decode and dispatch of the serving protocol; the reactor's front
//! ([`FrameHandler::handle_frame`]) answers every request with a
//! structured response and turns a panic into an `internal` error
//! carrying the request's id, so a serving process never dies on a
//! request.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds_core::{Backing, NewPointSampler, OocConfig, Pool, RedsConfig, RedsError, StreamConfig};
use reds_data::Dataset;
use reds_json::Json;
use reds_subgroup::{BestInterval, Prim, SdResult, SubgroupDiscovery};

use crate::artifact::ModelArtifact;
use crate::protocol::{
    Algorithm, DiscoverParams, Request, ServeError, ServeLimits, StreamDiscoverParams,
};
use crate::reactor::{poller_backend, spawn_reactor, ConnGauges, FrameHandler, Waker};
use crate::registry::{ModelEntry, ModelRegistry, SwapOutcome};

/// Validates a query buffer at the request boundary: declared width
/// must match the model, the buffer must tile into whole rows, no
/// coordinate may be NaN, and the row count must respect the limit.
///
/// `reds-core` performs the same checks on a given pool for library
/// callers; repeating them here means a *served* request can never
/// reach the kernels with data the pipeline would have rejected.
pub fn validate_points(
    points: &[f64],
    m: usize,
    model_m: usize,
    limits: &ServeLimits,
) -> Result<(), ServeError> {
    if m != model_m {
        return Err(ServeError::bad_request(format!(
            "request declares m = {m} but the loaded model expects {model_m} columns"
        )));
    }
    if m == 0 || !points.len().is_multiple_of(m) {
        return Err(ServeError::bad_request(format!(
            "points buffer of {} values does not tile into rows of m = {m}",
            points.len()
        )));
    }
    if points.len() / m > limits.max_rows_per_request {
        return Err(ServeError::too_large(format!(
            "{} rows exceed the per-request limit of {}",
            points.len() / m,
            limits.max_rows_per_request
        )));
    }
    if let Some(at) = points.iter().position(|v| v.is_nan()) {
        return Err(ServeError::bad_request(format!(
            "NaN coordinate at row {}, column {}",
            at / m,
            at % m
        )));
    }
    Ok(())
}

/// One `discover` request against an already-fitted metamodel, written
/// out independently of `reds-core`: pseudo-label `L` uniform points
/// with `predict` and the threshold `p > bnd` (Algorithm 4 lines 3–6
/// with the loaded `f^am`), then run the chosen SD algorithm validated
/// on the artifact's original training data (`D_val = D`, §8.5).
///
/// The server does not call this: [`Service::discover`] runs
/// `reds-core`'s pipeline with the pinned version's `hard_labels`.
/// This is the reference that path is checked against, by
/// `service_discover_matches_run_discover` and by the digest check of
/// `redsbench`'s serve-mixed workload.
pub fn run_discover(
    predict: impl Fn(Vec<f64>) -> Result<Vec<f64>, ServeError>,
    m: usize,
    train: &Dataset,
    params: &DiscoverParams,
) -> Result<SdResult, ServeError> {
    if params.l == 0 {
        return Err(ServeError::bad_request("discover needs l > 0"));
    }
    let mut rng = StdRng::seed_from_u64(params.seed);
    let points = reds_sampling::uniform(params.l, m, &mut rng);
    let preds = predict(points.clone())?;
    let labels: Vec<f64> = preds
        .iter()
        .map(|&p| if p > params.bnd { 1.0 } else { 0.0 })
        .collect();
    let d_new = Dataset::new(points, labels, m)
        .map_err(|e| ServeError::internal(format!("pseudo-labelled sample invalid: {e}")))?;
    let mut sd_rng = StdRng::seed_from_u64(rng.gen());
    let result = match params.algorithm {
        Algorithm::Prim => Prim::default().discover(&d_new, train, &mut sd_rng),
        Algorithm::BestInterval => BestInterval::default().discover(&d_new, train, &mut sd_rng),
    };
    Ok(result)
}

/// The request handler shared by every connection: a model registry,
/// the configured limits, and the server-wide gauges.
pub struct Service {
    registry: Arc<ModelRegistry>,
    limits: ServeLimits,
    gauges: Arc<ConnGauges>,
    active_discovers: AtomicUsize,
}

/// RAII slot in the discover gate (and the per-model discover gauge);
/// released even when the discover panics, because the panic unwinds
/// through it to the front's catch.
struct DiscoverSlot<'a> {
    service: &'a Service,
    entry: &'a ModelEntry,
}

impl Drop for DiscoverSlot<'_> {
    fn drop(&mut self) {
        self.service.active_discovers.fetch_sub(1, Ordering::SeqCst);
        self.entry.discover_finished();
    }
}

impl Service {
    /// Builds a single-model service: `artifact` becomes the default
    /// registry entry and its prediction worker spawns.
    pub fn new(artifact: ModelArtifact, limits: ServeLimits) -> Self {
        let registry = Arc::new(ModelRegistry::new(artifact, &limits));
        Self::with_registry(registry, limits)
    }

    /// Builds the service over an existing (possibly multi-model)
    /// registry.
    pub fn with_registry(registry: Arc<ModelRegistry>, limits: ServeLimits) -> Self {
        Self {
            registry,
            limits,
            gauges: Arc::new(ConnGauges::default()),
            active_discovers: AtomicUsize::new(0),
        }
    }

    /// The configured limits.
    pub fn limits(&self) -> &ServeLimits {
        &self.limits
    }

    /// The model registry this service answers from.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The connection gauges the reactor maintains for this service.
    pub fn gauges(&self) -> &Arc<ConnGauges> {
        &self.gauges
    }

    /// Validated prediction through the addressed model's micro-batch
    /// queue; returns the registry version that served the batch along
    /// with the predictions.
    pub fn predict(
        &self,
        points: Vec<f64>,
        m: usize,
        model: Option<&str>,
    ) -> Result<(u64, Vec<f64>), ServeError> {
        let entry = self.registry.get(model)?;
        validate_points(&points, m, entry.m(), &self.limits)?;
        entry.predict(points)
    }

    fn begin_discover<'a>(
        &'a self,
        entry: &'a Arc<ModelEntry>,
    ) -> Result<DiscoverSlot<'a>, ServeError> {
        let prev = self.active_discovers.fetch_add(1, Ordering::SeqCst);
        if prev >= self.limits.max_active_discovers {
            self.active_discovers.fetch_sub(1, Ordering::SeqCst);
            return Err(ServeError::too_busy(format!(
                "server is at its limit of {} concurrent discover requests; retry later",
                self.limits.max_active_discovers
            )));
        }
        entry.discover_started();
        Ok(DiscoverSlot {
            service: self,
            entry,
        })
    }

    /// Served scenario discovery, in memory: `reds-core`'s pipeline on
    /// `L` uniform points drawn from `params.seed`, bit-identical to
    /// [`run_discover`]. The whole run predicts against one pinned
    /// registry version, so a swap landing mid-run never mixes models
    /// inside a single result.
    pub fn discover(
        &self,
        params: &DiscoverParams,
        model: Option<&str>,
    ) -> Result<SdResult, ServeError> {
        self.check_discover_l(params.l)?;
        self.discover_pinned(
            model,
            params.l,
            Some(params.seed),
            params.algorithm,
            params.bnd,
            &Backing::InMemory,
        )
    }

    /// Served scenario discovery in memory, or through the paged backing
    /// with `params.ooc`; bit-identical to [`Service::discover`] at the
    /// same seed. A request without an explicit seed draws the pinned
    /// version's recorded `pool_seed`, so the run is reproducible from
    /// the artifact file alone. `params.chunk_rows` is validated either
    /// way; it chunks the paged build and otherwise has no effect.
    pub fn discover_streaming(
        &self,
        params: &StreamDiscoverParams,
        model: Option<&str>,
    ) -> Result<SdResult, ServeError> {
        self.check_discover_l(params.l)?;
        // A chunk above the largest admissible pool can never take
        // effect (chunks are clamped to l rows) — reject it as a
        // client bug rather than silently serving something else.
        if params.chunk_rows > self.limits.max_discover_l {
            return Err(ServeError::bad_request(format!(
                "chunk_rows = {} exceeds the discover limit of {} and cannot take effect",
                params.chunk_rows, self.limits.max_discover_l
            )));
        }
        let backing = if params.ooc {
            // A column's merge opens its run file once and holds one
            // block of at most 32 760 bytes per spilled run, and runs =
            // ⌈l / chunk_rows⌉ — a client asking for chunk_rows = 1 at
            // l = 10⁶ would make every column's merge hold ~32 GB.
            // Chunking never changes the result (bit-identity holds for
            // any chunk size), so the server is free to raise a
            // too-small chunk until the run count, and with it the merge
            // memory (1 024 runs ≈ 32 MiB per column), is bounded.
            const MAX_RUNS_PER_COLUMN: usize = 1_024;
            let requested = StreamConfig::new()
                .with_chunk_rows(params.chunk_rows)
                .effective_chunk_rows();
            let floor = params.l.div_ceil(MAX_RUNS_PER_COLUMN);
            Backing::Paged {
                stream: StreamConfig::new().with_chunk_rows(requested.max(floor)),
                ooc: OocConfig::default(),
            }
        } else {
            Backing::InMemory
        };
        self.discover_pinned(
            model,
            params.l,
            params.seed,
            params.algorithm,
            params.bnd,
            &backing,
        )
    }

    fn check_discover_l(&self, l: usize) -> Result<(), ServeError> {
        if l > self.limits.max_discover_l {
            return Err(ServeError::too_large(format!(
                "l = {l} exceeds the limit of {}",
                self.limits.max_discover_l
            )));
        }
        Ok(())
    }

    /// The one served discovery: takes a discover slot, pins the
    /// current version and runs `reds-core`'s pipeline with it as
    /// `f^am`, on `l` uniform points drawn from `seed` (the version's
    /// `pool_seed` when `None`) under `backing`, validated on the
    /// version's training data.
    fn discover_pinned(
        &self,
        model: Option<&str>,
        l: usize,
        seed: Option<u64>,
        algorithm: Algorithm,
        bnd: f64,
        backing: &Backing,
    ) -> Result<SdResult, ServeError> {
        let entry = self.registry.get(model)?;
        let _slot = self.begin_discover(&entry)?;
        let version = entry.current();
        let mut rng = StdRng::seed_from_u64(seed.unwrap_or(version.artifact.pool_seed));
        let config = RedsConfig {
            l,
            bnd,
            probability_labels: false,
            sampler: NewPointSampler::Uniform,
        };
        let (prim, bi) = (Prim::default(), BestInterval::default());
        let sd: &dyn SubgroupDiscovery = match algorithm {
            Algorithm::Prim => &prim,
            Algorithm::BestInterval => &bi,
        };
        config
            .discover(
                &*version,
                &version.artifact.train,
                Pool::Sample,
                backing,
                sd,
                &mut rng,
            )
            .map_err(|e| match e {
                RedsError::ZeroNewPoints => ServeError::bad_request("discover needs l > 0"),
                e => ServeError::internal(e.to_string()),
            })
    }

    /// Hot-swaps a registry model to the artifact at `path` (loaded and
    /// validated before the flip — a bad file never interrupts
    /// serving).
    pub fn swap(&self, model: Option<&str>, path: &str) -> Result<SwapOutcome, ServeError> {
        let artifact = ModelArtifact::load(Path::new(path)).map_err(|e| {
            ServeError::bad_request(format!("cannot load artifact from '{path}': {e}"))
        })?;
        self.registry.swap(model, artifact)
    }

    /// The `info` result object: the default model's fields at the top
    /// level (wire compatibility), the full registry under `"models"`.
    pub fn info(&self) -> Json {
        let entry = self
            .registry
            .get(None)
            .expect("registry always holds its default model");
        let current = entry.current();
        let stats = entry.stats();
        Json::obj([
            ("function", Json::str(current.artifact.function.clone())),
            ("family", Json::str(current.artifact.model.family())),
            // Which on-disk format the artifact came from: "reds-json"
            // or "redsart" (both decode to the same owned model).
            ("format", Json::str(current.artifact.format().name())),
            ("m", Json::num(entry.m() as f64)),
            ("n_train", Json::num(current.artifact.train.n() as f64)),
            ("seed", Json::str(current.artifact.seed.to_string())),
            (
                "pool_seed",
                Json::str(current.artifact.pool_seed.to_string()),
            ),
            (
                "pool_design",
                Json::str(current.artifact.pool_design.clone()),
            ),
            // The prediction-kernel backend every predict_batch under
            // this server dispatches to (scalar and avx2 answers are
            // bit-identical; this is operational visibility only).
            (
                "kernel",
                Json::str(reds_metamodel::kernels::active().name()),
            ),
            // The exp backend those kernels evaluate (`poly` unless the
            // REDS_EXP=libm escape hatch is active — unlike the kernel
            // field, this one *does* change low-order result bits, so
            // fleet operators need to see it).
            (
                "exp",
                Json::str(reds_metamodel::kernels::vexp::backend().name()),
            ),
            // The readiness backend the connection core multiplexes on.
            ("reactor", Json::str(poller_backend())),
            ("version", Json::num(current.version as f64)),
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
                "connections",
                Json::num(self.gauges.connections.load(Ordering::Relaxed) as f64),
            ),
            (
                "active_connections",
                Json::num(self.gauges.active_connections.load(Ordering::Relaxed) as f64),
            ),
            (
                "rejected_connections",
                Json::num(self.gauges.rejected_connections.load(Ordering::Relaxed) as f64),
            ),
            (
                "active_discovers",
                Json::num(self.active_discovers.load(Ordering::Relaxed) as f64),
            ),
            // Registry state: every loaded model with its format,
            // active version, swap count, and queue depth/capacity —
            // swaps and backpressure are observable from the wire.
            ("models", self.registry.info()),
        ])
    }
}

impl FrameHandler for Service {
    type Request = Request;
    type Error = ServeError;

    fn decode(&self, doc: &Json) -> Result<Request, ServeError> {
        Request::from_json(doc)
    }

    fn stops(&self, request: &Request) -> bool {
        matches!(request, Request::Shutdown { .. })
    }

    fn dispatch(&self, request: Request) -> Result<Json, ServeError> {
        match request {
            Request::PredictBatch {
                points, m, model, ..
            } => {
                let (version, preds) = self.predict(points, m, model.as_deref())?;
                Ok(Json::obj([
                    // Marker-encoded like the request side: a loaded
                    // model with non-finite leaves must answer the same
                    // values over the socket as in-process (Json::num
                    // would collapse them to null).
                    (
                        "predictions",
                        Json::arr(preds.into_iter().map(reds_metamodel::persist::f64_to_json)),
                    ),
                    // Which registry version answered — the
                    // client-visible half of the hot-swap attribution
                    // story.
                    ("version", Json::num(version as f64)),
                ]))
            }
            Request::Discover { params, model, .. } => self
                .discover(&params, model.as_deref())
                .map(|result| result.to_json()),
            Request::DiscoverStreaming { params, model, .. } => self
                .discover_streaming(&params, model.as_deref())
                .map(|result| result.to_json()),
            Request::Swap { model, path, .. } => self
                .swap(model.as_deref(), &path)
                .map(|outcome| outcome.to_json()),
            Request::Info { .. } => Ok(self.info()),
            Request::Shutdown { .. } => Ok(Json::obj([("shutdown", Json::Bool(true))])),
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] or send the `shutdown` command.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with `127.0.0.1:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `true` once shutdown has been requested or served.
    pub fn is_shut_down(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Requests shutdown and waits for the reactor (and its executors)
    /// to wind down.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.nudge();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Waits for the server to stop on its own (a client's `shutdown`
    /// command, or its handler's abort), joining every thread.
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral test port) and
/// starts the reactor serving `artifact` as the default model.
pub fn serve(artifact: ModelArtifact, addr: &str, limits: ServeLimits) -> io::Result<ServerHandle> {
    let service = Arc::new(Service::new(artifact, limits));
    serve_service(service, addr)
}

/// Starts the reactor over an already-built [`Service`] (multi-model
/// registries enter here).
pub fn serve_service(service: Arc<Service>, addr: &str) -> io::Result<ServerHandle> {
    let limits = service.limits().clone();
    let gauges = Arc::clone(service.gauges());
    serve_handler(service, addr, limits, gauges)
}

/// Starts the reactor over any [`FrameHandler`] — the shard router
/// reuses the entire connection core this way.
pub fn serve_handler<H: FrameHandler>(
    handler: Arc<H>,
    addr: &str,
    limits: ServeLimits,
    gauges: Arc<ConnGauges>,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let parts = spawn_reactor(listener, handler, limits, gauges, Arc::clone(&stop))?;
    Ok(ServerHandle {
        addr,
        stop,
        waker: parts.waker,
        thread: Some(parts.thread),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reds_metamodel::{Metamodel, RandomForest, RandomForestParams, SavedModel};

    fn tiny_service() -> Service {
        let mut rng = StdRng::seed_from_u64(41);
        let train = Dataset::from_fn((0..160 * 2).map(|_| rng.gen::<f64>()).collect(), 2, |x| {
            if x[0] > 0.5 && x[1] > 0.5 {
                1.0
            } else {
                0.0
            }
        })
        .unwrap();
        let params = RandomForestParams {
            n_trees: 10,
            ..Default::default()
        };
        let model = RandomForest::fit(&train, &params, &mut rng);
        Service::new(
            ModelArtifact {
                function: "corner".to_string(),
                seed: 41,
                pool_seed: 4100,
                pool_design: crate::artifact::POOL_DESIGN_UNIFORM.to_string(),
                model: SavedModel::Forest(model).into(),
                train,
            },
            ServeLimits {
                max_rows_per_request: 64,
                max_discover_l: 4_000,
                ..Default::default()
            },
        )
    }

    #[test]
    fn validate_points_rejects_what_the_pipeline_would() {
        let limits = ServeLimits::default();
        // Wrong declared width.
        assert_eq!(
            validate_points(&[0.0; 4], 3, 2, &limits).unwrap_err().code,
            crate::protocol::ErrorCode::BadRequest
        );
        // Ragged buffer: len % m != 0.
        let err = validate_points(&[0.0; 5], 2, 2, &limits).unwrap_err();
        assert_eq!(err.code, crate::protocol::ErrorCode::BadRequest);
        assert!(err.message.contains("tile"), "{}", err.message);
        // NaN coordinate, reported by row and column.
        let mut pts = vec![0.5; 6];
        pts[3] = f64::NAN;
        let err = validate_points(&pts, 2, 2, &limits).unwrap_err();
        assert!(err.message.contains("row 1"), "{}", err.message);
        assert!(err.message.contains("column 1"), "{}", err.message);
        // Infinities are legal (datasets allow them).
        assert!(validate_points(&[f64::INFINITY, 0.0], 2, 2, &limits).is_ok());
        // Row cap.
        let tight = ServeLimits {
            max_rows_per_request: 2,
            ..Default::default()
        };
        assert_eq!(
            validate_points(&[0.0; 6], 2, 2, &tight).unwrap_err().code,
            crate::protocol::ErrorCode::TooLarge
        );
    }

    #[test]
    fn service_predict_matches_direct_model_call_bitwise() {
        let service = tiny_service();
        let query: Vec<f64> = (0..40).map(|i| (i % 7) as f64 / 7.0).collect();
        let (version, served) = service.predict(query.clone(), 2, None).expect("serves");
        assert_eq!(version, 1, "fresh registry serves version 1");
        let current = service.registry().get(None).unwrap().current();
        let direct = current.artifact.model.predict_batch(&query, 2);
        assert_eq!(served.len(), direct.len());
        for (a, b) in served.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn unknown_model_is_a_bad_request() {
        let service = tiny_service();
        let err = service
            .predict(vec![0.5, 0.5], 2, Some("nonexistent"))
            .expect_err("unknown model");
        assert_eq!(err.code, crate::protocol::ErrorCode::BadRequest);
        assert!(err.message.contains("nonexistent"), "{}", err.message);
    }

    #[test]
    fn service_discover_matches_run_discover() {
        let service = tiny_service();
        let params = DiscoverParams {
            l: 2_000,
            seed: 9,
            ..Default::default()
        };
        let served = service.discover(&params, None).expect("discovers");
        let current = service.registry().get(None).unwrap().current();
        let direct = run_discover(
            |pts| Ok(current.artifact.model.predict_batch(&pts, 2)),
            2,
            &current.artifact.train,
            &params,
        )
        .expect("runs");
        assert_eq!(served, direct);
        assert!(!served.boxes.is_empty());
    }

    #[test]
    fn service_discover_streaming_is_bit_identical_to_discover() {
        let service = tiny_service();
        let params = DiscoverParams {
            l: 2_500,
            seed: 13,
            ..Default::default()
        };
        let monolithic = service.discover(&params, None).expect("discovers");
        // 4_000 > l exercises the clamp-to-l path while staying inside
        // the max_discover_l cap (anything above it is a bad_request).
        for chunk_rows in [0usize, 1, 311, 4_000] {
            let streamed = service
                .discover_streaming(
                    &StreamDiscoverParams {
                        l: params.l,
                        seed: Some(params.seed),
                        algorithm: params.algorithm,
                        bnd: params.bnd,
                        chunk_rows,
                        ooc: false,
                    },
                    None,
                )
                .expect("streams");
            assert_eq!(streamed, monolithic, "chunk_rows = {chunk_rows}");
        }
    }

    #[test]
    fn streaming_without_a_seed_serves_the_artifact_pool() {
        let service = tiny_service();
        let pool_seed = service
            .registry()
            .get(None)
            .unwrap()
            .current()
            .artifact
            .pool_seed;
        let from_artifact = service
            .discover_streaming(
                &StreamDiscoverParams {
                    l: 1_500,
                    seed: None,
                    ..Default::default()
                },
                None,
            )
            .expect("streams");
        // Explicitly requesting the recorded pool seed must reproduce
        // the same boxes — a served run is recoverable from the
        // artifact file alone.
        let explicit = service
            .discover_streaming(
                &StreamDiscoverParams {
                    l: 1_500,
                    seed: Some(pool_seed),
                    ..Default::default()
                },
                None,
            )
            .expect("streams");
        assert_eq!(from_artifact, explicit);
        // And it equals the monolithic path at the same resolved seed.
        let monolithic = service
            .discover(
                &DiscoverParams {
                    l: 1_500,
                    seed: pool_seed,
                    ..Default::default()
                },
                None,
            )
            .expect("discovers");
        assert_eq!(from_artifact, monolithic);
    }

    #[test]
    fn tiny_chunk_requests_are_clamped_but_still_bit_identical() {
        let service = tiny_service();
        // chunk_rows = 1 at l = 3000 would mean 3000 spilled runs (and
        // a 32 760-byte merge block for each, per column); the server
        // clamps the paged build's chunk so runs and merge memory stay
        // bounded — and the result is unchanged, because chunking never
        // affects the boxes.
        let clamped = service
            .discover_streaming(
                &StreamDiscoverParams {
                    l: 3_000,
                    seed: Some(5),
                    chunk_rows: 1,
                    ooc: true,
                    ..Default::default()
                },
                None,
            )
            .expect("clamped stream serves");
        let monolithic = service
            .discover(
                &DiscoverParams {
                    l: 3_000,
                    seed: 5,
                    ..Default::default()
                },
                None,
            )
            .expect("discovers");
        assert_eq!(clamped, monolithic);
    }

    #[test]
    fn ooc_discover_streaming_is_bit_identical_to_in_memory() {
        let service = tiny_service();
        let params = DiscoverParams {
            l: 2_500,
            seed: 21,
            ..Default::default()
        };
        let monolithic = service.discover(&params, None).expect("discovers");
        for algorithm in [Algorithm::Prim, Algorithm::BestInterval] {
            let monolithic = if algorithm == params.algorithm {
                monolithic.clone()
            } else {
                service
                    .discover(
                        &DiscoverParams {
                            algorithm,
                            ..params.clone()
                        },
                        None,
                    )
                    .expect("discovers")
            };
            let ooc = service
                .discover_streaming(
                    &StreamDiscoverParams {
                        l: params.l,
                        seed: Some(params.seed),
                        algorithm,
                        bnd: params.bnd,
                        chunk_rows: 311,
                        ooc: true,
                    },
                    None,
                )
                .expect("serves out of core");
            assert_eq!(ooc, monolithic, "{}", algorithm.as_str());
        }
    }

    #[test]
    fn oversized_chunk_rows_is_a_bad_request() {
        let service = tiny_service();
        let err = service
            .discover_streaming(
                &StreamDiscoverParams {
                    l: 1_000,
                    chunk_rows: 4_001, // max_discover_l is 4_000
                    ..Default::default()
                },
                None,
            )
            .unwrap_err();
        assert_eq!(err.code, crate::protocol::ErrorCode::BadRequest);
        assert!(err.message.contains("chunk_rows"), "{}", err.message);
    }

    #[test]
    fn streaming_respects_the_discover_l_limit() {
        let service = tiny_service();
        let err = service
            .discover_streaming(
                &StreamDiscoverParams {
                    l: 4_001, // limit is 4_000 in tiny_service
                    ..Default::default()
                },
                None,
            )
            .unwrap_err();
        assert_eq!(err.code, crate::protocol::ErrorCode::TooLarge);
    }

    #[test]
    fn zero_l_discovers_are_bad_requests_and_release_the_slot() {
        let service = tiny_service();
        let discover = service.discover(
            &DiscoverParams {
                l: 0,
                ..Default::default()
            },
            None,
        );
        let [streamed, paged] = [false, true].map(|ooc| {
            service.discover_streaming(
                &StreamDiscoverParams {
                    l: 0,
                    seed: Some(3),
                    ooc,
                    ..Default::default()
                },
                None,
            )
        });
        for (what, outcome) in [
            ("discover", discover),
            ("discover_streaming", streamed),
            ("discover_streaming --ooc", paged),
        ] {
            let err = outcome.expect_err(what);
            assert_eq!(err.code, crate::protocol::ErrorCode::BadRequest, "{what}");
            assert!(err.message.contains("l > 0"), "{what}: {}", err.message);
        }
        assert_eq!(service.active_discovers.load(Ordering::SeqCst), 0);
        service
            .discover(
                &DiscoverParams {
                    l: 500,
                    ..Default::default()
                },
                None,
            )
            .expect("serves after the rejected requests");
    }

    #[test]
    fn discover_gate_rejects_beyond_the_cap() {
        let service = tiny_service();
        // Saturate the gate artificially; the next discover must bounce
        // with too_busy instead of piling onto the executor pool.
        let cap = service.limits().max_active_discovers;
        service.active_discovers.store(cap, Ordering::SeqCst);
        let err = service
            .discover(
                &DiscoverParams {
                    l: 500,
                    ..Default::default()
                },
                None,
            )
            .expect_err("gate rejects");
        assert_eq!(err.code, crate::protocol::ErrorCode::TooBusy);
        assert!(err.message.contains("discover"), "{}", err.message);
        service.active_discovers.store(0, Ordering::SeqCst);
        // And the slot is released after a served run.
        service
            .discover(
                &DiscoverParams {
                    l: 500,
                    ..Default::default()
                },
                None,
            )
            .expect("serves after release");
        assert_eq!(service.active_discovers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn handle_frame_returns_structured_errors_never_panics() {
        let service = tiny_service();
        for (line, code) in [
            ("not json at all", "parse"),
            ("{\"cmd\":\"zap\"}", "parse"),
            (
                "{\"id\":3,\"cmd\":\"predict_batch\",\"m\":2,\"points\":[1,2,3]}",
                "bad_request",
            ),
            (
                "{\"id\":4,\"cmd\":\"predict_batch\",\"m\":5,\"points\":[1,2,3,4,5]}",
                "bad_request",
            ),
            (
                "{\"id\":5,\"cmd\":\"predict_batch\",\"m\":2,\"points\":[1,null]}",
                "parse",
            ),
            ("{\"id\":6,\"cmd\":\"discover\",\"l\":100000}", "too_large"),
            ("{\"id\":7,\"cmd\":\"discover\",\"l\":0}", "bad_request"),
            (
                "{\"id\":8,\"cmd\":\"predict_batch\",\"m\":2,\"points\":[1,2],\"model\":\"ghost\"}",
                "bad_request",
            ),
            (
                "{\"id\":9,\"cmd\":\"swap\",\"path\":\"/nonexistent/model.redsart\"}",
                "bad_request",
            ),
        ] {
            let (resp, shutdown) = service.handle_frame(line);
            assert!(!shutdown, "{line}");
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(false),
                "{line} → {resp}"
            );
            assert_eq!(
                resp.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str),
                Some(code),
                "{line} → {resp}"
            );
        }
        // Oversized predict_batch rows → too_large (limit is 64 rows).
        let big: Vec<String> = (0..65 * 2).map(|_| "0.5".to_string()).collect();
        let line = format!(
            "{{\"id\":8,\"cmd\":\"predict_batch\",\"m\":2,\"points\":[{}]}}",
            big.join(",")
        );
        let (resp, _) = service.handle_frame(&line);
        assert_eq!(
            resp.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("too_large")
        );
    }

    /// A swap to a bad file answers `bad_request` and leaves the
    /// serving model untouched: same version, no swap counted, same
    /// prediction bits.
    #[test]
    fn failed_swaps_change_nothing() {
        let service = tiny_service();
        let dir = std::env::temp_dir().join(format!("reds-serve-bad-swap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("model.redsart");
        let entry = service.registry().get(None).unwrap();
        entry.current().artifact.save_art(&good).unwrap();
        let bytes = std::fs::read(&good).unwrap();
        let truncated = dir.join("truncated.redsart");
        std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
        let flipped = dir.join("flipped.redsart");
        let mut bad = bytes.clone();
        bad[bytes.len() / 3] ^= 1;
        std::fs::write(&flipped, bad).unwrap();

        let predict =
            "{\"id\":1,\"cmd\":\"predict_batch\",\"m\":2,\"points\":[0.9,0.9,0.1,0.1,0.6,0.2]}";
        let before = service.handle_frame(predict).0.to_string_compact();
        let mut paths = vec![truncated, flipped, dir.join("missing.redsart"), dir.clone()];
        if cfg!(unix) {
            paths.push("/dev/zero".into());
        }
        for path in &paths {
            let frame = Json::obj([
                ("id", Json::num(2.0)),
                ("cmd", Json::str("swap")),
                ("path", Json::str(path.to_str().unwrap())),
            ]);
            let (resp, _) = service.handle_frame(&frame.to_string_compact());
            assert_eq!(
                resp.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str),
                Some("bad_request"),
                "{} → {resp}",
                path.display()
            );
        }
        let (resp, _) = service.handle_frame("{\"id\":3,\"cmd\":\"info\"}");
        let info = resp.get("result").expect("info result");
        assert_eq!(info.get("version").and_then(Json::as_f64), Some(1.0));
        let models = info.get("models").and_then(Json::as_array).unwrap();
        assert_eq!(models[0].get("swaps").and_then(Json::as_f64), Some(0.0));
        assert_eq!(service.handle_frame(predict).0.to_string_compact(), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn service_replies_go_through_the_front() {
        let service = tiny_service();
        for (line, reply) in [
            (
                r#"{"id":5,"cmd":"nope"}"#,
                r#"{"id":5,"ok":false,"error":{"code":"parse","message":"unknown command 'nope' (expected predict_batch, discover, discover_streaming, swap, info, shutdown)"}}"#,
            ),
            (
                r#"{"id":6,"cmd":"predict_batch","m":2,"points":[0.5,null]}"#,
                r#"{"id":6,"ok":false,"error":{"code":"parse","message":"points[1] must be a number (or \"inf\"/\"-inf\"/\"nan\")"}}"#,
            ),
            (
                r#"{"id":4294967296,"cmd":"info"}"#,
                r#"{"id":0,"ok":false,"error":{"code":"parse","message":"'id' must be a small non-negative integer"}}"#,
            ),
        ] {
            let (resp, shutdown) = service.handle_frame(line);
            assert_eq!(resp.to_string_compact(), reply);
            assert!(!shutdown, "{line}");
        }
    }

    #[test]
    fn handle_frame_serves_requests_and_flags_shutdown() {
        let service = tiny_service();
        let (resp, _) = service.handle_frame(
            "{\"id\":1,\"cmd\":\"predict_batch\",\"m\":2,\"points\":[0.9,0.9,0.1,0.1]}",
        );
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        let result = resp.get("result").expect("result");
        let preds = result
            .get("predictions")
            .and_then(Json::as_array)
            .expect("predictions");
        assert_eq!(preds.len(), 2);
        assert_eq!(
            result.get("version").and_then(Json::as_f64),
            Some(1.0),
            "predict answers carry the serving version"
        );
        let (resp, _) = service.handle_frame("{\"id\":2,\"cmd\":\"info\"}");
        let info = resp.get("result").expect("info result");
        assert_eq!(info.get("family").and_then(Json::as_str), Some("f"));
        assert_eq!(info.get("version").and_then(Json::as_f64), Some(1.0));
        let models = info.get("models").and_then(Json::as_array).expect("models");
        assert_eq!(models.len(), 1);
        assert_eq!(
            models[0].get("name").and_then(Json::as_str),
            Some(crate::registry::DEFAULT_MODEL)
        );
        assert!(models[0].get("queue_capacity").is_some());
        let (resp, shutdown) = service.handle_frame("{\"id\":3,\"cmd\":\"shutdown\"}");
        assert!(shutdown);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    }
}
