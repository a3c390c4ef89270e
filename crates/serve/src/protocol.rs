//! The wire protocol: newline-delimited JSON request/response frames.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Requests carry a client-chosen integer
//! `id` that the response echoes, so a client may pipeline several
//! requests on one connection.
//!
//! ```text
//! → {"id":1,"cmd":"predict_batch","m":2,"points":[0.1,0.9,0.4,0.2]}
//! ← {"id":1,"ok":true,"result":{"predictions":[0.92,0.04]}}
//! → {"id":2,"cmd":"discover","l":2000,"seed":7,"algorithm":"prim"}
//! ← {"id":2,"ok":true,"result":{"boxes":[…]}}
//! → {"id":3,"cmd":"info"}
//! → {"id":4,"cmd":"shutdown"}
//! ← {"id":4,"ok":true,"result":{"shutdown":true}}
//! ```
//!
//! Failures are **structured, per-request errors** — the server never
//! answers a malformed or invalid frame with a panic or a dropped
//! connection (the one exception: an oversized frame closes the
//! connection after the error response, because the remainder of the
//! over-long line cannot be resynchronized safely):
//!
//! ```text
//! ← {"id":5,"ok":false,"error":{"code":"bad_request","message":"…"}}
//! ```

use reds_json::Json;

/// Resource bounds the server enforces at the trust boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeLimits {
    /// Maximum bytes in one request frame (one line). Larger frames get
    /// a `too_large` error and the connection is closed.
    pub max_frame_bytes: usize,
    /// Maximum number of query rows in one `predict_batch` request.
    pub max_rows_per_request: usize,
    /// Maximum pseudo-label sample size `L` a `discover` request may
    /// ask for.
    pub max_discover_l: usize,
    /// Maximum concurrently served connections. A connection beyond the
    /// cap is answered with a single `too_busy` error frame and closed
    /// instead of spawning an unbounded handler thread.
    pub max_connections: usize,
    /// Maximum jobs waiting in one model's micro-batch queue. A request
    /// arriving at a full queue is answered with `too_busy` immediately
    /// (explicit per-model backpressure) instead of queueing without
    /// bound.
    pub queue_depth: usize,
    /// Maximum `discover`/`discover_streaming` requests computing at
    /// once across all models; requests beyond the cap get `too_busy`.
    pub max_active_discovers: usize,
    /// Maximum models the registry will hold.
    pub max_models: usize,
    /// How long a hot swap waits for in-flight requests against the old
    /// version to finish before reporting `drained: false` (the old
    /// model is still released only when its last request completes).
    pub swap_drain_ms: u64,
}

impl Default for ServeLimits {
    fn default() -> Self {
        Self {
            max_frame_bytes: 8 * 1024 * 1024,
            max_rows_per_request: 262_144,
            max_discover_l: 1_000_000,
            max_connections: 256,
            queue_depth: 512,
            max_active_discovers: 8,
            max_models: 16,
            swap_drain_ms: 5_000,
        }
    }
}

/// Machine-readable error category of a failed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame is not valid JSON, or not a valid request object.
    Parse,
    /// The request is well-formed but semantically invalid for this
    /// model (wrong width, NaN coordinates, unknown algorithm, …).
    BadRequest,
    /// The request exceeds a configured limit.
    TooLarge,
    /// The server is at its concurrent-connection (or lease) capacity;
    /// the peer should back off and retry.
    TooBusy,
    /// The server failed internally; the request may be retried.
    Internal,
}

impl ErrorCode {
    /// Stable wire name of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Parse => "parse",
            Self::BadRequest => "bad_request",
            Self::TooLarge => "too_large",
            Self::TooBusy => "too_busy",
            Self::Internal => "internal",
        }
    }

    /// Inverse of [`ErrorCode::as_str`] (unknown strings map to
    /// [`ErrorCode::Internal`]).
    pub fn from_wire(s: &str) -> Self {
        match s {
            "parse" => Self::Parse,
            "bad_request" => Self::BadRequest,
            "too_large" => Self::TooLarge,
            "too_busy" => Self::TooBusy,
            _ => Self::Internal,
        }
    }
}

/// A structured request failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// Category.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Constructor shorthand.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// A `parse` error.
    pub fn parse(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::Parse, message)
    }

    /// A `bad_request` error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::BadRequest, message)
    }

    /// A `too_large` error.
    pub fn too_large(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::TooLarge, message)
    }

    /// A `too_busy` error.
    pub fn too_busy(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::TooBusy, message)
    }

    /// An `internal` error.
    pub fn internal(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::Internal, message)
    }
}

/// Subgroup-discovery algorithm a `discover` request selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// PRIM peeling, without pasting (the paper's default SD step,
    /// §3.2.1).
    Prim,
    /// Best Interval beam search.
    BestInterval,
}

impl Algorithm {
    /// Wire name ("prim" / "bi").
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Prim => "prim",
            Self::BestInterval => "bi",
        }
    }
}

/// Parameters of a served `discover` request (Algorithm 4 with the
/// already-fitted metamodel standing in for lines 1–2).
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoverParams {
    /// Number of pseudo-labelled points `L`.
    pub l: usize,
    /// Seed of the uniform sample and the SD algorithm's RNG; the same
    /// seed always returns the same boxes.
    pub seed: u64,
    /// Subgroup-discovery algorithm to run.
    pub algorithm: Algorithm,
    /// Hard-label threshold `bnd` on the metamodel output.
    pub bnd: f64,
}

impl Default for DiscoverParams {
    fn default() -> Self {
        Self {
            l: 20_000,
            seed: 0,
            algorithm: Algorithm::Prim,
            bnd: 0.5,
        }
    }
}

/// Parameters of a served `discover_streaming` request: `discover`
/// whose seed defaults to the artifact's recorded `pool_seed`, with the
/// pool held in memory, or with `ooc` built by the bounded-memory
/// pipeline (`reds-stream`) and searched through the paged store
/// (`reds-ooc`). The boxes are bit-identical to `discover` with the
/// same resolved seed.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamDiscoverParams {
    /// Number of pseudo-labelled points `L`.
    pub l: usize,
    /// Seed of the uniform pool; `None` uses the artifact's recorded
    /// `pool_seed`, making the served stream reproducible from the
    /// artifact file alone.
    pub seed: Option<u64>,
    /// Subgroup-discovery algorithm to run.
    pub algorithm: Algorithm,
    /// Hard-label threshold `bnd` on the metamodel output.
    pub bnd: f64,
    /// Rows per streamed chunk of the paged build (`ooc`); `0` selects
    /// the server default. Validated with or without `ooc`, but
    /// without it the field has no effect: the in-memory pool is built
    /// in one piece. On the wire, `0` is spelled by **omitting** the
    /// field — an explicit
    /// `"chunk_rows": 0` is rejected with `bad_request`, so a client
    /// that meant to pick a chunk size never silently gets the default.
    pub chunk_rows: usize,
    /// Serve the request through the out-of-core paged column store
    /// (`reds-ooc`) instead of the in-memory pool: the pseudo-labelled
    /// pool is written as a scratch `.redsart` artifact and the search
    /// pages it in under a bounded cache. Boxes are bit-identical to
    /// the in-memory path. Absent on the wire means `false`.
    pub ooc: bool,
}

impl Default for StreamDiscoverParams {
    fn default() -> Self {
        Self {
            l: 20_000,
            seed: None,
            algorithm: Algorithm::Prim,
            bnd: 0.5,
            chunk_rows: 0,
            ooc: false,
        }
    }
}

/// One decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Pseudo-label a batch of query points.
    PredictBatch {
        /// Echoed request id.
        id: u64,
        /// Row-major query buffer.
        points: Vec<f64>,
        /// Declared number of columns.
        m: usize,
        /// Registry model to query; `None` is the default model.
        model: Option<String>,
    },
    /// Run scenario discovery with the loaded model.
    Discover {
        /// Echoed request id.
        id: u64,
        /// Discovery parameters.
        params: DiscoverParams,
        /// Registry model to query; `None` is the default model.
        model: Option<String>,
    },
    /// Run scenario discovery on a seeded pool, in memory or paged.
    DiscoverStreaming {
        /// Echoed request id.
        id: u64,
        /// Streaming discovery parameters.
        params: StreamDiscoverParams,
        /// Registry model to query; `None` is the default model.
        model: Option<String>,
    },
    /// Hot-swap a registry model to a new artifact loaded from a path
    /// on the server's filesystem.
    Swap {
        /// Echoed request id.
        id: u64,
        /// Registry model to replace (created when new); `None` is the
        /// default model.
        model: Option<String>,
        /// Server-side path of the `.redsart` / reds-json artifact.
        path: String,
    },
    /// Describe the loaded models and server counters.
    Info {
        /// Echoed request id.
        id: u64,
    },
    /// Stop accepting connections and exit the server loop.
    Shutdown {
        /// Echoed request id.
        id: u64,
    },
}

impl Request {
    /// The request id (0 when the client sent none).
    pub fn id(&self) -> u64 {
        match self {
            Self::PredictBatch { id, .. }
            | Self::Discover { id, .. }
            | Self::DiscoverStreaming { id, .. }
            | Self::Swap { id, .. }
            | Self::Info { id }
            | Self::Shutdown { id } => *id,
        }
    }

    /// The registry model the request targets (`None` for the default
    /// model and for commands without a model field).
    pub fn model(&self) -> Option<&str> {
        match self {
            Self::PredictBatch { model, .. }
            | Self::Discover { model, .. }
            | Self::DiscoverStreaming { model, .. }
            | Self::Swap { model, .. } => model.as_deref(),
            Self::Info { .. } | Self::Shutdown { .. } => None,
        }
    }

    /// Serializes the request to its wire object (used by the client).
    pub fn to_json(&self) -> Json {
        // An absent model means "the default model"; it must stay
        // absent on the wire (same convention as the streaming seed).
        let push_model = |pairs: &mut Vec<(&str, Json)>, model: &Option<String>| {
            if let Some(model) = model {
                pairs.push(("model", Json::str(model.clone())));
            }
        };
        match self {
            Self::PredictBatch {
                id,
                points,
                m,
                model,
            } => {
                let mut pairs = vec![
                    ("id", Json::num(*id as f64)),
                    ("cmd", Json::str("predict_batch")),
                    ("m", Json::num(*m as f64)),
                    // Datasets (and validate_points) allow ±∞
                    // coordinates, and JSON numbers cannot carry them —
                    // reuse the persistence layer's marker-string
                    // encoding so typed clients can send exactly what an
                    // in-process call accepts. NaN travels too, and is
                    // then rejected at the boundary with its row/column.
                    (
                        "points",
                        Json::arr(
                            points
                                .iter()
                                .map(|&v| reds_metamodel::persist::f64_to_json(v)),
                        ),
                    ),
                ];
                push_model(&mut pairs, model);
                Json::obj(pairs)
            }
            Self::Discover { id, params, model } => {
                let mut pairs = vec![
                    ("id", Json::num(*id as f64)),
                    ("cmd", Json::str("discover")),
                    ("l", Json::num(params.l as f64)),
                    ("seed", Json::str(params.seed.to_string())),
                    ("algorithm", Json::str(params.algorithm.as_str())),
                    ("bnd", Json::num(params.bnd)),
                ];
                push_model(&mut pairs, model);
                Json::obj(pairs)
            }
            Self::DiscoverStreaming { id, params, model } => {
                let mut pairs = vec![
                    ("id", Json::num(*id as f64)),
                    ("cmd", Json::str("discover_streaming")),
                    ("l", Json::num(params.l as f64)),
                    ("algorithm", Json::str(params.algorithm.as_str())),
                    ("bnd", Json::num(params.bnd)),
                ];
                // chunk_rows = 0 means "server default" in the typed
                // params; the wire spells that by omission (an explicit
                // 0 on the wire is rejected on decode).
                if params.chunk_rows > 0 {
                    pairs.push(("chunk_rows", Json::num(params.chunk_rows as f64)));
                }
                if params.ooc {
                    pairs.push(("ooc", Json::Bool(true)));
                }
                // An absent seed means "use the artifact's pool seed";
                // it must stay absent on the wire.
                if let Some(seed) = params.seed {
                    pairs.push(("seed", Json::str(seed.to_string())));
                }
                push_model(&mut pairs, model);
                Json::obj(pairs)
            }
            Self::Swap { id, model, path } => {
                let mut pairs = vec![
                    ("id", Json::num(*id as f64)),
                    ("cmd", Json::str("swap")),
                    ("path", Json::str(path.clone())),
                ];
                push_model(&mut pairs, model);
                Json::obj(pairs)
            }
            Self::Info { id } => {
                Json::obj([("id", Json::num(*id as f64)), ("cmd", Json::str("info"))])
            }
            Self::Shutdown { id } => Json::obj([
                ("id", Json::num(*id as f64)),
                ("cmd", Json::str("shutdown")),
            ]),
        }
    }

    /// Decodes one request frame. Structural problems (bad JSON shape,
    /// unknown command, non-numeric points) are `parse` errors; the
    /// caller layers semantic validation (width, NaN, limits) on top.
    pub fn from_json(doc: &Json) -> Result<Self, ServeError> {
        let id = match doc.get("id") {
            None => 0,
            Some(v) => small_uint(v)
                .ok_or_else(|| ServeError::parse("'id' must be a small non-negative integer"))?,
        };
        let cmd = doc
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| ServeError::parse("missing string field 'cmd'"))?;
        let get_usize = |key: &str, default: Option<usize>| -> Result<usize, ServeError> {
            match doc.get(key) {
                None => default
                    .ok_or_else(|| ServeError::parse(format!("missing numeric field '{key}'"))),
                Some(v) => small_uint(v).map(|x| x as usize).ok_or_else(|| {
                    ServeError::parse(format!("'{key}' must be a non-negative integer"))
                }),
            }
        };
        match cmd {
            "predict_batch" => {
                let m = get_usize("m", None)?;
                let arr = doc
                    .get("points")
                    .and_then(Json::as_array)
                    .ok_or_else(|| ServeError::parse("'points' must be an array of numbers"))?;
                let mut points = Vec::with_capacity(arr.len());
                for (i, v) in arr.iter().enumerate() {
                    // Numbers, plus the "inf"/"-inf"/"nan" markers the
                    // writer side emits for non-finite coordinates.
                    points.push(reds_metamodel::persist::f64_from_json(v).map_err(|_| {
                        ServeError::parse(format!(
                            "points[{i}] must be a number (or \"inf\"/\"-inf\"/\"nan\")"
                        ))
                    })?);
                }
                Ok(Self::PredictBatch {
                    id,
                    points,
                    m,
                    model: decode_model(doc)?,
                })
            }
            "discover" => {
                let params = DiscoverParams {
                    l: get_usize("l", Some(DiscoverParams::default().l))?,
                    seed: decode_seed(doc)?.unwrap_or(0),
                    algorithm: decode_algorithm(doc)?,
                    bnd: decode_bnd(doc)?,
                };
                Ok(Self::Discover {
                    id,
                    params,
                    model: decode_model(doc)?,
                })
            }
            "discover_streaming" => {
                let chunk_rows = get_usize("chunk_rows", Some(0))?;
                if chunk_rows == 0 && doc.get("chunk_rows").is_some() {
                    // An explicit 0 is almost certainly a client bug
                    // (a miscomputed chunk size); silently substituting
                    // the server default would mask it.
                    return Err(ServeError::bad_request(
                        "'chunk_rows' must be positive; omit the field for the server default",
                    ));
                }
                let params = StreamDiscoverParams {
                    l: get_usize("l", Some(StreamDiscoverParams::default().l))?,
                    // `None` (field absent) = the artifact's pool seed.
                    seed: decode_seed(doc)?,
                    algorithm: decode_algorithm(doc)?,
                    bnd: decode_bnd(doc)?,
                    chunk_rows,
                    ooc: decode_ooc(doc)?,
                };
                Ok(Self::DiscoverStreaming {
                    id,
                    params,
                    model: decode_model(doc)?,
                })
            }
            "swap" => {
                let path = doc
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ServeError::parse("missing string field 'path'"))?;
                if path.is_empty() {
                    return Err(ServeError::parse("'path' must be non-empty"));
                }
                Ok(Self::Swap {
                    id,
                    model: decode_model(doc)?,
                    path: path.to_string(),
                })
            }
            "info" => Ok(Self::Info { id }),
            "shutdown" => Ok(Self::Shutdown { id }),
            other => Err(ServeError::parse(format!(
                "unknown command '{other}' (expected predict_batch, discover, \
                 discover_streaming, swap, info, shutdown)"
            ))),
        }
    }
}

/// Decodes the optional `model` field (`None` = the default model).
fn decode_model(doc: &Json) -> Result<Option<String>, ServeError> {
    match doc.get("model") {
        None => Ok(None),
        Some(v) => match v.as_str() {
            Some(name) if !name.is_empty() => Ok(Some(name.to_string())),
            _ => Err(ServeError::parse("'model' must be a non-empty string")),
        },
    }
}

/// Decodes the optional `seed` field (`None` when absent).
fn decode_seed(doc: &Json) -> Result<Option<u64>, ServeError> {
    match doc.get("seed") {
        None => Ok(None),
        // Accept both a JSON integer and the lossless decimal-string
        // form.
        Some(Json::Str(s)) => s
            .parse()
            .map(Some)
            .map_err(|_| ServeError::parse("'seed' must be a u64 (number or decimal string)")),
        // Numeric seeds above 2^53 would already have been rounded by
        // f64 parsing — rejecting them (instead of silently serving a
        // *different* seed) protects the "same seed, same boxes"
        // contract; the string form carries the full u64 range.
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ServeError::parse(
                "'seed' must be a non-negative integer ≤ 2^53 \
                 (use the decimal-string form for larger seeds)",
            )
        }),
    }
}

/// Decodes the optional `algorithm` field (PRIM when absent).
fn decode_algorithm(doc: &Json) -> Result<Algorithm, ServeError> {
    match doc.get("algorithm").map(|v| v.as_str()) {
        None => Ok(Algorithm::Prim),
        Some(Some("prim")) => Ok(Algorithm::Prim),
        Some(Some("bi")) => Ok(Algorithm::BestInterval),
        Some(other) => Err(ServeError::bad_request(format!(
            "unknown algorithm {other:?} (expected \"prim\" or \"bi\")"
        ))),
    }
}

/// Decodes the optional `ooc` flag (`false` when absent).
fn decode_ooc(doc: &Json) -> Result<bool, ServeError> {
    match doc.get("ooc") {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| ServeError::parse("'ooc' must be a boolean")),
    }
}

/// Decodes the optional `bnd` field (0.5 when absent).
fn decode_bnd(doc: &Json) -> Result<f64, ServeError> {
    match doc.get("bnd") {
        None => Ok(0.5),
        Some(v) => v
            .as_f64()
            .filter(|x| x.is_finite())
            .ok_or_else(|| ServeError::parse("'bnd' must be a finite number")),
    }
}

/// Decodes a small non-negative integer (`0..=u32::MAX`) from a JSON
/// number ([`Json::as_u64`], bounded) — the shared predicate behind
/// request ids and count fields: the front reads every served frame's
/// id with it, the fleet worker's requests included, and the client
/// every reply's (one definition keeps error correlation consistent
/// with parsing).
pub fn small_uint(v: &Json) -> Option<u64> {
    v.as_u64().filter(|&x| x <= u64::from(u32::MAX))
}

/// Builds a success response frame.
pub fn ok_response(id: u64, result: Json) -> Json {
    Json::obj([
        ("id", Json::num(id as f64)),
        ("ok", Json::Bool(true)),
        ("result", result),
    ])
}

/// What an [`error_response`] carries: a wire code token and a
/// message. A [`ServeError`] is one; a protocol with codes of its own
/// served over the same envelope (the fleet's `unknown_lease`, say)
/// passes a `(code, message)` pair whose code reads as its token.
pub trait WireError {
    /// The `error.code` token.
    fn code(&self) -> &str;
    /// The `error.message` text.
    fn message(&self) -> &str;
}

impl WireError for ServeError {
    fn code(&self) -> &str {
        self.code.as_str()
    }

    fn message(&self) -> &str {
        &self.message
    }
}

impl<C: AsRef<str>, M: AsRef<str>> WireError for (C, M) {
    fn code(&self) -> &str {
        self.0.as_ref()
    }

    fn message(&self) -> &str {
        self.1.as_ref()
    }
}

/// Builds an error response frame.
pub fn error_response(id: u64, error: &impl WireError) -> Json {
    Json::obj([
        ("id", Json::num(id as f64)),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj([
                ("code", Json::str(error.code())),
                ("message", Json::str(error.message())),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_format() {
        let reqs = [
            Request::PredictBatch {
                id: 7,
                points: vec![0.25, 0.5, 0.75, 1.0],
                m: 2,
                model: None,
            },
            Request::PredictBatch {
                id: 13,
                points: vec![0.25, 0.5],
                m: 2,
                model: Some("champion".to_string()),
            },
            Request::Discover {
                id: 8,
                params: DiscoverParams {
                    l: 5_000,
                    seed: u64::MAX - 1,
                    algorithm: Algorithm::BestInterval,
                    bnd: 0.25,
                },
                model: Some("challenger".to_string()),
            },
            Request::DiscoverStreaming {
                id: 11,
                params: StreamDiscoverParams {
                    l: 2_000_000,
                    seed: Some(u64::MAX - 2),
                    algorithm: Algorithm::Prim,
                    bnd: 0.5,
                    chunk_rows: 65_536,
                    ooc: false,
                },
                model: None,
            },
            Request::DiscoverStreaming {
                id: 12,
                params: StreamDiscoverParams {
                    seed: None, // "use the artifact's pool seed"
                    ..StreamDiscoverParams::default()
                },
                model: None,
            },
            Request::DiscoverStreaming {
                id: 16,
                params: StreamDiscoverParams {
                    l: 50_000,
                    ooc: true, // chunk_rows 0 travels as an absent field
                    ..StreamDiscoverParams::default()
                },
                model: Some("champion".to_string()),
            },
            Request::Swap {
                id: 14,
                model: Some("champion".to_string()),
                path: "/models/next.redsart".to_string(),
            },
            Request::Swap {
                id: 15,
                model: None,
                path: "model.json".to_string(),
            },
            Request::Info { id: 9 },
            Request::Shutdown { id: 10 },
        ];
        for req in reqs {
            let text = req.to_json().to_string_compact();
            let doc = reds_json::from_str(&text).expect("request serializes to valid JSON");
            assert_eq!(Request::from_json(&doc).expect("decodes"), req, "{text}");
        }
    }

    #[test]
    fn non_finite_points_travel_as_marker_strings() {
        // ±∞ coordinates are legal inputs (datasets allow them), so the
        // wire format must carry them — and a NaN must arrive as a real
        // NaN so the boundary check can report its row and column.
        let req = Request::PredictBatch {
            id: 1,
            points: vec![f64::INFINITY, 0.5, f64::NEG_INFINITY, 1.0],
            m: 2,
            model: None,
        };
        let text = req.to_json().to_string_compact();
        assert!(
            text.contains("\"inf\"") && text.contains("\"-inf\""),
            "{text}"
        );
        let back = Request::from_json(&reds_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, req);
        let doc =
            reds_json::from_str(r#"{"cmd":"predict_batch","m":2,"points":[0.5,"nan"]}"#).unwrap();
        let Request::PredictBatch { points, .. } = Request::from_json(&doc).unwrap() else {
            panic!("wrong variant");
        };
        assert!(points[1].is_nan());
    }

    #[test]
    fn malformed_requests_are_parse_errors() {
        for (text, expect) in [
            (r#"{"cmd":"predict_batch"}"#, "m"),
            (r#"{"cmd":"predict_batch","m":2,"points":"zzz"}"#, "points"),
            (
                r#"{"cmd":"predict_batch","m":2,"points":[1,null]}"#,
                "points[1]",
            ),
            (r#"{"cmd":"nope"}"#, "unknown command"),
            (r#"{"id":-4,"cmd":"info"}"#, "id"),
            (r#"{"points":[1]}"#, "cmd"),
            (r#"{"cmd":"discover","seed":1.5}"#, "seed"),
            // Above 2^53, f64 parsing has already rounded the value; a
            // silently different seed would break reproducibility.
            (r#"{"cmd":"discover","seed":9007199254740994}"#, "seed"),
            (r#"{"cmd":"discover","seed":1e300}"#, "seed"),
            (r#"{"cmd":"discover","bnd":"x"}"#, "bnd"),
            (r#"{"cmd":"discover_streaming","ooc":1}"#, "ooc"),
            (
                r#"{"cmd":"predict_batch","m":2,"points":[],"model":7}"#,
                "model",
            ),
            (r#"{"cmd":"discover","model":""}"#, "model"),
            (r#"{"cmd":"swap"}"#, "path"),
            (r#"{"cmd":"swap","path":""}"#, "path"),
        ] {
            let doc = reds_json::from_str(text).expect("valid JSON");
            let err = Request::from_json(&doc).expect_err(text);
            assert_eq!(err.code, ErrorCode::Parse, "{text}");
            assert!(err.message.contains(expect), "{text} → {}", err.message);
        }
        // Unknown algorithm is semantic, not structural.
        let doc = reds_json::from_str(r#"{"cmd":"discover","algorithm":"xgboost"}"#).unwrap();
        assert_eq!(
            Request::from_json(&doc).unwrap_err().code,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn explicit_zero_chunk_rows_is_a_bad_request() {
        // The typed default (chunk_rows = 0 = "server default") must
        // stay decodable when the field is simply absent …
        let doc = reds_json::from_str(r#"{"cmd":"discover_streaming","l":100}"#).unwrap();
        let Request::DiscoverStreaming { params, .. } = Request::from_json(&doc).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(params.chunk_rows, 0);
        assert!(!params.ooc);
        // … but a client explicitly sending 0 gets a structured
        // rejection instead of a silent substitution.
        let doc =
            reds_json::from_str(r#"{"cmd":"discover_streaming","l":100,"chunk_rows":0}"#).unwrap();
        let err = Request::from_json(&doc).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("chunk_rows"), "{}", err.message);
        assert!(err.message.contains("omit"), "{}", err.message);
    }

    #[test]
    fn response_builders_emit_the_documented_shape() {
        let ok = ok_response(3, Json::obj([("x", Json::num(1.0))]));
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(ok.get("id").and_then(Json::as_f64), Some(3.0));
        let err = error_response(4, &ServeError::bad_request("boom"));
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("bad_request")
        );
    }
}
