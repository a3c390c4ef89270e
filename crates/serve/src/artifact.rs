//! The serving artifact: a fitted metamodel `f^am` bundled with the
//! training dataset `D` it was fitted on.
//!
//! `D` rides along because `discover` anchors its validation to the
//! *original* simulated labels (the paper's `D_val = D`, §8.5): PRIM's
//! stopping rule and best-box choice must not float on pseudo-labels.
//! Keeping the pair in one document makes a served `discover` fully
//! reproducible from the artifact file alone.

use std::fmt;
use std::path::Path;

use reds_art::{ModelArtifactSpec, PackedArtifact};
use reds_data::Dataset;
use reds_json::Json;
use reds_metamodel::persist::{f64_from_json, f64_to_json, usize_from_json};
use reds_metamodel::{Metamodel, SavedModel};

/// Current artifact schema version; bumped on incompatible changes.
/// Version 2 added the pool-generation provenance (`pool_seed`,
/// `pool_design`); version-1 artifacts still load, with the training
/// seed standing in as the pool seed.
pub const ARTIFACT_SCHEMA_VERSION: usize = 2;

/// The only pool design servable right now: i.i.d. uniform on
/// `[0,1]^M` (Algorithm 4, line 3 under deep uncertainty).
pub const POOL_DESIGN_UNIFORM: &str = "uniform";

/// Document-type marker distinguishing artifacts from other REDS JSON.
pub const ARTIFACT_KIND: &str = "reds-model-artifact";

/// `reds-art` pool-design code for [`POOL_DESIGN_UNIFORM`].
const ART_POOL_DESIGN_UNIFORM: u32 = 1;

/// Which on-disk format an artifact was loaded from (reported by the
/// server's `info` command).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactFormat {
    /// `reds-json` interchange document.
    Json,
    /// `.redsart` binary container.
    Art,
}

impl ArtifactFormat {
    /// Stable lowercase name (`"reds-json"` / `"redsart"`).
    pub fn name(self) -> &'static str {
        match self {
            ArtifactFormat::Json => "reds-json",
            ArtifactFormat::Art => "redsart",
        }
    }
}

/// The model inside a [`ModelArtifact`], tagged with the format it was
/// loaded from. Both formats decode to the same owned [`SavedModel`],
/// so serving results are bit-identical regardless of variant.
pub enum ServedModel {
    /// Decoded from the JSON interchange format.
    Json(SavedModel),
    /// Decoded from a `.redsart` container.
    Art(SavedModel),
}

impl ServedModel {
    /// The decoded model, whichever format it came from.
    pub fn as_saved(&self) -> &SavedModel {
        match self {
            ServedModel::Json(m) | ServedModel::Art(m) => m,
        }
    }

    /// Family tag ("f", "x", "s").
    pub fn family(&self) -> &'static str {
        self.as_saved().family()
    }

    /// Input dimensionality.
    pub fn m(&self) -> usize {
        self.as_saved().m()
    }

    /// Which format this model came from.
    pub fn format(&self) -> ArtifactFormat {
        match self {
            ServedModel::Json(_) => ArtifactFormat::Json,
            ServedModel::Art(_) => ArtifactFormat::Art,
        }
    }
}

impl From<SavedModel> for ServedModel {
    fn from(m: SavedModel) -> Self {
        ServedModel::Json(m)
    }
}

impl Metamodel for ServedModel {
    fn predict(&self, x: &[f64]) -> f64 {
        self.as_saved().predict(x)
    }

    fn predict_batch(&self, points: &[f64], m: usize) -> Vec<f64> {
        self.as_saved().predict_batch(points, m)
    }

    fn hard_labels(&self, points: &[f64], m: usize, bnd: f64) -> Vec<f64> {
        self.as_saved().hard_labels(points, m, bnd)
    }
}

/// A fitted metamodel plus its training data, ready to serve.
pub struct ModelArtifact {
    /// Name of the benchmark function (or data source) `D` came from.
    pub function: String,
    /// Seed the training run used (provenance; not consumed when
    /// serving).
    pub seed: u64,
    /// Seed of the served pseudo-label pool: a `discover_streaming`
    /// request without an explicit seed streams exactly this pool, so
    /// a served run is reproducible from the artifact file alone.
    pub pool_seed: u64,
    /// Design of the served pool (currently always
    /// [`POOL_DESIGN_UNIFORM`]; recorded so future designs cannot be
    /// confused with old artifacts).
    pub pool_design: String,
    /// The fitted metamodel, tagged with its source format.
    pub model: ServedModel,
    /// The training dataset `D` — the validation anchor for `discover`.
    pub train: Dataset,
}

/// Why an artifact failed to load.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not valid JSON.
    Parse(reds_json::ParseError),
    /// The document is valid JSON but not a valid artifact.
    Format(String),
    /// A `.redsart` file failed its verification chain.
    Art(reds_art::ArtError),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "cannot read artifact: {e}"),
            Self::Parse(e) => write!(f, "artifact is not valid JSON: {e}"),
            Self::Format(m) => write!(f, "invalid artifact: {m}"),
            Self::Art(e) => write!(f, "invalid artifact: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<reds_art::ArtError> for ArtifactError {
    fn from(e: reds_art::ArtError) -> Self {
        Self::Art(e)
    }
}

fn format_err(message: impl Into<String>) -> ArtifactError {
    ArtifactError::Format(message.into())
}

impl ModelArtifact {
    /// Which on-disk format this artifact was loaded from (or will
    /// save to).
    pub fn format(&self) -> ArtifactFormat {
        self.model.format()
    }

    /// Serializes the artifact (model, training data, provenance).
    pub fn to_json(&self) -> Json {
        let model = self.model.as_saved();
        Json::obj([
            ("kind", Json::str(ARTIFACT_KIND)),
            ("schema_version", Json::num(ARTIFACT_SCHEMA_VERSION as f64)),
            ("function", Json::str(self.function.clone())),
            // u64 seeds exceed the exact-integer range of f64; a decimal
            // string survives losslessly.
            ("seed", Json::str(self.seed.to_string())),
            ("pool_seed", Json::str(self.pool_seed.to_string())),
            ("pool_design", Json::str(self.pool_design.clone())),
            ("family", Json::str(model.family())),
            ("m", Json::num(self.train.m() as f64)),
            ("model", model.to_json()),
            (
                "train",
                Json::obj([
                    (
                        "points",
                        Json::arr(self.train.points().iter().map(|&v| f64_to_json(v))),
                    ),
                    (
                        "labels",
                        Json::arr(self.train.labels().iter().map(|&v| f64_to_json(v))),
                    ),
                ]),
            ),
        ])
    }

    /// Decodes and validates an artifact document.
    pub fn from_json(doc: &Json) -> Result<Self, ArtifactError> {
        let str_field = |key: &str| -> Result<&str, ArtifactError> {
            doc.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format_err(format!("missing string field '{key}'")))
        };
        let kind = str_field("kind")?;
        if kind != ARTIFACT_KIND {
            return Err(format_err(format!(
                "document kind '{kind}' is not '{ARTIFACT_KIND}'"
            )));
        }
        let version = doc
            .get("schema_version")
            .and_then(Json::as_f64)
            .ok_or_else(|| format_err("missing 'schema_version'"))?;
        if version != 1.0 && version != ARTIFACT_SCHEMA_VERSION as f64 {
            return Err(format_err(format!(
                "schema version {version} (this build reads 1 and {ARTIFACT_SCHEMA_VERSION})"
            )));
        }
        let function = str_field("function")?.to_string();
        let seed: u64 = str_field("seed")?
            .parse()
            .map_err(|_| format_err("'seed' must be a decimal u64 string"))?;
        // Version 1 predates pool provenance: fall back to the training
        // seed, which v1-era tooling reused for served pools.
        let (pool_seed, pool_design) = if version == 1.0 {
            (seed, POOL_DESIGN_UNIFORM.to_string())
        } else {
            let pool_seed = str_field("pool_seed")?
                .parse()
                .map_err(|_| format_err("'pool_seed' must be a decimal u64 string"))?;
            let pool_design = str_field("pool_design")?.to_string();
            if pool_design != POOL_DESIGN_UNIFORM {
                return Err(format_err(format!(
                    "unsupported pool design '{pool_design}' (this build serves '{POOL_DESIGN_UNIFORM}')"
                )));
            }
            (pool_seed, pool_design)
        };
        // Checked decode (shared with `metamodel::persist`): rejects
        // negatives, fractions, and values above `u32::MAX`, so a
        // 32-bit target can never silently truncate `m`.
        let m = usize_from_json(
            doc.get("m").ok_or_else(|| format_err("missing 'm'"))?,
            "'m'",
        )
        .map_err(|e| format_err(e.to_string()))?;
        if m == 0 {
            return Err(format_err("'m' must be a positive integer"));
        }
        let model = SavedModel::from_json(
            doc.get("model")
                .ok_or_else(|| format_err("missing 'model'"))?,
        )
        .map_err(|e| format_err(e.to_string()))?;
        if model.m() != m {
            return Err(format_err(format!(
                "model expects {} input columns but the artifact declares m = {m}",
                model.m()
            )));
        }
        let family = str_field("family")?;
        if family != model.family() {
            return Err(format_err(format!(
                "artifact declares family '{family}' but the embedded model is '{}'",
                model.family()
            )));
        }
        let train_doc = doc
            .get("train")
            .ok_or_else(|| format_err("missing 'train'"))?;
        let floats = |key: &str| -> Result<Vec<f64>, ArtifactError> {
            train_doc
                .get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format_err(format!("'train.{key}' must be an array")))?
                .iter()
                .map(|v| f64_from_json(v).map_err(|e| format_err(e.to_string())))
                .collect()
        };
        let points = floats("points")?;
        let labels = floats("labels")?;
        let train = Dataset::new(points, labels, m).map_err(|e| format_err(e.to_string()))?;
        if train.is_empty() {
            return Err(format_err("training data is empty"));
        }
        Ok(Self {
            function,
            seed,
            pool_seed,
            pool_design,
            model: ServedModel::Json(model),
            train,
        })
    }

    /// Writes the artifact as pretty JSON.
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        let mut text = self.to_json().to_string_pretty();
        text.push('\n');
        std::fs::write(path, text)?;
        Ok(())
    }

    /// Packs the artifact into the `.redsart` binary container.
    pub fn save_art(&self, path: &Path) -> Result<(), ArtifactError> {
        if self.pool_design != POOL_DESIGN_UNIFORM {
            return Err(format_err(format!(
                "unsupported pool design '{}' (this build packs '{POOL_DESIGN_UNIFORM}')",
                self.pool_design
            )));
        }
        reds_art::write_model_artifact(
            path,
            &ModelArtifactSpec {
                function: &self.function,
                seed: self.seed,
                pool_seed: self.pool_seed,
                pool_design: ART_POOL_DESIGN_UNIFORM,
                model: self.model.as_saved(),
                train: &self.train,
            },
        )?;
        Ok(())
    }

    /// Reads and validates an artifact file in either format. The file
    /// is read once, and only if it is a regular file; the format is
    /// sniffed from its leading bytes (extensions lie, leading bytes
    /// don't): `.redsart` containers decode with no JSON parsing;
    /// anything else takes the JSON interchange path. Either way the
    /// artifact is fully owned once this returns.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let bytes = reds_art::read_regular_file(path)?;
        if bytes.starts_with(&reds_art::MAGIC) {
            return Self::from_art_bytes(bytes);
        }
        let text = String::from_utf8(bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let doc = reds_json::from_str(&text).map_err(ArtifactError::Parse)?;
        Self::from_json(&doc)
    }

    /// Reads a `.redsart` artifact once, then verifies and decodes it;
    /// the file is not read again afterwards.
    pub fn load_art(path: &Path) -> Result<Self, ArtifactError> {
        Self::from_art_bytes(reds_art::read_regular_file(path)?)
    }

    fn from_art_bytes(bytes: Vec<u8>) -> Result<Self, ArtifactError> {
        let packed = PackedArtifact::from_bytes(bytes)?;
        if packed.pool_design != ART_POOL_DESIGN_UNIFORM {
            return Err(format_err(format!(
                "unsupported pool design code {} (this build serves '{POOL_DESIGN_UNIFORM}')",
                packed.pool_design
            )));
        }
        Ok(Self {
            function: packed.function,
            seed: packed.seed,
            pool_seed: packed.pool_seed,
            pool_design: POOL_DESIGN_UNIFORM.to_string(),
            model: ServedModel::Art(packed.model),
            train: packed.train,
        })
    }
}

/// A small deterministic forest artifact shared by this crate's unit
/// tests (batch, registry, server).
#[cfg(test)]
pub(crate) fn tiny_artifact(seed: u64) -> ModelArtifact {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reds_metamodel::{RandomForest, RandomForestParams};

    let mut rng = StdRng::seed_from_u64(seed);
    let train = Dataset::from_fn((0..120 * 2).map(|_| rng.gen::<f64>()).collect(), 2, |x| {
        if x[0] > 0.5 && x[1] > 0.5 {
            1.0
        } else {
            0.0
        }
    })
    .unwrap();
    let params = RandomForestParams {
        n_trees: 12,
        ..Default::default()
    };
    let model = RandomForest::fit(&train, &params, &mut rng);
    ModelArtifact {
        function: "corner".to_string(),
        seed,
        pool_seed: seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1),
        pool_design: POOL_DESIGN_UNIFORM.to_string(),
        model: SavedModel::Forest(model).into(),
        train,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redsart_round_trip_is_bit_identical_and_reports_its_format() {
        use reds_metamodel::Metamodel;
        let artifact = tiny_artifact(21);
        let dir = std::env::temp_dir().join(format!("reds-artifact-art-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.redsart");
        artifact.save_art(&path).expect("pack");
        let loaded = ModelArtifact::load(&path).expect("map");
        assert_eq!(loaded.format(), ArtifactFormat::Art);
        assert_eq!(artifact.format(), ArtifactFormat::Json);
        assert_eq!(loaded.function, artifact.function);
        assert_eq!(loaded.seed, artifact.seed);
        assert_eq!(loaded.pool_seed, artifact.pool_seed);
        assert_eq!(loaded.train, artifact.train);
        let q: Vec<f64> = (0..64).map(|i| (i % 13) as f64 / 13.0).collect();
        let a = artifact.model.predict_batch(&q, 2);
        let b = loaded.model.predict_batch(&q, 2);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        // A .redsart-loaded artifact saves back to JSON losslessly.
        let back = dir.join("back.json");
        loaded.save(&back).expect("save");
        let reloaded = ModelArtifact::load(&back).expect("reload");
        assert_eq!(bits(&reloaded.model.predict_batch(&q, 2)), bits(&a));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `load` and `load_art` of a path that is not a regular file fail
    /// at once, before reading a byte.
    fn assert_refused_as_not_regular(path: &Path) {
        for load in [ModelArtifact::load, ModelArtifact::load_art] {
            match load(path) {
                Err(ArtifactError::Io(e)) => assert!(
                    e.to_string().contains("not a regular file"),
                    "{}: {e}",
                    path.display()
                ),
                Err(e) => panic!("{}: wrong error kind: {e}", path.display()),
                Ok(_) => panic!("{} loaded", path.display()),
            }
        }
    }

    /// A character device that never ends (read to its end, it would
    /// grow the process until it dies).
    #[cfg(unix)]
    #[test]
    fn dev_zero_is_refused_at_once() {
        assert_refused_as_not_regular(Path::new("/dev/zero"));
    }

    #[test]
    fn a_directory_is_refused() {
        assert_refused_as_not_regular(&std::env::temp_dir());
    }

    #[test]
    fn artifact_round_trips_through_a_file() {
        use reds_metamodel::Metamodel;
        let artifact = tiny_artifact(1);
        let dir = std::env::temp_dir().join(format!("reds-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        artifact.save(&path).expect("save");
        let loaded = ModelArtifact::load(&path).expect("load");
        assert_eq!(loaded.function, "corner");
        assert_eq!(loaded.seed, 1);
        assert_eq!(loaded.train, artifact.train);
        let q: Vec<f64> = (0..64).map(|i| (i % 13) as f64 / 13.0).collect();
        let a = artifact.model.predict_batch(&q, 2);
        let b = loaded.model.predict_batch(&q, 2);
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn u64_seed_survives_beyond_f64_precision() {
        let mut artifact = tiny_artifact(2);
        artifact.seed = u64::MAX - 3;
        let doc = reds_json::from_str(&artifact.to_json().to_string_compact()).unwrap();
        let loaded = ModelArtifact::from_json(&doc).expect("round trip");
        assert_eq!(loaded.seed, u64::MAX - 3);
    }

    #[test]
    fn mismatched_m_is_rejected() {
        let artifact = tiny_artifact(3);
        let mut doc = artifact.to_json();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "m" {
                    *v = Json::num(7.0);
                }
            }
        }
        assert!(ModelArtifact::from_json(&doc).is_err());
    }

    #[test]
    fn mismatched_family_is_rejected() {
        let artifact = tiny_artifact(4);
        let mut doc = artifact.to_json();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "family" {
                    *v = Json::str("s");
                }
            }
        }
        let err = match ModelArtifact::from_json(&doc) {
            Err(e) => e,
            Ok(_) => panic!("family disagreeing with the model must be rejected"),
        };
        assert!(err.to_string().contains("family"), "{err}");
    }

    #[test]
    fn pool_provenance_round_trips() {
        let mut artifact = tiny_artifact(8);
        artifact.pool_seed = u64::MAX - 9;
        let doc = reds_json::from_str(&artifact.to_json().to_string_compact()).unwrap();
        let loaded = ModelArtifact::from_json(&doc).expect("round trip");
        assert_eq!(loaded.pool_seed, u64::MAX - 9);
        assert_eq!(loaded.pool_design, POOL_DESIGN_UNIFORM);
    }

    #[test]
    fn v1_artifacts_still_load_with_derived_pool_seed() {
        let artifact = tiny_artifact(9);
        let mut doc = artifact.to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "pool_seed" && k != "pool_design");
            for (k, v) in pairs.iter_mut() {
                if k == "schema_version" {
                    *v = Json::num(1.0);
                }
            }
        }
        let loaded = ModelArtifact::from_json(&doc).expect("v1 artifacts must load");
        assert_eq!(loaded.pool_seed, loaded.seed);
        assert_eq!(loaded.pool_design, POOL_DESIGN_UNIFORM);
    }

    #[test]
    fn unknown_pool_design_is_rejected() {
        let artifact = tiny_artifact(10);
        let mut doc = artifact.to_json();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "pool_design" {
                    *v = Json::str("sobol");
                }
            }
        }
        let err = artifact_err(ModelArtifact::from_json(&doc));
        assert!(err.to_string().contains("pool design"), "{err}");
    }

    fn artifact_err(r: Result<ModelArtifact, ArtifactError>) -> ArtifactError {
        match r {
            Err(e) => e,
            Ok(_) => panic!("expected an artifact error"),
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let doc = reds_json::from_str(r#"{"kind":"something-else"}"#).unwrap();
        assert!(matches!(
            ModelArtifact::from_json(&doc),
            Err(ArtifactError::Format(_))
        ));
    }
}
