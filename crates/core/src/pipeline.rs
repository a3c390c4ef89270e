//! The REDS pipeline (Algorithm 4).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds_data::Dataset;
use reds_metamodel::{GbdtParams, Metamodel, RandomForestParams, SvmParams, Trainer};
use reds_ooc::{OocConfig, OocPool};
use reds_sampling::{logit_normal, mixed_design, uniform};
use reds_stream::{
    stream_art, stream_pool, Labeling, SamplerSource, SliceSource, StreamConfig, StreamError,
    StreamSampler,
};
use reds_subgroup::{SdResult, SubgroupDiscovery};

use crate::{RedsError, StreamingError};

/// A unique scratch path for the pool artifact of one out-of-core run,
/// under the stream config's spill parent (or the system temp dir).
fn scratch_artifact_path(stream: &StreamConfig) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let parent = stream.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    parent.join(format!("reds-ooc-{}-{seq}.redsart", std::process::id()))
}

/// Removes the scratch artifact when the run ends, error paths
/// included (the in-flight write itself is covered by `ArtWriter`'s
/// own drop guard).
struct ScratchFile(PathBuf);

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Distribution from which REDS draws the `L` new points (Algorithm 4,
/// line 3). Must match the distribution `p(x)` of the original data —
/// the statistical argument of §6.2 relies on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NewPointSampler {
    /// i.i.d. uniform on `[0,1]^M` — the deep-uncertainty default.
    Uniform,
    /// Even-indexed inputs on the discrete grid `{0.1,…,0.9}`, odd ones
    /// continuous (the mixed-inputs experiment, §9.1.2).
    MixedEven,
    /// i.i.d. logit-normal per coordinate (the semi-supervised
    /// experiment, §9.4).
    LogitNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
}

impl NewPointSampler {
    fn sample(&self, n: usize, m: usize, rng: &mut StdRng) -> Vec<f64> {
        match *self {
            Self::Uniform => uniform(n, m, rng),
            Self::MixedEven => mixed_design(n, m, rng),
            Self::LogitNormal { mu, sigma } => logit_normal(n, m, mu, sigma, rng),
        }
    }

    /// The chunkable equivalent of this sampler, when one exists.
    /// `MixedEven` has none: its Latin-hypercube half stratifies over
    /// the *total* row count, so chunked generation cannot reproduce
    /// the monolithic design.
    fn streamable(&self) -> Result<StreamSampler, StreamError> {
        match *self {
            Self::Uniform => Ok(StreamSampler::Uniform),
            Self::LogitNormal { mu, sigma } => Ok(StreamSampler::LogitNormal { mu, sigma }),
            Self::MixedEven => Err(StreamError::UnstreamableSampler {
                name: "mixed-inputs (Latin hypercube)",
            }),
        }
    }
}

/// REDS configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RedsConfig {
    /// Number of pseudo-labelled points `L` (paper defaults: 10⁵ with
    /// PRIM, 10⁴ with BI — Table 2).
    pub l: usize,
    /// Hard-label threshold `bnd` on the metamodel output.
    pub bnd: f64,
    /// Use raw metamodel probabilities instead of hard labels — the "p"
    /// variants (`y_new = f^am(x)`, §6.1).
    pub probability_labels: bool,
    /// Distribution of the new points.
    pub sampler: NewPointSampler,
}

impl Default for RedsConfig {
    fn default() -> Self {
        Self {
            l: 100_000,
            bnd: 0.5,
            probability_labels: false,
            sampler: NewPointSampler::Uniform,
        }
    }
}

impl RedsConfig {
    /// Sets the number of new points `L`.
    pub fn with_l(mut self, l: usize) -> Self {
        self.l = l;
        self
    }

    /// Switches to probability pseudo-labels (the "p" variants).
    pub fn with_probability_labels(mut self) -> Self {
        self.probability_labels = true;
        self
    }

    /// Sets the new-point distribution.
    pub fn with_sampler(mut self, sampler: NewPointSampler) -> Self {
        self.sampler = sampler;
        self
    }
}

/// The REDS scenario-discovery pipeline: a metamodel trainer plus a
/// resampling configuration, applied to any subgroup-discovery
/// algorithm.
pub struct Reds {
    trainer: Box<dyn Trainer>,
    config: RedsConfig,
}

impl Reds {
    /// REDS with an arbitrary metamodel trainer.
    pub fn new(trainer: Box<dyn Trainer>, config: RedsConfig) -> Self {
        Self { trainer, config }
    }

    /// REDS with a random-forest metamodel ("Rf" family).
    pub fn random_forest(params: RandomForestParams, config: RedsConfig) -> Self {
        Self::new(Box::new(params), config)
    }

    /// REDS with an XGBoost-style boosted-tree metamodel ("Rx" family).
    pub fn xgboost(params: GbdtParams, config: RedsConfig) -> Self {
        Self::new(Box::new(params), config)
    }

    /// REDS with an RBF-SVM metamodel ("Rs" family; hard labels only).
    pub fn svm(params: SvmParams, config: RedsConfig) -> Self {
        Self::new(Box::new(params), config)
    }

    /// The configuration in use.
    pub fn config(&self) -> &RedsConfig {
        &self.config
    }

    /// Metamodel family tag ("f", "x", or "s").
    pub fn metamodel_tag(&self) -> &'static str {
        self.trainer.tag()
    }

    /// Trains the metamodel on `d` (Algorithm 4, line 2). Exposed so
    /// callers can inspect or reuse `f^am`.
    pub fn train_metamodel(
        &self,
        d: &Dataset,
        rng: &mut StdRng,
    ) -> Result<Box<dyn Metamodel>, RedsError> {
        if d.is_empty() {
            return Err(RedsError::EmptyTrainingData);
        }
        Ok(self.trainer.train(d, rng))
    }

    /// Pseudo-labels `points` with a fitted metamodel (lines 4–6).
    ///
    /// Labeling all `L` points is one batch call rather than `L` virtual
    /// dispatches — the hot path at the paper's default `L = 10⁵`. Hard
    /// labels go through [`Metamodel::hard_labels`], probability labels
    /// through [`Metamodel::predict_batch`]. Ensemble models override
    /// both with tree-major kernels that fan out across threads and
    /// dispatch per call to the runtime-selected SIMD backend
    /// (`reds_metamodel::kernels`, scalar ≡ AVX2 bit for bit); the
    /// random forest's `hard_labels` also stops walking trees for a row
    /// once the remaining trees cannot change its label. Both calls give
    /// the labels [`Labeling::apply`] gives, bit for bit, which keeps
    /// `run` ≡ `discover_streaming` ≡ `discover_out_of_core`.
    fn pseudo_label(
        &self,
        model: &dyn Metamodel,
        points: Vec<f64>,
        m: usize,
    ) -> Result<Dataset, RedsError> {
        if !points.len().is_multiple_of(m) {
            return Err(RedsError::PoolShapeMismatch {
                pool_len: points.len(),
                m,
            });
        }
        // Datasets reject NaN coordinates; surface that as a pipeline
        // error instead of panicking below (user-supplied pools can
        // contain anything).
        if let Some(at) = points.iter().position(|v| v.is_nan()) {
            return Err(RedsError::NanInPoints {
                row: at / m,
                column: at % m,
            });
        }
        // The streaming paths label with `Labeling::apply` on
        // `predict_batch`; the bit-identity contract between `run` and
        // `discover_streaming` hangs on `hard_labels` giving exactly
        // that `p > bnd` rule.
        let labels = match self.labeling() {
            Labeling::Hard { bnd } => model.hard_labels(&points, m, bnd),
            labeling => model
                .predict_batch(&points, m)
                .into_iter()
                .map(|p| labeling.apply(p))
                .collect(),
        };
        Ok(Dataset::new(points, labels, m).expect("shape and finiteness checked above"))
    }

    /// Runs the full REDS pipeline (Algorithm 4): train `AM` on `d`,
    /// pseudo-label `L` fresh points, run `sd` on them.
    ///
    /// # Errors
    ///
    /// [`RedsError::EmptyTrainingData`] when `d` is empty;
    /// [`RedsError::ZeroNewPoints`] when `config.l == 0`.
    pub fn run(
        &self,
        d: &Dataset,
        sd: &dyn SubgroupDiscovery,
        rng: &mut StdRng,
    ) -> Result<SdResult, RedsError> {
        if self.config.l == 0 {
            return Err(RedsError::ZeroNewPoints);
        }
        let model = self.train_metamodel(d, rng)?;
        let points = self.config.sampler.sample(self.config.l, d.m(), rng);
        let d_new = self.pseudo_label(model.as_ref(), points, d.m())?;
        let mut sd_rng = StdRng::seed_from_u64(rng.gen());
        // The validation data stays the *original* simulated dataset
        // (`D_val = D`, §8.5): PRIM's stopping rule and best-box choice
        // are anchored to real labels, so the pseudo-labelled search
        // cannot shrink the box below the support of the evidence.
        Ok(sd.discover(&d_new, d, &mut sd_rng))
    }

    /// The labeling rule of this configuration (hard threshold or the
    /// probability "p" variant), shared with the streaming path so
    /// both produce bit-identical pseudo-labels.
    fn labeling(&self) -> Labeling {
        if self.config.probability_labels {
            Labeling::Probability
        } else {
            Labeling::Hard {
                bnd: self.config.bnd,
            }
        }
    }

    /// Streaming REDS (Algorithm 4 in bounded memory): identical to
    /// [`Reds::run`] — bit for bit, for every chunk size — but the `L`
    /// new points are generated, pseudo-labeled, and argsorted in
    /// chunks of `stream.chunk_rows` rows, with the per-column sort
    /// runs spilled to disk and k-way merged. The full `L × M` point
    /// buffer is materialized only once, at the final hand-off to the
    /// subgroup-discovery algorithm (which needs random access to the
    /// values); the construction pipeline itself never holds more than
    /// one chunk plus `O(runs)` merge state.
    ///
    /// The discovered boxes are bit-identical to [`Reds::run`] with the
    /// same `rng` because (1) the streamable samplers draw
    /// element-sequentially, so chunked generation replays the
    /// monolithic draw stream and leaves `rng` in the same state;
    /// (2) `predict_batch` outputs are per-row, independent of batch
    /// composition; (3) the out-of-core merge reproduces
    /// `SortedView::new`'s `(value, row)` order exactly, and the
    /// algorithms consume it through
    /// [`SubgroupDiscovery::discover_presorted`].
    ///
    /// # Errors
    ///
    /// Everything [`Reds::run`] reports (wrapped in
    /// [`StreamingError::Pipeline`]), plus
    /// [`reds_stream::StreamError::UnstreamableSampler`] for the
    /// mixed-inputs design and spill-store failures
    /// ([`StreamingError::Stream`]).
    pub fn discover_streaming(
        &self,
        d: &Dataset,
        sd: &dyn SubgroupDiscovery,
        rng: &mut StdRng,
        stream: &StreamConfig,
    ) -> Result<SdResult, StreamingError> {
        if self.config.l == 0 {
            return Err(RedsError::ZeroNewPoints.into());
        }
        let model = self.train_metamodel(d, rng)?;
        let sampler = self.config.sampler.streamable()?;
        let mut source = SamplerSource::new(sampler, self.config.l, d.m(), rng.clone());
        let pool = stream_pool(
            &mut source,
            &mut |points, m| Ok(model.predict_batch(points, m)),
            self.labeling(),
            stream,
        )?;
        // Adopt the advanced generator state so the SD seed below (and
        // anything the caller draws later) matches the monolithic path.
        *rng = source.into_rng();
        let mut sd_rng = StdRng::seed_from_u64(rng.gen());
        Ok(sd.discover_presorted(&pool.dataset, pool.view, d, &mut sd_rng))
    }

    /// Out-of-core REDS: like [`Reds::discover_streaming`], but the
    /// pseudo-labeled pool is **never materialized in memory at all**.
    /// The streaming pipeline writes it to a `.redsart` artifact
    /// (sorted columns with per-page key fences), and subgroup
    /// discovery runs against a paged, rank-addressable column store
    /// over that artifact ([`reds_ooc::OocPool`]) whose resident set is
    /// bounded by [`OocConfig::cache_bytes`] — independent of `L`. The
    /// validation data `d` (the paper's `D_val = D`) stays in memory.
    ///
    /// The discovered boxes are bit-identical to [`Reds::run`] and
    /// [`Reds::discover_streaming`] with the same `rng`: the store
    /// serves every scan in the exact `(value, row)` /
    /// ascending-row orders of the in-memory `SortedView` path, and
    /// the generic peel/search implementations keep every float
    /// summation in the same association.
    ///
    /// The artifact and the membership-mask scratch file live beside
    /// the spill directory (`stream.spill_dir`, defaulting to the
    /// system temp dir) and are removed when the run ends, on error
    /// paths included.
    ///
    /// # Errors
    ///
    /// Everything [`Reds::discover_streaming`] reports, plus
    /// [`StreamingError::OutOfCore`] for artifact/paging failures and
    /// [`StreamingError::NoPagedPath`] when `sd` (or its configuration
    /// — e.g. PRIM with pasting) cannot run without random access to
    /// the full pool.
    pub fn discover_out_of_core(
        &self,
        d: &Dataset,
        sd: &dyn SubgroupDiscovery,
        rng: &mut StdRng,
        stream: &StreamConfig,
        ooc: &OocConfig,
    ) -> Result<SdResult, StreamingError> {
        if self.config.l == 0 {
            return Err(RedsError::ZeroNewPoints.into());
        }
        let model = self.train_metamodel(d, rng)?;
        let sampler = self.config.sampler.streamable()?;
        let mut source = SamplerSource::new(sampler, self.config.l, d.m(), rng.clone());
        let art_path = scratch_artifact_path(stream);
        if let Some(parent) = art_path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let _guard = ScratchFile(art_path.clone());
        stream_art(
            &mut source,
            &mut |points, m| Ok(model.predict_batch(points, m)),
            self.labeling(),
            stream,
            &art_path,
            ooc.page_rows,
        )?;
        // Adopt the advanced generator state so the SD seed below (and
        // anything the caller draws later) matches the monolithic path.
        *rng = source.into_rng();
        let mut sd_rng = StdRng::seed_from_u64(rng.gen());
        let mut pool = OocPool::open(&art_path, ooc)?;
        let result = sd.discover_paged(&mut pool, d, &mut sd_rng);
        drop(pool);
        result.ok_or(StreamingError::NoPagedPath {
            algorithm: sd.name(),
        })
    }

    /// Streaming variant of [`Reds::run_on_pool`]: pseudo-labels a
    /// caller-provided pool chunk by chunk with the out-of-core sort.
    /// Bit-identical to [`Reds::run_on_pool`] for every chunk size.
    ///
    /// # Errors
    ///
    /// As [`Reds::run_on_pool`], with shape/NaN problems reported
    /// through [`StreamingError::Stream`].
    pub fn discover_streaming_on_pool(
        &self,
        d: &Dataset,
        pool: &[f64],
        sd: &dyn SubgroupDiscovery,
        rng: &mut StdRng,
        stream: &StreamConfig,
    ) -> Result<SdResult, StreamingError> {
        if pool.is_empty() {
            return Err(RedsError::ZeroNewPoints.into());
        }
        let model = self.train_metamodel(d, rng)?;
        let mut source = SliceSource::new(pool, d.m())?;
        let streamed = stream_pool(
            &mut source,
            &mut |points, m| Ok(model.predict_batch(points, m)),
            self.labeling(),
            stream,
        )?;
        let mut sd_rng = StdRng::seed_from_u64(rng.gen());
        Ok(sd.discover_presorted(&streamed.dataset, streamed.view, d, &mut sd_rng))
    }

    /// Semi-supervised REDS (§6.1, §9.4): instead of sampling fresh
    /// points, pseudo-labels a caller-provided unlabeled pool drawn from
    /// the same `p(x)` as `d` and runs `sd` on it.
    ///
    /// # Errors
    ///
    /// [`RedsError::EmptyTrainingData`] when `d` is empty;
    /// [`RedsError::ZeroNewPoints`] when the pool is empty;
    /// [`RedsError::PoolShapeMismatch`] when the pool width disagrees
    /// with `d.m()`.
    pub fn run_on_pool(
        &self,
        d: &Dataset,
        pool: &[f64],
        sd: &dyn SubgroupDiscovery,
        rng: &mut StdRng,
    ) -> Result<SdResult, RedsError> {
        if pool.is_empty() {
            return Err(RedsError::ZeroNewPoints);
        }
        let model = self.train_metamodel(d, rng)?;
        let d_new = self.pseudo_label(model.as_ref(), pool.to_vec(), d.m())?;
        let mut sd_rng = StdRng::seed_from_u64(rng.gen());
        Ok(sd.discover(&d_new, d, &mut sd_rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use reds_subgroup::{BestInterval, Prim};

    fn corner_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::from_fn((0..n * 2).map(|_| rng.gen::<f64>()).collect(), 2, |x| {
            if x[0] > 0.55 && x[1] > 0.55 {
                1.0
            } else {
                0.0
            }
        })
        .unwrap()
    }

    fn quick_forest() -> RandomForestParams {
        RandomForestParams {
            n_trees: 50,
            ..Default::default()
        }
    }

    #[test]
    fn reds_with_prim_finds_the_corner() {
        let d = corner_data(200, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let reds = Reds::random_forest(quick_forest(), RedsConfig::default().with_l(3_000));
        let result = reds.run(&d, &Prim::default(), &mut rng).unwrap();
        let b = result.last_box().unwrap();
        let test = corner_data(2_000, 3);
        let precision = b.mean_inside(&test).unwrap();
        assert!(precision > 0.8, "test precision {precision}");
    }

    #[test]
    fn probability_labels_produce_soft_dataset_behaviour() {
        let d = corner_data(150, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let reds = Reds::random_forest(
            quick_forest(),
            RedsConfig::default()
                .with_l(2_000)
                .with_probability_labels(),
        );
        let result = reds.run(&d, &Prim::default(), &mut rng).unwrap();
        assert!(!result.boxes.is_empty());
    }

    #[test]
    fn reds_with_bi_returns_single_box() {
        let d = corner_data(200, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let reds = Reds::xgboost(
            GbdtParams {
                n_rounds: 40,
                ..Default::default()
            },
            RedsConfig::default().with_l(2_000),
        );
        let result = reds.run(&d, &BestInterval::default(), &mut rng).unwrap();
        assert_eq!(result.boxes.len(), 1);
    }

    #[test]
    fn svm_variant_runs() {
        let d = corner_data(150, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let reds = Reds::svm(SvmParams::default(), RedsConfig::default().with_l(1_000));
        let result = reds.run(&d, &Prim::default(), &mut rng).unwrap();
        assert!(!result.boxes.is_empty());
        assert_eq!(reds.metamodel_tag(), "s");
    }

    #[test]
    fn empty_data_errors() {
        let d = Dataset::empty(2).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let reds = Reds::random_forest(quick_forest(), RedsConfig::default());
        assert!(matches!(
            reds.run(&d, &Prim::default(), &mut rng),
            Err(RedsError::EmptyTrainingData)
        ));
    }

    #[test]
    fn zero_l_errors() {
        let d = corner_data(50, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let reds = Reds::random_forest(quick_forest(), RedsConfig::default().with_l(0));
        assert!(matches!(
            reds.run(&d, &Prim::default(), &mut rng),
            Err(RedsError::ZeroNewPoints)
        ));
    }

    #[test]
    fn pool_with_nan_returns_an_error_not_a_panic() {
        let d = corner_data(60, 20);
        let mut rng = StdRng::seed_from_u64(21);
        let reds = Reds::random_forest(quick_forest(), RedsConfig::default());
        let mut pool = vec![0.5; 10];
        pool[3] = f64::NAN;
        assert!(matches!(
            reds.run_on_pool(&d, &pool, &Prim::default(), &mut rng),
            Err(RedsError::NanInPoints { row: 1, column: 1 })
        ));
    }

    #[test]
    fn pool_entry_point_validates_shape() {
        let d = corner_data(80, 13);
        let mut rng = StdRng::seed_from_u64(14);
        let reds = Reds::random_forest(quick_forest(), RedsConfig::default());
        let bad_pool = vec![0.5; 5]; // not a multiple of m = 2
        assert!(matches!(
            reds.run_on_pool(&d, &bad_pool, &Prim::default(), &mut rng),
            Err(RedsError::PoolShapeMismatch { .. })
        ));
        let pool = uniform(500, 2, &mut rng);
        let result = reds
            .run_on_pool(&d, &pool, &Prim::default(), &mut rng)
            .unwrap();
        assert!(!result.boxes.is_empty());
    }

    #[test]
    fn mixed_sampler_respects_discrete_grid() {
        let mut rng = StdRng::seed_from_u64(15);
        let pts = NewPointSampler::MixedEven.sample(100, 4, &mut rng);
        for row in pts.chunks_exact(4) {
            assert!(reds_sampling::DISCRETE_LEVELS
                .iter()
                .any(|&l| (row[0] - l).abs() < 1e-12));
        }
    }

    fn bounds_bits(result: &SdResult) -> Vec<(u64, u64)> {
        result
            .boxes
            .iter()
            .flat_map(|b| {
                (0..b.m()).map(|j| {
                    let (lo, hi) = b.bound(j);
                    (lo.to_bits(), hi.to_bits())
                })
            })
            .collect()
    }

    #[test]
    fn streaming_discover_is_bit_identical_to_run() {
        let d = corner_data(150, 30);
        let reds = Reds::random_forest(quick_forest(), RedsConfig::default().with_l(2_000));
        let reference = reds
            .run(&d, &Prim::default(), &mut StdRng::seed_from_u64(31))
            .unwrap();
        for chunk in [1usize, 97, 2_000, 5_000] {
            let cfg = StreamConfig::new().with_chunk_rows(chunk);
            let streamed = reds
                .discover_streaming(&d, &Prim::default(), &mut StdRng::seed_from_u64(31), &cfg)
                .unwrap();
            assert_eq!(
                bounds_bits(&reference),
                bounds_bits(&streamed),
                "chunk = {chunk}"
            );
        }
    }

    #[test]
    fn streaming_leaves_the_rng_in_the_monolithic_state() {
        let d = corner_data(100, 40);
        let reds = Reds::random_forest(quick_forest(), RedsConfig::default().with_l(500));
        let mut rng_a = StdRng::seed_from_u64(41);
        let mut rng_b = StdRng::seed_from_u64(41);
        reds.run(&d, &Prim::default(), &mut rng_a).unwrap();
        reds.discover_streaming(
            &d,
            &Prim::default(),
            &mut rng_b,
            &StreamConfig::new().with_chunk_rows(37),
        )
        .unwrap();
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn streaming_on_pool_matches_run_on_pool() {
        let d = corner_data(90, 50);
        let mut rng = StdRng::seed_from_u64(51);
        let pool = uniform(700, 2, &mut rng);
        let reds = Reds::random_forest(quick_forest(), RedsConfig::default());
        let reference = reds
            .run_on_pool(&d, &pool, &Prim::default(), &mut StdRng::seed_from_u64(52))
            .unwrap();
        let streamed = reds
            .discover_streaming_on_pool(
                &d,
                &pool,
                &Prim::default(),
                &mut StdRng::seed_from_u64(52),
                &StreamConfig::new().with_chunk_rows(64),
            )
            .unwrap();
        assert_eq!(bounds_bits(&reference), bounds_bits(&streamed));
    }

    #[test]
    fn mixed_design_is_rejected_as_unstreamable() {
        let d = corner_data(80, 60);
        let reds = Reds::random_forest(
            quick_forest(),
            RedsConfig::default()
                .with_l(500)
                .with_sampler(NewPointSampler::MixedEven),
        );
        let err = reds
            .discover_streaming(
                &d,
                &Prim::default(),
                &mut StdRng::seed_from_u64(61),
                &StreamConfig::new(),
            )
            .expect_err("LHS-based designs cannot stream");
        assert!(matches!(
            err,
            crate::StreamingError::Stream(StreamError::UnstreamableSampler { .. })
        ));
    }

    #[test]
    fn streaming_nan_pool_reports_position() {
        let d = corner_data(60, 70);
        let reds = Reds::random_forest(quick_forest(), RedsConfig::default());
        let mut pool = vec![0.5; 10];
        pool[7] = f64::NAN;
        let err = reds
            .discover_streaming_on_pool(
                &d,
                &pool,
                &Prim::default(),
                &mut StdRng::seed_from_u64(71),
                &StreamConfig::new().with_chunk_rows(2),
            )
            .expect_err("NaN pool");
        assert!(matches!(
            err,
            crate::StreamingError::Stream(StreamError::NanInPoint { row: 3, column: 1 })
        ));
    }

    #[test]
    fn out_of_core_discover_is_bit_identical_to_run() {
        let d = corner_data(150, 80);
        let reds = Reds::random_forest(quick_forest(), RedsConfig::default().with_l(2_000));
        for sd in [
            &Prim::default() as &dyn SubgroupDiscovery,
            &BestInterval::default(),
        ] {
            let reference = reds.run(&d, sd, &mut StdRng::seed_from_u64(81)).unwrap();
            // Pathological page sizes and a tiny cache stress paging;
            // bit-identity must hold regardless.
            for (page_rows, cache) in [(1u32, 1usize << 10), (257, 64 << 10), (4096, 48 << 20)] {
                let ooc = OocConfig::new()
                    .with_page_rows(page_rows)
                    .with_cache_bytes(cache);
                let paged = reds
                    .discover_out_of_core(
                        &d,
                        sd,
                        &mut StdRng::seed_from_u64(81),
                        &StreamConfig::new().with_chunk_rows(173),
                        &ooc,
                    )
                    .unwrap();
                assert_eq!(
                    bounds_bits(&reference),
                    bounds_bits(&paged),
                    "{} page_rows = {page_rows}",
                    sd.name()
                );
            }
        }
    }

    #[test]
    fn out_of_core_leaves_the_rng_in_the_monolithic_state() {
        let d = corner_data(100, 90);
        let reds = Reds::random_forest(quick_forest(), RedsConfig::default().with_l(500));
        let mut rng_a = StdRng::seed_from_u64(91);
        let mut rng_b = StdRng::seed_from_u64(91);
        reds.run(&d, &Prim::default(), &mut rng_a).unwrap();
        reds.discover_out_of_core(
            &d,
            &Prim::default(),
            &mut rng_b,
            &StreamConfig::new().with_chunk_rows(37),
            &OocConfig::new(),
        )
        .unwrap();
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn pasting_prim_has_no_paged_path() {
        let d = corner_data(80, 95);
        let reds = Reds::random_forest(quick_forest(), RedsConfig::default().with_l(500));
        let prim = Prim::new(reds_subgroup::PrimParams {
            paste: true,
            ..Default::default()
        });
        let err = reds
            .discover_out_of_core(
                &d,
                &prim,
                &mut StdRng::seed_from_u64(96),
                &StreamConfig::new(),
                &OocConfig::new(),
            )
            .expect_err("pasting needs random access");
        assert!(matches!(
            err,
            crate::StreamingError::NoPagedPath { algorithm: "P" }
        ));
    }

    #[test]
    fn seeded_pipeline_is_deterministic() {
        let d = corner_data(120, 16);
        let reds = Reds::random_forest(quick_forest(), RedsConfig::default().with_l(1_000));
        let a = reds
            .run(&d, &Prim::default(), &mut StdRng::seed_from_u64(17))
            .unwrap();
        let b = reds
            .run(&d, &Prim::default(), &mut StdRng::seed_from_u64(17))
            .unwrap();
        assert_eq!(a.boxes.len(), b.boxes.len());
        assert_eq!(
            a.last_box().unwrap().bounds(),
            b.last_box().unwrap().bounds()
        );
    }
}
