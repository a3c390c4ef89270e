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
    stream_scratch_art, ChunkSource, Labeling, SamplerSource, SliceSource, StreamConfig,
    StreamError, StreamSampler,
};
use reds_subgroup::{SdResult, SubgroupDiscovery};

use crate::RedsError;

/// The scratch pool artifact of one paged run: a unique path under the
/// stream config's spill parent (or the system temp dir), removed when
/// the run ends, error paths and panics included (the in-flight write
/// itself is covered by `ArtWriter`'s own drop guard). It is sealed
/// without a sync (`stream_scratch_art`): only this run reads it.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(stream: &StreamConfig) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let parent = stream.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
        let _ = std::fs::create_dir_all(&parent);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        Self(parent.join(format!("reds-ooc-{}-{seq}.redsart", std::process::id())))
    }
}

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

    /// The post-fit half of Algorithm 4 with an already-fitted `model`:
    /// take the pool (line 3), pseudo-label it (lines 4–6), and run
    /// `sd` on it validated on `d` (`D_val = D`, §8.5).
    ///
    /// Every backing gives the same boxes bit for bit and leaves `rng`
    /// in the same state, because:
    /// 1. a sampled pool is drawn from `rng` in one go in memory, and
    ///    chunk by chunk from a clone of it otherwise; the streamable
    ///    samplers draw element-sequentially, so the chunked draw
    ///    replays the whole one and the advanced clone is adopted;
    /// 2. labels are per-row, independent of batch composition;
    /// 3. the paged build's merge reproduces `SortedView::new`'s
    ///    `(value, row)` order exactly, and the paged store serves every
    ///    scan in that order, so each float sum associates identically.
    ///
    /// `d` is only the validation set here: it may be empty.
    ///
    /// # Errors
    ///
    /// [`RedsError::ZeroNewPoints`], [`RedsError::PoolShapeMismatch`],
    /// [`RedsError::NanInPoints`], and [`RedsError::Stream`] for a
    /// sampler that cannot stream, all before anything is drawn from
    /// `rng`; then [`RedsError::Stream`] and [`RedsError::OutOfCore`]
    /// for spill, artifact and paging failures, and
    /// [`RedsError::NoPagedPath`] when `sd` cannot search a paged pool.
    pub fn discover(
        &self,
        model: &dyn Metamodel,
        d: &Dataset,
        pool: Pool<'_>,
        backing: &Backing,
        sd: &dyn SubgroupDiscovery,
        rng: &mut StdRng,
    ) -> Result<SdResult, RedsError> {
        self.check(d.m(), pool, backing)?;
        self.discover_checked(model, d, pool, backing, sd, rng)
    }

    /// Rejects what the pipeline cannot run, before any work: no new
    /// points, a ragged or NaN pool, and a sampler that cannot stream
    /// into a paged backing.
    fn check(&self, m: usize, pool: Pool<'_>, backing: &Backing) -> Result<(), RedsError> {
        match pool {
            Pool::Sample => {
                if self.l == 0 {
                    return Err(RedsError::ZeroNewPoints);
                }
                if !matches!(backing, Backing::InMemory) {
                    self.sampler.streamable()?;
                }
            }
            Pool::Given(points) => {
                if points.is_empty() {
                    return Err(RedsError::ZeroNewPoints);
                }
                if !points.len().is_multiple_of(m) {
                    return Err(RedsError::PoolShapeMismatch {
                        pool_len: points.len(),
                        m,
                    });
                }
                if let Some(at) = points.iter().position(|v| v.is_nan()) {
                    return Err(RedsError::NanInPoints {
                        row: at / m,
                        column: at % m,
                    });
                }
            }
        }
        Ok(())
    }

    fn discover_checked(
        &self,
        model: &dyn Metamodel,
        d: &Dataset,
        pool: Pool<'_>,
        backing: &Backing,
        sd: &dyn SubgroupDiscovery,
        rng: &mut StdRng,
    ) -> Result<SdResult, RedsError> {
        let m = d.m();
        let mut label = |points: &[f64], m: usize| self.label(model, points, m);
        match backing {
            Backing::InMemory => {
                let points = match pool {
                    Pool::Sample => self.sampler.sample(self.l, m, rng),
                    Pool::Given(points) => points.to_vec(),
                };
                let labels = label(&points, m);
                let d_new =
                    Dataset::new(points, labels, m).expect("shape and NaN checked up front");
                Ok(sd.discover(&d_new, d, &mut sd_rng(rng)))
            }
            Backing::Paged { stream, ooc } => {
                let art = ScratchFile::new(stream);
                self.stream(pool, m, rng, |source| {
                    stream_scratch_art(source, &mut label, stream, &art.0, ooc.page_rows)
                })?;
                let mut sd_rng = sd_rng(rng);
                let mut store = OocPool::open(&art.0, ooc)?;
                sd.discover_paged(&mut store, d, &mut sd_rng)
                    .ok_or(RedsError::NoPagedPath {
                        algorithm: sd.name(),
                    })
            }
        }
    }

    /// Pseudo-labels one batch of points (Algorithm 4, lines 4–6): hard
    /// labels through [`Metamodel::hard_labels`] (the random forest's
    /// override stops walking trees once a row's label is settled),
    /// probability labels through [`Metamodel::predict_batch`] and
    /// [`Labeling::apply`]. In memory the batch is the whole pool;
    /// paged, one chunk.
    fn label(&self, model: &dyn Metamodel, points: &[f64], m: usize) -> Vec<f64> {
        if self.probability_labels {
            model
                .predict_batch(points, m)
                .into_iter()
                .map(|p| Labeling::Probability.apply(p))
                .collect()
        } else {
            model.hard_labels(points, m, self.bnd)
        }
    }

    /// Runs `finish` over the pool as a chunk source. A sampled pool
    /// replays the draw on a clone of `rng`, whose advanced state `rng`
    /// then adopts; a given pool draws nothing.
    fn stream<T>(
        &self,
        pool: Pool<'_>,
        m: usize,
        rng: &mut StdRng,
        finish: impl FnOnce(&mut dyn ChunkSource) -> Result<T, StreamError>,
    ) -> Result<T, RedsError> {
        match pool {
            Pool::Sample => {
                let sampler = self.sampler.streamable()?;
                let mut source = SamplerSource::new(sampler, self.l, m, rng.clone());
                let out = finish(&mut source)?;
                *rng = source.into_rng();
                Ok(out)
            }
            Pool::Given(points) => Ok(finish(&mut SliceSource::new(points, m)?)?),
        }
    }
}

/// The subgroup-discovery seed: one draw from the pipeline generator
/// after the pool is taken.
fn sd_rng(rng: &mut StdRng) -> StdRng {
    StdRng::seed_from_u64(rng.gen())
}

/// Where the pseudo-labeled points come from (Algorithm 4, line 3).
#[derive(Debug, Clone, Copy)]
pub enum Pool<'a> {
    /// `L` fresh points from the configured [`NewPointSampler`].
    Sample,
    /// A caller's unlabeled pool (row-major, `d.m()` columns) from the
    /// same `p(x)` as `d` — semi-supervised REDS (§6.1, §9.4) and the
    /// third-party-data use of the abstract.
    Given(&'a [f64]),
}

/// How the pseudo-labeled pool is held while `sd` searches it.
#[derive(Debug, Clone)]
pub enum Backing {
    /// The whole `L × M` pool in one buffer, labeled in one batch.
    InMemory,
    /// Labeled and argsorted in chunks of `stream.chunk_rows`, the sort
    /// runs spilled to disk and k-way merged into a scratch `.redsart`
    /// artifact under `stream.spill_dir`, then searched through a paged
    /// column store ([`OocPool`]) whose resident set is bounded by
    /// [`OocConfig::cache_bytes`]; the pool is never materialized. The
    /// artifact is removed when the run ends.
    Paged {
        /// Chunking and spill directory of the construction.
        stream: StreamConfig,
        /// Page size and cache budget of the store.
        ooc: OocConfig,
    },
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

    /// The full REDS pipeline (Algorithm 4): fit `f^am` on `d` with
    /// `rng`, then [`RedsConfig::discover`] with it on `pool` under
    /// `backing`.
    ///
    /// # Errors
    ///
    /// The argument errors of [`RedsConfig::discover`] and
    /// [`RedsError::EmptyTrainingData`] come back before the fit, with
    /// `rng` untouched; the rest as [`RedsConfig::discover`].
    pub fn discover(
        &self,
        d: &Dataset,
        pool: Pool<'_>,
        backing: &Backing,
        sd: &dyn SubgroupDiscovery,
        rng: &mut StdRng,
    ) -> Result<SdResult, RedsError> {
        self.config.check(d.m(), pool, backing)?;
        let model = self.train_metamodel(d, rng)?;
        self.config
            .discover_checked(model.as_ref(), d, pool, backing, sd, rng)
    }

    /// Algorithm 4 as the paper states it: `L` sampled points, held in
    /// memory.
    ///
    /// # Errors
    ///
    /// [`RedsError::ZeroNewPoints`] when `config.l == 0`;
    /// [`RedsError::EmptyTrainingData`] when `d` is empty.
    pub fn run(
        &self,
        d: &Dataset,
        sd: &dyn SubgroupDiscovery,
        rng: &mut StdRng,
    ) -> Result<SdResult, RedsError> {
        self.discover(d, Pool::Sample, &Backing::InMemory, sd, rng)
    }

    /// [`Reds::run`] with the pool paged instead of held in memory
    /// ([`Backing::Paged`]): bit-identical boxes, and a resident set
    /// bounded by `ooc.cache_bytes` independent of `L`.
    ///
    /// # Errors
    ///
    /// As [`Reds::discover`].
    pub fn discover_out_of_core(
        &self,
        d: &Dataset,
        sd: &dyn SubgroupDiscovery,
        rng: &mut StdRng,
        stream: &StreamConfig,
        ooc: &OocConfig,
    ) -> Result<SdResult, RedsError> {
        let backing = Backing::Paged {
            stream: stream.clone(),
            ooc: ooc.clone(),
        };
        self.discover(d, Pool::Sample, &backing, sd, rng)
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
            reds.discover(
                &d,
                Pool::Given(&pool),
                &Backing::InMemory,
                &Prim::default(),
                &mut rng
            ),
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
            reds.discover(
                &d,
                Pool::Given(&bad_pool),
                &Backing::InMemory,
                &Prim::default(),
                &mut rng
            ),
            Err(RedsError::PoolShapeMismatch { .. })
        ));
        let pool = uniform(500, 2, &mut rng);
        let result = reds
            .discover(
                &d,
                Pool::Given(&pool),
                &Backing::InMemory,
                &Prim::default(),
                &mut rng,
            )
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
            .discover(
                &d,
                Pool::Sample,
                &Backing::Paged {
                    stream: StreamConfig::new(),
                    ooc: OocConfig::new(),
                },
                &Prim::default(),
                &mut StdRng::seed_from_u64(61),
            )
            .expect_err("LHS-based designs cannot stream");
        assert!(matches!(
            err,
            RedsError::Stream(StreamError::UnstreamableSampler { .. })
        ));
    }

    #[test]
    fn streaming_nan_pool_reports_position() {
        let d = corner_data(60, 70);
        let reds = Reds::random_forest(quick_forest(), RedsConfig::default());
        let mut pool = vec![0.5; 10];
        pool[7] = f64::NAN;
        let err = reds
            .discover(
                &d,
                Pool::Given(&pool),
                &Backing::Paged {
                    stream: StreamConfig::new().with_chunk_rows(2),
                    ooc: OocConfig::new(),
                },
                &Prim::default(),
                &mut StdRng::seed_from_u64(71),
            )
            .expect_err("NaN pool");
        assert!(matches!(err, RedsError::NanInPoints { row: 3, column: 1 }));
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
        assert!(matches!(err, RedsError::NoPagedPath { algorithm: "P" }));
    }

    /// Every backing rejects a bad argument before the fit, so the
    /// caller's generator comes back as it went in.
    #[test]
    fn rejected_arguments_leave_the_rng_untouched() {
        let d = corner_data(60, 100);
        let reds = Reds::random_forest(quick_forest(), RedsConfig::default().with_l(300));
        let no_l = Reds::random_forest(quick_forest(), RedsConfig::default().with_l(0));
        let mixed = Reds::random_forest(
            quick_forest(),
            RedsConfig::default()
                .with_l(300)
                .with_sampler(NewPointSampler::MixedEven),
        );
        let mut nan_pool = vec![0.5; 10];
        nan_pool[7] = f64::NAN;
        let backings = [
            Backing::InMemory,
            Backing::Paged {
                stream: StreamConfig::new().with_chunk_rows(3),
                ooc: OocConfig::new(),
            },
        ];
        for backing in &backings {
            let cases: [(&Reds, Pool<'_>); 4] = [
                (&no_l, Pool::Sample),
                (&reds, Pool::Given(&[])),
                (&reds, Pool::Given(&[0.5; 5])),
                (&reds, Pool::Given(&nan_pool)),
            ];
            for (case, (reds, pool)) in cases.into_iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(101);
                let err = reds
                    .discover(&d, pool, backing, &Prim::default(), &mut rng)
                    .expect_err("rejected");
                let expected = match case {
                    0 | 1 => matches!(err, RedsError::ZeroNewPoints),
                    2 => matches!(err, RedsError::PoolShapeMismatch { pool_len: 5, m: 2 }),
                    _ => matches!(err, RedsError::NanInPoints { row: 3, column: 1 }),
                };
                assert!(expected, "{backing:?}, case {case}: {err:?}");
                let fresh = StdRng::seed_from_u64(101).gen::<u64>();
                assert_eq!(rng.gen::<u64>(), fresh, "{backing:?}, case {case}");
            }
            let mut rng = StdRng::seed_from_u64(102);
            let outcome = mixed.discover(&d, Pool::Sample, backing, &Prim::default(), &mut rng);
            if let Backing::InMemory = backing {
                assert!(outcome.is_ok(), "the mixed design runs in memory");
                continue;
            }
            assert!(
                matches!(
                    outcome,
                    Err(RedsError::Stream(StreamError::UnstreamableSampler { .. }))
                ),
                "{backing:?}"
            );
            let fresh = StdRng::seed_from_u64(102).gen::<u64>();
            assert_eq!(rng.gen::<u64>(), fresh, "{backing:?}, mixed design");
        }
    }

    /// The paged backing removes its scratch artifact and its spill
    /// directory, whether the search ran or declined.
    #[test]
    fn paged_runs_leave_no_scratch_files() {
        let dir = std::env::temp_dir().join(format!("reds-core-scratch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = corner_data(80, 110);
        let reds = Reds::random_forest(quick_forest(), RedsConfig::default().with_l(500));
        let backing = Backing::Paged {
            stream: StreamConfig::new().with_chunk_rows(97).with_spill_dir(&dir),
            ooc: OocConfig::new(),
        };
        let leftovers = || {
            std::fs::read_dir(&dir)
                .expect("the run created its spill parent")
                .map(|e| e.expect("readable entry").file_name())
                .collect::<Vec<_>>()
        };
        let rng = &mut StdRng::seed_from_u64(111);
        reds.discover(&d, Pool::Sample, &backing, &Prim::default(), rng)
            .expect("paged run");
        assert!(leftovers().is_empty(), "after a run: {:?}", leftovers());
        let pasting = Prim::new(reds_subgroup::PrimParams {
            paste: true,
            ..Default::default()
        });
        let err = reds
            .discover(&d, Pool::Sample, &backing, &pasting, rng)
            .expect_err("pasting needs random access");
        assert!(matches!(err, RedsError::NoPagedPath { algorithm: "P" }));
        assert!(leftovers().is_empty(), "after a decline: {:?}", leftovers());
        std::fs::remove_dir(&dir).expect("empty scratch dir");
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
