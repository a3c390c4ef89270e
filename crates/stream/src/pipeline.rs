//! The streaming pseudo-labeling loop: source → label → fold.

use crate::build::{PoolBuilder, StreamStats};
use crate::{ChunkSource, StreamConfig, StreamError};

/// How raw metamodel outputs become pseudo-labels (Algorithm 4, lines
/// 4–6; §6.1 for the probability variants). `Metamodel::hard_labels`
/// must reproduce the `Hard` rule bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Labeling {
    /// Hard labels `I(f^am(x) > bnd)`.
    Hard {
        /// Threshold `bnd` on the metamodel output.
        bnd: f64,
    },
    /// Raw probabilities clamped to `[0,1]` (the "p" variants).
    Probability,
}

impl Labeling {
    /// Maps one metamodel output to its pseudo-label.
    #[inline]
    pub fn apply(self, p: f64) -> f64 {
        match self {
            Self::Hard { bnd } => {
                if p > bnd {
                    1.0
                } else {
                    0.0
                }
            }
            Self::Probability => p.clamp(0.0, 1.0),
        }
    }
}

fn drive(
    source: &mut dyn ChunkSource,
    label: &mut dyn FnMut(&[f64], usize) -> Vec<f64>,
    cfg: &StreamConfig,
) -> Result<PoolBuilder, StreamError> {
    let m = source.m();
    let chunk_rows = cfg.effective_chunk_rows();
    let mut builder = PoolBuilder::new(m, cfg)?;
    let mut chunk: Vec<f64> = Vec::new();
    loop {
        chunk.clear();
        let got = source.next_chunk(chunk_rows, &mut chunk);
        if got == 0 {
            break;
        }
        let labels = label(&chunk, m);
        if labels.len() != got {
            return Err(StreamError::Predict(format!(
                "labeler returned {} labels for a {got}-row chunk",
                labels.len()
            )));
        }
        builder.push_chunk(&chunk, &labels)?;
    }
    if builder.rows() == 0 {
        return Err(StreamError::ZeroRows);
    }
    Ok(builder)
}

/// Streams the whole source through pseudo-labeling and the out-of-core
/// sort into a scratch `.redsart` pool artifact at `path` (merged
/// columns + page-index fences at `page_rows` records per page +
/// dataset) without materializing anything of size `O(L)` in memory —
/// the construction half of the paged discovery path, whose `reds-ooc`
/// store reads it back. `label` maps one chunk (row-major points of the
/// source's width) to one pseudo-label per row. The pool it writes is
/// bit-identical to the monolithic generate → label → `Dataset::new` →
/// `SortedView::new` path for **any** chunk size, provided `label` is
/// row-independent.
/// The file is sealed without a sync
/// ([`PoolBuilder::finish_scratch_art`]): the caller reads it and
/// deletes it in the same process. A pool artifact meant to be kept
/// goes through [`PoolBuilder::finish_art`].
pub fn stream_scratch_art(
    source: &mut dyn ChunkSource,
    label: &mut dyn FnMut(&[f64], usize) -> Vec<f64>,
    cfg: &StreamConfig,
    path: &std::path::Path,
    page_rows: u32,
) -> Result<StreamStats, StreamError> {
    drive(source, label, cfg)?.finish_scratch_art(path, page_rows)
}

/// Like [`stream_scratch_art`] but finishes into a digest + stats
/// without writing the pool — the bounded-memory witness used by the
/// peak-RSS benches, equal to [`digest_pool`](crate::digest_pool) of
/// the in-memory pool.
pub fn stream_scan(
    source: &mut dyn ChunkSource,
    label: &mut dyn FnMut(&[f64], usize) -> Vec<f64>,
    cfg: &StreamConfig,
) -> Result<StreamStats, StreamError> {
    drive(source, label, cfg)?.finish_stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{digest_pool, SamplerSource, SliceSource, StreamSampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use reds_art::ArtFile;
    use reds_data::{Dataset, SortedView};

    /// A cheap deterministic "metamodel": mean of the coordinates.
    fn toy_predict(points: &[f64], m: usize) -> Vec<f64> {
        points
            .chunks_exact(m)
            .map(|row| row.iter().sum::<f64>() / m as f64)
            .collect()
    }

    /// Labels a chunk with `toy_predict` under `labeling`.
    fn toy_labeler(labeling: Labeling) -> impl FnMut(&[f64], usize) -> Vec<f64> {
        move |points, m| {
            toy_predict(points, m)
                .into_iter()
                .map(|p| labeling.apply(p))
                .collect()
        }
    }

    /// The monolithic pool and its digest.
    fn monolithic_reference(l: usize, m: usize, seed: u64, labeling: Labeling) -> (Dataset, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points = reds_sampling::uniform(l, m, &mut rng);
        let labels = toy_labeler(labeling)(&points, m);
        let d = Dataset::new(points, labels, m).unwrap();
        let digest = digest_pool(&SortedView::new(&d).into_columns(), d.labels());
        (d, digest)
    }

    /// Streams `source` into a scratch artifact at `chunk` rows a chunk
    /// and returns the build's digest and the dataset the file holds.
    fn stream_to_art(
        source: &mut dyn ChunkSource,
        labeling: Labeling,
        chunk: usize,
        tag: &str,
    ) -> (u64, Dataset) {
        let dir = std::env::temp_dir().join(format!("reds-pipeline-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.redsart");
        let cfg = StreamConfig::new().with_chunk_rows(chunk);
        let stats =
            stream_scratch_art(source, &mut toy_labeler(labeling), &cfg, &path, 16).unwrap();
        let dataset = ArtFile::open(&path).unwrap().dataset().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (stats.digest, dataset)
    }

    #[test]
    fn streamed_art_matches_monolithic_for_odd_chunkings() {
        let (l, m, seed) = (311, 4, 21);
        for labeling in [Labeling::Hard { bnd: 0.5 }, Labeling::Probability] {
            let (ref_d, ref_digest) = monolithic_reference(l, m, seed, labeling);
            for chunk in [1usize, 3, 100, l, l + 1] {
                let mut source =
                    SamplerSource::new(StreamSampler::Uniform, l, m, StdRng::seed_from_u64(seed));
                let (digest, d) = stream_to_art(&mut source, labeling, chunk, "odd");
                assert_eq!(digest, ref_digest, "{labeling:?}, chunk = {chunk}");
                assert_eq!(d, ref_d, "{labeling:?}, chunk = {chunk}");
            }
        }
    }

    #[test]
    fn probability_labeling_streams_identically() {
        let (l, m, seed) = (97, 2, 5);
        let labeling = Labeling::Probability;
        let (_, ref_digest) = monolithic_reference(l, m, seed, labeling);
        let mut source =
            SamplerSource::new(StreamSampler::Uniform, l, m, StdRng::seed_from_u64(seed));
        let cfg = StreamConfig::new().with_chunk_rows(10);
        let stats = stream_scan(&mut source, &mut toy_labeler(labeling), &cfg).unwrap();
        assert_eq!(stats.digest, ref_digest);
    }

    #[test]
    fn slice_source_streams_a_caller_pool() {
        let m = 2;
        let pool_values: Vec<f64> = (0..64).map(|i| ((i * 31) % 17) as f64 / 17.0).collect();
        for labeling in [Labeling::Hard { bnd: 0.4 }, Labeling::Probability] {
            let labels = toy_labeler(labeling)(&pool_values, m);
            let ref_d = Dataset::new(pool_values.clone(), labels, m).unwrap();
            let ref_digest = digest_pool(&SortedView::new(&ref_d).into_columns(), ref_d.labels());
            let mut source = SliceSource::new(&pool_values, m).unwrap();
            let (digest, d) = stream_to_art(&mut source, labeling, 5, "slice");
            assert_eq!(digest, ref_digest, "{labeling:?}");
            assert_eq!(d, ref_d, "{labeling:?}");
        }
    }

    #[test]
    fn scan_digest_matches_pool_digest() {
        let (l, m, seed) = (250, 3, 8);
        let labeling = Labeling::Hard { bnd: 0.5 };
        let cfg = StreamConfig::new().with_chunk_rows(33);
        let mut source =
            SamplerSource::new(StreamSampler::Uniform, l, m, StdRng::seed_from_u64(seed));
        let stats = stream_scan(&mut source, &mut toy_labeler(labeling), &cfg).unwrap();
        let (_, ref_digest) = monolithic_reference(l, m, seed, labeling);
        assert_eq!(stats.digest, ref_digest);
        assert_eq!(stats.rows, l as u64);
        assert_eq!(stats.runs_per_column, l.div_ceil(33));
    }

    #[test]
    fn predictor_length_mismatch_is_an_error() {
        let mut source =
            SamplerSource::new(StreamSampler::Uniform, 10, 2, StdRng::seed_from_u64(1));
        let mut bad = |_: &[f64], _: usize| vec![0.5; 3];
        let err = stream_scan(&mut source, &mut bad, &StreamConfig::new()).unwrap_err();
        assert!(matches!(err, StreamError::Predict(_)));
    }

    #[test]
    fn empty_source_is_zero_rows() {
        let mut source = SamplerSource::new(StreamSampler::Uniform, 0, 2, StdRng::seed_from_u64(1));
        let err = stream_scan(
            &mut source,
            &mut toy_labeler(Labeling::Hard { bnd: 0.5 }),
            &StreamConfig::new(),
        )
        .unwrap_err();
        assert!(matches!(err, StreamError::ZeroRows));
    }
}
