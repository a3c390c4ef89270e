//! Timing wrappers around the public traits each layer exposes.
//!
//! The traced run measures layers from outside the program: it hands
//! the pipeline a [`TimedTrainer`] (whose models are [`TimedModel`]s), a
//! [`TimedSd`] search wrapper that hands the search a [`TimedAccess`]
//! column store, and a [`TimedSource`] chunk source. Each wrapper
//! forwards every call unchanged and adds its wall time to a shared
//! [`Trace`], so a wrapped run computes exactly what an unwrapped one
//! does (the tests below check the digests).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use reds_data::{ColumnAccess, Dataset, PointVisitor, SortedView, ViewAccess};
use reds_metamodel::{Metamodel, Trainer};
use reds_stream::ChunkSource;
use reds_subgroup::{SdResult, SubgroupDiscovery};

/// A statistic accumulated from any thread. It publishes no other
/// data, so relaxed ordering suffices.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `v`.
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Adds the time elapsed since `t0`, in nanoseconds.
    pub fn since(&self, t0: Instant) {
        self.add(t0.elapsed().as_nanos() as u64);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Current value read as nanoseconds, in milliseconds.
    pub fn ms(&self) -> f64 {
        self.get() as f64 / 1e6
    }
}

/// Per-layer time (nanoseconds) and work counts of one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    /// `Trainer::train` (reds-metamodel fit).
    pub fit_ns: Counter,
    /// `Metamodel::predict_batch` (reds-metamodel kernels).
    pub predict_ns: Counter,
    /// Rows predicted.
    pub predict_rows: Counter,
    /// `predict_batch` calls.
    pub predict_calls: Counter,
    /// `SortedView::new` (reds-data presort).
    pub presort_ns: Counter,
    /// Wall time inside the search wrapper, presort excluded.
    pub search_ns: Counter,
    /// Boxes returned by the search.
    pub boxes: Counter,
    /// Column scans: time, calls and entries handed to the search.
    pub scan_ns: Counter,
    /// Column scans issued.
    pub scan_calls: Counter,
    /// Entries the scans visited.
    pub entries_visited: Counter,
    /// Deactivation cuts: time and rows removed.
    pub deactivate_ns: Counter,
    /// Rows the cuts removed.
    pub rows_deactivated: Counter,
    /// Label and membership lookups (`label`, `is_active`,
    /// `active_label_sum`).
    pub lookup_ns: Counter,
    /// `ChunkSource::next_chunk` (reds-stream sampling).
    pub sampling_ns: Counter,
    /// `PoolBuilder::push_chunk`.
    pub fold_ns: Counter,
    /// Chunks folded.
    pub chunks: Counter,
    /// `PoolBuilder::finish_art`.
    pub finish_ns: Counter,
    /// `OocPool::open` (the artifact verify pass).
    pub open_ns: Counter,
}

impl Trace {
    /// A fresh, shareable trace.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Self time attributed to some layer, in milliseconds.
    pub fn attributed_ms(&self) -> f64 {
        [
            &self.fit_ns,
            &self.predict_ns,
            &self.presort_ns,
            &self.search_ns,
            &self.sampling_ns,
            &self.fold_ns,
            &self.finish_ns,
            &self.open_ns,
        ]
        .iter()
        .map(|c| c.ms())
        .sum()
    }

    /// Search self time: the wrapper's time minus store access.
    pub fn subgroup_self_ms(&self) -> f64 {
        self.search_ns.ms() - self.store_ms()
    }

    /// Time spent inside the column store.
    pub fn store_ms(&self) -> f64 {
        self.scan_ns.ms() + self.deactivate_ns.ms() + self.lookup_ns.ms()
    }
}

/// A [`Trainer`] whose fits are timed and whose models are
/// [`TimedModel`]s.
pub struct TimedTrainer {
    inner: Box<dyn Trainer>,
    trace: Arc<Trace>,
}

impl TimedTrainer {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: Box<dyn Trainer>, trace: Arc<Trace>) -> Self {
        Self { inner, trace }
    }
}

impl Trainer for TimedTrainer {
    fn train(&self, data: &Dataset, rng: &mut StdRng) -> Box<dyn Metamodel> {
        let t0 = Instant::now();
        let model = self.inner.train(data, rng);
        self.trace.fit_ns.since(t0);
        Box::new(TimedModel {
            inner: model,
            trace: self.trace.clone(),
        })
    }

    fn tag(&self) -> &'static str {
        self.inner.tag()
    }
}

/// A [`Metamodel`] whose batch predictions are timed and counted.
pub struct TimedModel<M: ?Sized = dyn Metamodel> {
    /// The wrapped model.
    pub inner: Box<M>,
    /// Where the timings go.
    pub trace: Arc<Trace>,
}

impl<M: Metamodel + ?Sized> Metamodel for TimedModel<M> {
    fn predict(&self, x: &[f64]) -> f64 {
        self.inner.predict(x)
    }

    fn predict_batch(&self, points: &[f64], m: usize) -> Vec<f64> {
        let t0 = Instant::now();
        let out = self.inner.predict_batch(points, m);
        self.trace.predict_ns.since(t0);
        self.trace.predict_rows.add(out.len() as u64);
        self.trace.predict_calls.add(1);
        out
    }
}

/// A [`SubgroupDiscovery`] whose search is timed, and whose store
/// access goes through a [`TimedAccess`].
///
/// The in-memory entry point builds the [`SortedView`] here (timed as
/// presort) and runs the algorithm's
/// [`SubgroupDiscovery::discover_paged`] over a [`ViewAccess`]: for PRIM
/// without pasting and for BestInterval, the same single implementation
/// `discover` runs.
pub struct TimedSd<'a> {
    inner: &'a dyn SubgroupDiscovery,
    trace: Arc<Trace>,
}

impl<'a> TimedSd<'a> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: &'a dyn SubgroupDiscovery, trace: Arc<Trace>) -> Self {
        Self { inner, trace }
    }

    fn finish(&self, t0: Instant, result: SdResult) -> SdResult {
        self.trace.search_ns.since(t0);
        self.trace.boxes.add(result.boxes.len() as u64);
        result
    }
}

impl SubgroupDiscovery for TimedSd<'_> {
    fn discover(&self, d: &Dataset, d_val: &Dataset, rng: &mut StdRng) -> SdResult {
        let t0 = Instant::now();
        let view = SortedView::new(d);
        self.trace.presort_ns.since(t0);
        let mut store = ViewAccess::new(d, view);
        self.discover_paged(&mut store, d_val, rng)
            .expect("the benchmark searches with PRIM (no pasting) or BestInterval")
    }

    fn discover_paged(
        &self,
        store: &mut dyn ColumnAccess,
        d_val: &Dataset,
        rng: &mut StdRng,
    ) -> Option<SdResult> {
        let t0 = Instant::now();
        let mut timed = TimedAccess::new(store, &self.trace);
        let result = self.inner.discover_paged(&mut timed, d_val, rng);
        drop(timed);
        result.map(|r| self.finish(t0, r))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A [`ColumnAccess`] whose scans, cuts and lookups are timed.
///
/// Per-row lookups (`label`, `is_active`) are far too frequent to time
/// one by one, so a run of consecutive lookups is timed as one span:
/// it opens at the first lookup and closes at the next call of any
/// other kind (or when the wrapper drops). The search's own arithmetic
/// between two lookups of a run is a handful of additions.
pub struct TimedAccess<'s> {
    inner: &'s mut dyn ColumnAccess,
    trace: &'s Trace,
    lookup_since: Option<Instant>,
}

impl<'s> TimedAccess<'s> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: &'s mut dyn ColumnAccess, trace: &'s Trace) -> Self {
        Self {
            inner,
            trace,
            lookup_since: None,
        }
    }

    /// Closes an open lookup run; returns the current instant.
    fn settle(&mut self) -> Instant {
        let now = Instant::now();
        if let Some(t0) = self.lookup_since.take() {
            self.trace.lookup_ns.add((now - t0).as_nanos() as u64);
        }
        now
    }

    fn lookup(&mut self) {
        if self.lookup_since.is_none() {
            self.lookup_since = Some(Instant::now());
        }
    }

    fn scan(&mut self, run: impl FnOnce(&mut dyn ColumnAccess, &mut u64)) {
        let t0 = self.settle();
        let mut visited = 0u64;
        run(&mut *self.inner, &mut visited);
        self.trace.scan_ns.since(t0);
        self.trace.scan_calls.add(1);
        self.trace.entries_visited.add(visited);
    }

    fn cut(&mut self, run: impl FnOnce(&mut dyn ColumnAccess) -> usize) -> usize {
        let t0 = self.settle();
        let removed = run(&mut *self.inner);
        self.trace.deactivate_ns.since(t0);
        self.trace.rows_deactivated.add(removed as u64);
        removed
    }
}

impl Drop for TimedAccess<'_> {
    fn drop(&mut self) {
        self.settle();
    }
}

impl ColumnAccess for TimedAccess<'_> {
    fn m(&self) -> usize {
        self.inner.m()
    }

    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }

    fn n_active(&self) -> usize {
        self.inner.n_active()
    }

    fn is_active(&mut self, row: u32) -> bool {
        self.lookup();
        self.inner.is_active(row)
    }

    fn label(&mut self, row: u32) -> f64 {
        self.lookup();
        self.inner.label(row)
    }

    fn active_label_sum(&mut self) -> f64 {
        let t0 = self.settle();
        let sum = self.inner.active_label_sum();
        self.trace.lookup_ns.since(t0);
        sum
    }

    fn scan_active_front(&mut self, dim: usize, f: &mut dyn FnMut(f64, u32) -> bool) {
        self.scan(|s, n| {
            s.scan_active_front(dim, &mut |v, r| {
                *n += 1;
                f(v, r)
            })
        });
    }

    fn scan_active_back(&mut self, dim: usize, f: &mut dyn FnMut(f64, u32) -> bool) {
        self.scan(|s, n| {
            s.scan_active_back(dim, &mut |v, r| {
                *n += 1;
                f(v, r)
            })
        });
    }

    fn scan_column_points(&mut self, dim: usize, f: &mut PointVisitor<'_>) {
        self.scan(|s, n| {
            s.scan_column_points(dim, &mut |v, r, p, y| {
                *n += 1;
                f(v, r, p, y)
            })
        });
    }

    fn scan_rows(&mut self, f: &mut dyn FnMut(u32, &[f64], f64)) {
        self.scan(|s, n| {
            s.scan_rows(&mut |r, p, y| {
                *n += 1;
                f(r, p, y)
            })
        });
    }

    fn deactivate_below(&mut self, dim: usize, bound: f64) -> usize {
        self.cut(|s| s.deactivate_below(dim, bound))
    }

    fn deactivate_above(&mut self, dim: usize, bound: f64) -> usize {
        self.cut(|s| s.deactivate_above(dim, bound))
    }
}

/// A [`ChunkSource`] whose chunk generation is timed (sampling).
pub struct TimedSource<'a, S: ChunkSource> {
    /// The wrapped source.
    pub inner: &'a mut S,
    trace: &'a Trace,
}

impl<'a, S: ChunkSource> TimedSource<'a, S> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: &'a mut S, trace: &'a Trace) -> Self {
        Self { inner, trace }
    }
}

impl<S: ChunkSource> ChunkSource for TimedSource<'_, S> {
    fn m(&self) -> usize {
        self.inner.m()
    }

    fn remaining(&self) -> usize {
        self.inner.remaining()
    }

    fn next_chunk(&mut self, max_rows: usize, out: &mut Vec<f64>) -> usize {
        let t0 = Instant::now();
        let got = self.inner.next_chunk(max_rows, out);
        self.trace.sampling_ns.since(t0);
        got
    }
}
