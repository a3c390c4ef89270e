//! Deterministic scoped-thread fan-out for the REDS hot paths.
//!
//! The build environment cannot fetch `rayon`, so this crate provides
//! the small slice-parallel subset the workspace needs, implemented on
//! `std::thread::scope`. Every function preserves input order in its
//! output, so parallel and serial execution produce **bit-identical**
//! results — the forest/GBDT determinism guarantees rely on this.
//!
//! Thread count resolution, in priority order:
//! 1. an explicit override set with [`set_max_threads`] (used by the
//!    benches to force the serial baseline),
//! 2. the `REDS_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! A fan-out across `w` workers spawns `w − 1` threads: the calling
//! thread takes the first share itself rather than waiting in `join`.
//! With one resolved thread every helper degenerates to a plain serial
//! loop on the calling thread — no spawn overhead, same numbers.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// `0` means "no override".
static MAX_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the maximum worker count (`None` clears the override).
/// Intended for benchmarks and tests that need a serial baseline.
pub fn set_max_threads(n: Option<usize>) {
    MAX_THREADS_OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// The number of worker threads fan-outs will use.
pub fn max_threads() -> usize {
    let overridden = MAX_THREADS_OVERRIDE.load(Ordering::SeqCst);
    if overridden > 0 {
        return overridden;
    }
    if let Ok(v) = std::env::var("REDS_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items`, preserving order. Runs on the calling thread
/// when one worker suffices; otherwise the calling thread maps the
/// first slice. Panics from workers propagate.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = max_threads().min(items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let mut slices = items.chunks(items.len().div_ceil(workers));
    let first = slices.next().expect("two or more items");
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = slices
            .map(|slice| scope.spawn(move || slice.iter().map(f).collect::<Vec<U>>()))
            .collect();
        out.extend(first.iter().map(f));
        for handle in handles {
            out.extend(handle.join().expect("parallel worker panicked"));
        }
    });
    out
}

/// Maps `f` over the index range `0..n`, preserving order.
pub fn par_map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    par_map(&indices, |&i| f(i))
}

/// Splits `out` into per-worker contiguous chunks of `chunk_len`
/// elements and fills each in parallel. `f` receives the chunk's first
/// element index and the mutable chunk. Order and contents are
/// identical to a serial loop over chunks.
pub fn par_fill_chunks<U, F>(out: &mut [U], chunk_len: usize, f: F)
where
    U: Send,
    F: Fn(usize, &mut [U]) + Sync,
{
    par_fill_chunks_with(
        out,
        chunk_len,
        || (),
        |_: &mut (), start, chunk| f(start, chunk),
    );
}

/// Like [`par_fill_chunks`], but hands every chunk invocation a
/// per-worker scratch value created once by `init` — the pattern the
/// SIMD prediction kernels use for padded-row and per-chunk prediction
/// buffers, instead of allocating inside the hot loop.
/// [`par_fill_chunks`] delegates here with a unit scratch, so there is
/// exactly one chunk grid and the scratch never influences chunk
/// boundaries — results stay bit-identical to a serial loop under any
/// thread count.
pub fn par_fill_chunks_with<U, S, I, F>(out: &mut [U], chunk_len: usize, init: I, f: F)
where
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [U]) + Sync,
{
    assert!(chunk_len > 0, "chunk length must be positive");
    let n_chunks = out.len().div_ceil(chunk_len).max(1);
    let workers = max_threads().min(n_chunks);
    if workers <= 1 {
        let mut scratch = init();
        for (c, chunk) in out.chunks_mut(chunk_len).enumerate() {
            f(&mut scratch, c * chunk_len, chunk);
        }
        return;
    }
    // Each worker iterates a contiguous run of whole chunks — the chunk
    // grid (and therefore `f`'s view of the data) is identical to the
    // serial loop's. The calling thread fills the first run.
    let run_len = n_chunks.div_ceil(workers) * chunk_len;
    std::thread::scope(|scope| {
        let (f, init) = (&f, &init);
        let fill = move |w: usize, run: &mut [U]| {
            let mut scratch = init();
            for (c, chunk) in run.chunks_mut(chunk_len).enumerate() {
                f(&mut scratch, w * run_len + c * chunk_len, chunk);
            }
        };
        let mut runs = out.chunks_mut(run_len);
        let first = runs.next().expect("two or more chunks");
        let handles: Vec<_> = runs
            .enumerate()
            .map(|(w, run)| scope.spawn(move || fill(w + 1, run)))
            .collect();
        fill(0, first);
        for handle in handles {
            handle.join().expect("parallel worker panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `MAX_THREADS_OVERRIDE` is process-global; tests that mutate it
    /// hold this lock so the default parallel test harness cannot
    /// interleave them.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&i| i * 2);
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_serial_under_any_thread_count() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        let items: Vec<f64> = (0..257).map(|i| i as f64 * 0.5).collect();
        let serial: Vec<f64> = items.iter().map(|&x| x.sin()).collect();
        for threads in [1, 2, 3, 8] {
            set_max_threads(Some(threads));
            assert_eq!(par_map(&items, |&x| x.sin()), serial, "threads={threads}");
        }
        set_max_threads(None);
    }

    #[test]
    fn par_map_range_counts_up() {
        assert_eq!(par_map_range(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
        assert_eq!(par_map_range(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn par_fill_chunks_covers_every_slot() {
        let mut out = vec![0usize; 103];
        par_fill_chunks(&mut out, 10, |start, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = start + k;
            }
        });
        assert_eq!(out, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn par_fill_chunks_with_many_more_chunks_than_workers() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        // Workers iterate runs of chunks rather than spawning one
        // thread per chunk; the chunk grid must stay identical.
        set_max_threads(Some(2));
        let mut out = vec![0usize; 10_007];
        par_fill_chunks(&mut out, 8, |start, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = start + k;
            }
        });
        set_max_threads(None);
        assert_eq!(out, (0..10_007).collect::<Vec<_>>());
    }

    #[test]
    fn par_fill_chunks_with_reuses_worker_scratch() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        for threads in [1usize, 3] {
            set_max_threads(Some(threads));
            let mut out = vec![0usize; 1_001];
            par_fill_chunks_with(
                &mut out,
                16,
                || vec![0usize; 16],
                |scratch, start, chunk| {
                    // Scratch is dirty from the previous chunk — the
                    // caller owns resetting it, proving reuse.
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        scratch[k] = start + k;
                        *slot = scratch[k];
                    }
                },
            );
            assert_eq!(out, (0..1_001).collect::<Vec<_>>(), "threads {threads}");
        }
        set_max_threads(None);
    }

    #[test]
    fn the_calling_thread_takes_the_first_share() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..40).collect();
        for threads in [2, 3] {
            set_max_threads(Some(threads));
            let mapped = par_map(&items, |&i| (i * 3, std::thread::current().id()));
            let mut filled = vec![(0, caller); 40];
            par_fill_chunks_with(
                &mut filled,
                4,
                || std::thread::current().id(),
                |&mut id, start, chunk| {
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        *slot = ((start + k) * 3, id);
                    }
                },
            );
            set_max_threads(None);
            for out in [&mapped, &filled] {
                let values: Vec<usize> = out.iter().map(|&(v, _)| v).collect();
                assert_eq!(values, (0..40).map(|i| i * 3).collect::<Vec<_>>());
                assert_eq!(out[0].1, caller, "threads {threads}: first chunk");
                assert!(
                    out.iter().any(|&(_, id)| id != caller),
                    "threads {threads}: no chunk left the calling thread"
                );
            }
        }
    }

    #[test]
    fn override_wins_over_environment() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_max_threads(Some(3));
        assert_eq!(max_threads(), 3);
        set_max_threads(None);
        assert!(max_threads() >= 1);
    }
}
