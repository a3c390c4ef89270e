//! The shared harness of the `bench_report` binary: the training set,
//! timing, the exact comparison of discovered boxes, measurement child
//! processes, the report writer and the list of failed gates. Every
//! section of the report uses these, so each exists once.

use std::io::Write;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds_data::Dataset;
use reds_json::Json;
use reds_subgroup::SdResult;

use crate::{cli_fail, rss};

/// The reports' training set: `n` uniform points in `[0, 1]^m`,
/// labelled 1 in the corner `x₀ > 0.6, x₁ > 0.6`.
pub fn corner_data(n: usize, m: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::from_fn((0..n * m).map(|_| rng.gen::<f64>()).collect(), m, |x| {
        if x[0] > 0.6 && x[1] > 0.6 {
            1.0
        } else {
            0.0
        }
    })
    .expect("valid shape")
}

/// Best-of-`reps` wall time of `f`, in milliseconds, plus its last
/// result.
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let value = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(value);
    }
    (best, out.expect("at least one rep"))
}

/// The median of `xs` (the upper middle one of an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Whether two slices of floats are equal bit for bit.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The exact bits of a discovery result: the box count, then for each
/// box, coarsest first, its dimension and the bits of every lower and
/// upper bound. Two results are the same boxes exactly when these are
/// equal, so `+0.0` and `−0.0` differ.
pub fn box_bits(result: &SdResult) -> Vec<u64> {
    let mut bits = vec![result.boxes.len() as u64];
    for b in &result.boxes {
        bits.push(b.m() as u64);
        for j in 0..b.m() {
            let (lo, hi) = b.bound(j);
            bits.extend([lo.to_bits(), hi.to_bits()]);
        }
    }
    bits
}

/// FNV-1a over [`box_bits`]: the form in which results from different
/// processes are compared.
pub fn box_digest(result: &SdResult) -> u64 {
    box_bits(result)
        .iter()
        .flat_map(|word| word.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Runs this binary again with its own arguments plus `--measure MODE`
/// and returns the JSON object the child prints. Each measured
/// configuration gets a process of its own because `VmHWM` is a
/// process-wide high-water mark: two configurations measured in one
/// process would shadow each other.
pub fn measure_in_child(mode: &str) -> Json {
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| cli_fail(format!("cannot locate own binary: {e}"), ""));
    let output = Command::new(exe)
        .args(std::env::args().skip(1))
        .args(["--measure", mode])
        .output()
        .unwrap_or_else(|e| cli_fail(format!("cannot spawn measurement child: {e}"), ""));
    if !output.status.success() {
        let _ = std::io::stderr().write_all(&output.stderr);
        cli_fail(format!("measurement child '{mode}' failed"), "");
    }
    let text = String::from_utf8_lossy(&output.stdout);
    reds_json::from_str(text.trim())
        .unwrap_or_else(|e| cli_fail(format!("child '{mode}' emitted bad JSON: {e}"), ""))
}

/// Prints a measurement child's one JSON line: its mode, the wall time
/// since `t0`, its peak RSS (`VmHWM`), then `fields`.
pub fn print_measurement(mode: &str, t0: Instant, fields: Vec<(&str, Json)>) {
    let runtime_ms = t0.elapsed().as_secs_f64() * 1e3;
    let peak = rss::peak_rss_bytes().map_or(Json::Null, |b| Json::num(b as f64));
    let mut pairs = vec![
        ("mode", Json::str(mode)),
        ("runtime_ms", Json::num(runtime_ms)),
        ("peak_rss_bytes", peak),
    ];
    pairs.extend(fields);
    println!("{}", Json::obj(pairs).to_string_compact());
}

/// Writes `doc` to `out_dir/name`, creating `out_dir`, and says so on
/// stderr. Exits with status 2 if it cannot.
pub fn write_report(out_dir: &str, name: &str, doc: &Json) {
    let path = Path::new(out_dir).join(name);
    let mut text = doc.to_string_pretty();
    text.push('\n');
    if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, text)) {
        cli_fail(format!("cannot write {}: {e}", path.display()), "");
    }
    eprintln!("wrote {}", path.display());
}

/// The report's gates. Every failed gate is kept, so one run names all
/// of them.
#[derive(Debug, Default)]
pub struct Gates {
    checked: usize,
    failures: Vec<String>,
}

impl Gates {
    /// Records `failure` unless `ok`; returns `ok`.
    pub fn check(&mut self, ok: bool, failure: impl Into<String>) -> bool {
        self.checked += 1;
        if !ok {
            self.failures.push(failure.into());
        }
        ok
    }

    /// Writes one `FAIL:` line per failed gate, or one `OK:` line if
    /// gates were checked and none failed, and returns the exit status:
    /// 1 if a gate failed, else 0.
    pub fn summarize(&self, out: &mut impl Write) -> i32 {
        for failure in &self.failures {
            let _ = writeln!(out, "FAIL: {failure}");
        }
        if self.failures.is_empty() && self.checked > 0 {
            let _ = writeln!(out, "OK: no gate failed ({} checked)", self.checked);
        }
        i32::from(!self.failures.is_empty())
    }

    /// [`Gates::summarize`] to stderr; exits with status 1 if a gate
    /// failed.
    pub fn finish(&self) {
        let status = self.summarize(&mut std::io::stderr());
        if status != 0 {
            std::process::exit(status);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reds_subgroup::HyperBox;

    fn result(boxes: &[&[(f64, f64)]]) -> SdResult {
        SdResult {
            boxes: boxes
                .iter()
                .map(|b| HyperBox::from_bounds(b.to_vec()))
                .collect(),
        }
    }

    fn same(a: &SdResult, b: &SdResult) -> bool {
        let in_process = box_bits(a) == box_bits(b);
        assert_eq!(
            in_process,
            box_digest(a) == box_digest(b),
            "digest disagrees"
        );
        in_process
    }

    #[test]
    fn box_comparison_tells_apart_any_one_bit_change() {
        let base = result(&[&[(0.25, 0.75), (0.1, 0.5)], &[(0.3, 0.7), (0.1, 0.5)]]);
        assert!(same(&base, &base.clone()));
        // Mantissa bits and the lowest exponent bit: flipping any of
        // them keeps every lower bound of these boxes below its upper.
        for bit in [0, 17, 51, 52] {
            for at in 0..8 {
                let (b, j, lower) = (at / 4, at / 2 % 2, at % 2 == 0);
                let mut bounds = base.boxes[b].bounds().to_vec();
                let v = if lower {
                    &mut bounds[j].0
                } else {
                    &mut bounds[j].1
                };
                *v = f64::from_bits(v.to_bits() ^ (1 << bit));
                let mut changed = base.clone();
                changed.boxes[b] = HyperBox::from_bounds(bounds);
                assert!(
                    !same(&base, &changed),
                    "box {b} dim {j} lower {lower} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn box_comparison_tells_apart_signed_zeros_and_box_counts() {
        let plus = result(&[&[(0.0, 1.0)]]);
        let minus = result(&[&[(-0.0, 1.0)]]);
        assert!(!same(&plus, &minus));
        let two = result(&[&[(0.0, 1.0)], &[(0.0, 1.0)]]);
        assert!(!same(&plus, &two));
        assert!(!same(&result(&[]), &plus));
    }

    #[test]
    fn every_failed_gate_is_reported() {
        let mut gates = Gates::default();
        assert!(!gates.check(false, "first gate"));
        assert!(gates.check(true, "passing gate"));
        assert!(!gates.check(false, String::from("second gate")));
        let mut out = Vec::new();
        assert_eq!(gates.summarize(&mut out), 1);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, "FAIL: first gate\nFAIL: second gate\n");
    }

    #[test]
    fn passing_gates_exit_zero() {
        let mut gates = Gates::default();
        let mut out = Vec::new();
        assert_eq!(gates.summarize(&mut out), 0);
        assert!(out.is_empty(), "no gate, no verdict");
        gates.check(true, "a gate");
        assert_eq!(gates.summarize(&mut out), 0);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "OK: no gate failed (1 checked)\n"
        );
    }

    #[test]
    fn a_single_flipped_prediction_bit_is_a_difference() {
        let a = [0.5, -0.0, f64::NAN];
        let mut b = a;
        assert!(same_bits(&a, &b));
        b[1] = 0.0;
        assert!(!same_bits(&a, &b));
        assert!(!same_bits(&a, &a[..2]));
    }
}
