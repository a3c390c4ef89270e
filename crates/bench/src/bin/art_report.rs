//! Cold-start report: loading a serving artifact from `reds-json`
//! vs the `.redsart` binary container.
//!
//! ```text
//! cargo run --release -p reds-bench --bin art_report -- \
//!     [--function morris] [--n 400] [--trees 100] [--seed 7] \
//!     [--family f|x|s] [--reps 5] [--probe-rows 4096] [--out-dir .]
//! ```
//!
//! Fits one metamodel, saves it in both formats, then measures the
//! cold-start path a server pays on boot: `ModelArtifact::load`
//! (parse-and-validate for JSON, verify-and-decode for `.redsart`)
//! followed by a first `predict_batch` over `--probe-rows` fresh
//! points. Every repetition also bit-compares the two formats'
//! predictions — a speedup that changed a prediction bit would be a
//! bug, not a result. Emits `BENCH_art.json` with per-format median
//! wall times and the file sizes.
//!
//! Page-cache effects are *not* controlled here (both formats benefit
//! equally on a warm cache); the interesting gap is the JSON parse and
//! decimal float decode that the binary path replaces with checksums
//! and a little-endian copy into the same owned arenas.

use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds_bench::{cli_fail, resolve_function, Args};
use reds_json::Json;
use reds_metamodel::{
    Gbdt, GbdtParams, Metamodel, RandomForest, RandomForestParams, SavedModel, Svm, SvmParams,
};
use reds_sampling::{latin_hypercube, uniform};
use reds_serve::{ArtifactFormat, ModelArtifact};

const USAGE: &str = "usage: art_report [--function NAME] [--n N] [--trees N] [--seed N] \
[--family f|x|s] [--reps N] [--probe-rows N] [--out-dir DIR]";

struct Sample {
    load_s: f64,
    probe_s: f64,
    predictions: Vec<f64>,
}

/// One cold-start repetition: load from disk, predict a probe batch.
fn cold_start(path: &Path, expect: ArtifactFormat, probe: &[f64], m: usize) -> Sample {
    let t0 = Instant::now();
    let artifact = match ModelArtifact::load(path) {
        Ok(a) => a,
        Err(e) => cli_fail(format!("cannot load {}: {e}", path.display()), ""),
    };
    let load_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        artifact.format(),
        expect,
        "format sniffing disagrees with the file we wrote"
    );
    let t1 = Instant::now();
    let predictions = artifact.model.predict_batch(probe, m);
    Sample {
        load_s,
        probe_s: t1.elapsed().as_secs_f64(),
        predictions,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let args = Args::parse();
    let fname = args.get_str("function", "morris");
    let f = resolve_function(&fname);
    let n = args.get_usize("n", 400);
    let trees = args.get_usize("trees", 100);
    let seed = args.get_usize("seed", 7) as u64;
    let family = args.get_str("family", "f");
    let reps = args.get_usize("reps", 5).max(1);
    let probe_rows = args.get_usize("probe-rows", 4096).max(1);
    let out_dir = args.get_str("out-dir", ".");
    if n == 0 {
        cli_fail("--n must be positive", USAGE);
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        cli_fail(format!("cannot create {out_dir}: {e}"), "");
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let design = latin_hypercube(n, f.m(), &mut rng);
    let train = f
        .label_dataset(design, &mut rng)
        .expect("design shape matches the function");
    let model = match family.as_str() {
        "f" => {
            let params = RandomForestParams {
                n_trees: trees,
                ..Default::default()
            };
            SavedModel::Forest(RandomForest::fit(&train, &params, &mut rng))
        }
        "x" => {
            let params = GbdtParams {
                n_rounds: trees,
                ..Default::default()
            };
            SavedModel::Gbdt(Gbdt::fit(&train, &params, &mut rng))
        }
        "s" => SavedModel::Svm(Svm::fit(&train, &SvmParams::default(), &mut rng)),
        other => cli_fail(
            format!("unknown family '{other}' (expected f, x, or s)"),
            USAGE,
        ),
    };
    let m = train.m();
    let probe = uniform(probe_rows, m, &mut rng);

    let artifact = ModelArtifact {
        function: f.name().to_string(),
        seed,
        pool_seed: rng.gen::<u64>(),
        pool_design: reds_serve::POOL_DESIGN_UNIFORM.to_string(),
        model: model.into(),
        train,
    };
    let json_path = format!("{out_dir}/art_report_model.json");
    let art_path = format!("{out_dir}/art_report_model.redsart");
    if let Err(e) = artifact.save(Path::new(&json_path)) {
        cli_fail(format!("cannot save {json_path}: {e}"), "");
    }
    if let Err(e) = artifact.save_art(Path::new(&art_path)) {
        cli_fail(format!("cannot save {art_path}: {e}"), "");
    }
    let file_len = |p: &str| std::fs::metadata(p).map(|md| md.len()).unwrap_or(0);

    let mut json_load = Vec::new();
    let mut json_probe = Vec::new();
    let mut art_load = Vec::new();
    let mut art_probe = Vec::new();
    let mut identical = true;
    for _ in 0..reps {
        let j = cold_start(Path::new(&json_path), ArtifactFormat::Json, &probe, m);
        let a = cold_start(Path::new(&art_path), ArtifactFormat::Art, &probe, m);
        identical &= j.predictions.len() == a.predictions.len()
            && j.predictions
                .iter()
                .zip(&a.predictions)
                .all(|(x, y)| x.to_bits() == y.to_bits());
        json_load.push(j.load_s);
        json_probe.push(j.probe_s);
        art_load.push(a.load_s);
        art_probe.push(a.probe_s);
    }

    let json_load_med = median(json_load);
    let art_load_med = median(art_load);
    let report = Json::obj([
        ("bench", Json::str("art_cold_start")),
        ("function", Json::str(f.name())),
        ("family", Json::str(family.clone())),
        ("n_train", Json::num(n as f64)),
        ("trees", Json::num(trees as f64)),
        ("seed", Json::num(seed as f64)),
        ("reps", Json::num(reps as f64)),
        ("probe_rows", Json::num(probe_rows as f64)),
        ("json_bytes", Json::num(file_len(&json_path) as f64)),
        ("redsart_bytes", Json::num(file_len(&art_path) as f64)),
        ("json_load_s", Json::num(json_load_med)),
        ("redsart_load_s", Json::num(art_load_med)),
        ("json_probe_s", Json::num(median(json_probe))),
        ("redsart_probe_s", Json::num(median(art_probe))),
        (
            "load_speedup",
            Json::num(if art_load_med > 0.0 {
                json_load_med / art_load_med
            } else {
                f64::INFINITY
            }),
        ),
        ("bit_identical", Json::Bool(identical)),
    ]);
    let path = format!("{out_dir}/BENCH_art.json");
    let mut text = report.to_string_pretty();
    text.push('\n');
    if let Err(e) = std::fs::write(&path, text) {
        cli_fail(format!("cannot write {path}: {e}"), "");
    }
    eprintln!("wrote {path}");
    eprintln!(
        "cold start: reds-json {:.1} ms, .redsart {:.1} ms ({:.1}x); predictions {}",
        json_load_med * 1e3,
        art_load_med * 1e3,
        if art_load_med > 0.0 {
            json_load_med / art_load_med
        } else {
            f64::INFINITY
        },
        if identical { "bit-identical" } else { "DIFFER" },
    );
    if !identical {
        std::process::exit(1);
    }
}
