//! `--section art`: cold starts from a `reds-json` model file against
//! the `.redsart` binary container.
//!
//! ```text
//! bench_report --section art [--function morris] [--n 400] [--trees 100] \
//!     [--seed 7] [--family f|x|s] [--reps 5] [--probe-rows 4096] [--out-dir .]
//! ```
//!
//! Fits one metamodel, saves it in both formats, then measures the
//! cold-start path a server pays on boot: `ModelArtifact::load`
//! (parse-and-validate for JSON, verify-and-decode for `.redsart`)
//! followed by a first `predict_batch` over `--probe-rows` fresh
//! points. The gate: every repetition's predictions are bit-identical
//! across the two formats — a speedup that changed a prediction bit
//! would be a bug, not a result. Writes `BENCH_art.json` with per-format
//! median wall times and the file sizes.
//!
//! Page-cache effects are *not* controlled here (both formats benefit
//! equally on a warm cache); the interesting gap is the JSON parse and
//! decimal float decode that the binary path replaces with checksums
//! and a little-endian copy into the same owned arenas.

use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds_bench::report::{median, same_bits, write_report, Gates};
use reds_bench::{cli_fail, resolve_function, Args};
use reds_json::Json;
use reds_metamodel::{
    Gbdt, GbdtParams, Metamodel, RandomForest, RandomForestParams, SavedModel, Svm, SvmParams,
};
use reds_sampling::{latin_hypercube, uniform};
use reds_serve::{ArtifactFormat, ModelArtifact};

/// One cold start: load `path`, predict `probe`. Returns the load and
/// the probe seconds and the predictions.
fn cold_start(path: &str, expect: ArtifactFormat, probe: &[f64], m: usize) -> (f64, f64, Vec<f64>) {
    let t0 = Instant::now();
    let artifact = ModelArtifact::load(Path::new(path))
        .unwrap_or_else(|e| cli_fail(format!("cannot load {path}: {e}"), ""));
    let load_s = t0.elapsed().as_secs_f64();
    if artifact.format() != expect {
        cli_fail(
            format!("{path} was not read as the format it was written in"),
            "",
        );
    }
    let t1 = Instant::now();
    let predictions = artifact.model.predict_batch(probe, m);
    (load_s, t1.elapsed().as_secs_f64(), predictions)
}

pub fn run(args: &Args, gates: &mut Gates) {
    let f = resolve_function(&args.get_str("function", "morris"));
    let n = args.get_usize("n", 400);
    let trees = args.get_usize("trees", 100);
    let seed = args.get_usize("seed", 7) as u64;
    let family = args.get_str("family", "f");
    let reps = args.get_usize("reps", 5).max(1);
    let probe_rows = args.get_usize("probe-rows", 4096).max(1);
    let out_dir = args.get_str("out-dir", ".");
    if n == 0 {
        cli_fail("--n must be positive", super::USAGE);
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
            super::USAGE,
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
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        cli_fail(format!("cannot create {out_dir}: {e}"), "");
    }
    let json_path = format!("{out_dir}/art_report_model.json");
    let art_path = format!("{out_dir}/art_report_model.redsart");
    if let Err(e) = artifact.save(Path::new(&json_path)) {
        cli_fail(format!("cannot save {json_path}: {e}"), "");
    }
    if let Err(e) = artifact.save_art(Path::new(&art_path)) {
        cli_fail(format!("cannot save {art_path}: {e}"), "");
    }
    let file_len = |p: &str| std::fs::metadata(p).map_or(0, |md| md.len());

    let (mut json_load, mut json_probe) = (Vec::new(), Vec::new());
    let (mut art_load, mut art_probe) = (Vec::new(), Vec::new());
    let mut identical = true;
    for _ in 0..reps {
        let (load, probe_s, from_json) = cold_start(&json_path, ArtifactFormat::Json, &probe, m);
        json_load.push(load);
        json_probe.push(probe_s);
        let (load, probe_s, from_art) = cold_start(&art_path, ArtifactFormat::Art, &probe, m);
        art_load.push(load);
        art_probe.push(probe_s);
        identical &= same_bits(&from_json, &from_art);
    }
    gates.check(
        identical,
        "predictions differ between the reds-json and the .redsart model",
    );

    let json_load_med = median(json_load);
    let art_load_med = median(art_load);
    let load_speedup = if art_load_med > 0.0 {
        json_load_med / art_load_med
    } else {
        f64::INFINITY
    };
    let report = Json::obj([
        ("bench", Json::str("art_cold_start")),
        ("function", Json::str(f.name())),
        ("family", Json::str(family)),
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
        ("load_speedup", Json::num(load_speedup)),
        ("bit_identical", Json::Bool(identical)),
    ]);
    write_report(&out_dir, "BENCH_art.json", &report);
    eprintln!(
        "cold start: reds-json {:.1} ms, .redsart {:.1} ms ({load_speedup:.1}x); predictions {}",
        json_load_med * 1e3,
        art_load_med * 1e3,
        if identical { "bit-identical" } else { "DIFFER" },
    );
}
