//! Trains `f^am` for a named benchmark function and saves it as a
//! serving artifact (model + training data) for `reds_serve`.
//!
//! ```text
//! cargo run --release -p reds-bench --bin fit_model -- \
//!     --function morris --n 400 [--seed 7] [--family f|x|s] \
//!     [--trees 200] [--rounds 150] --out model.json
//! ```
//!
//! `--out model.redsart` writes the binary artifact instead of JSON
//! (see `docs/artifact-format.md`); both load into the same model in
//! `reds_serve`.
//!
//! The training run mirrors one repetition of the paper's experiments:
//! a Latin-hypercube design of `N` points on `[0,1]^M`, labelled by the
//! simulation function, fitted with the chosen metamodel family's
//! default hyperparameters. The same `--seed` always produces the same
//! artifact.

use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds_bench::{cli_fail, resolve_function, Args};
use reds_metamodel::{
    Gbdt, GbdtParams, RandomForest, RandomForestParams, SavedModel, Svm, SvmParams,
};
use reds_sampling::latin_hypercube;
use reds_serve::ModelArtifact;

const USAGE: &str = "usage: fit_model --function NAME --out PATH \
[--n 400] [--seed 7] [--family f|x|s] [--trees N] [--rounds N]";

fn main() {
    let args = Args::parse();
    let fname = args.get_str("function", "");
    if fname.is_empty() {
        cli_fail("--function is required", USAGE);
    }
    let out = args.get_str("out", "");
    if out.is_empty() {
        cli_fail("--out is required", USAGE);
    }
    let f = resolve_function(&fname);
    let n = args.get_usize("n", 400);
    if n == 0 {
        cli_fail("--n must be positive", USAGE);
    }
    let seed = args.get_usize("seed", 7) as u64;
    let family = args.get_str("family", "f");

    let mut rng = StdRng::seed_from_u64(seed);
    let design = latin_hypercube(n, f.m(), &mut rng);
    let train = f
        .label_dataset(design, &mut rng)
        .expect("design shape matches the function");

    let model = match family.as_str() {
        "f" => {
            let params = RandomForestParams {
                n_trees: args.get_usize("trees", RandomForestParams::default().n_trees),
                ..Default::default()
            };
            SavedModel::Forest(RandomForest::fit(&train, &params, &mut rng))
        }
        "x" => {
            let params = GbdtParams {
                n_rounds: args.get_usize("rounds", GbdtParams::default().n_rounds),
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

    // Drawn from the *continuation* of the training RNG stream, then
    // frozen into the artifact: a `discover_streaming` served without
    // an explicit seed streams exactly this pool, so the served run is
    // reproducible from the artifact file alone.
    let pool_seed = rng.gen::<u64>();

    let artifact = ModelArtifact {
        function: f.name().to_string(),
        seed,
        pool_seed,
        pool_design: reds_serve::POOL_DESIGN_UNIFORM.to_string(),
        model: model.into(),
        train,
    };
    // `.redsart` targets get the binary container; anything else stays
    // on the `reds-json` interchange format.
    let result = if out.ends_with(".redsart") {
        artifact.save_art(Path::new(&out))
    } else {
        artifact.save(Path::new(&out))
    };
    if let Err(e) = result {
        eprintln!("error: cannot save {out}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "saved {} metamodel for '{}' (N = {}, m = {}, seed = {seed}) to {out}",
        artifact.model.family(),
        artifact.function,
        artifact.train.n(),
        artifact.train.m(),
    );
}
