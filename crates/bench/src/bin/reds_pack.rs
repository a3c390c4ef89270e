//! Repacks a serving artifact between `reds-json` and `.redsart`.
//!
//! ```text
//! cargo run --release -p reds-bench --bin reds_pack -- \
//!     --in model.json --out model.redsart
//! ```
//!
//! The input is an artifact in either format, sniffed from its leading
//! bytes; the output format follows the `--out` extension: a
//! `.redsart` target writes the binary container, anything else writes
//! `reds-json`. Packing is lossless both ways for the model, the
//! training data, and the provenance fields — serving the packed
//! artifact is bit-identical to serving the original, and unpacking a
//! `.redsart` back to JSON reproduces the JSON that `fit_model` wrote
//! byte for byte (pinned by `tests/art_format.rs` and the CI serving
//! smoke).

use std::path::Path;

use reds_bench::{cli_fail, Args};
use reds_serve::ModelArtifact;

const USAGE: &str = "usage: reds_pack --in PATH --out PATH";

fn main() {
    let args = Args::parse();
    let input = args.get_str("in", "");
    if input.is_empty() {
        cli_fail("--in is required", USAGE);
    }
    let out = args.get_str("out", "");
    if out.is_empty() {
        cli_fail("--out is required", USAGE);
    }

    let artifact = match ModelArtifact::load(Path::new(&input)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: cannot load {input}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "loaded {} artifact: {} metamodel for '{}' (N = {}, m = {})",
        artifact.format().name(),
        artifact.model.family(),
        artifact.function,
        artifact.train.n(),
        artifact.train.m(),
    );

    let result = if out.ends_with(".redsart") {
        artifact.save_art(Path::new(&out))
    } else {
        artifact.save(Path::new(&out))
    };
    if let Err(e) = result {
        eprintln!("error: cannot save {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}");
}
