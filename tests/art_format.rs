//! Hardening and equivalence suite for the `.redsart` artifact format.
//!
//! Two acceptance bars of the artifact PR:
//!
//! * **Corruption is rejected, structurally.** Flipping any single byte
//!   of a valid `.redsart` file, or truncating it at any length, makes
//!   the loader return a structured error — never a panic, hang, or
//!   out-of-bounds read. The whole-file checksum (computed with its own
//!   header field zeroed) guarantees this deterministically: each step
//!   of `reds_art::Checksum` is a bijection in the 8-byte word it
//!   consumes, so any single-byte change of an equal-length file
//!   changes the digest.
//! * **Bit-identical serving.** For all three metamodel families, the
//!   model loaded from a `.redsart` file predicts bit-identically to
//!   the `reds-json` load path, and a served `discover` returns the same
//!   boxes.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds::data::Dataset;
use reds::metamodel::{
    Gbdt, GbdtParams, Metamodel, RandomForest, RandomForestParams, SavedModel, Svm, SvmParams,
};
use reds_serve::{run_discover, ArtifactFormat, DiscoverParams, ModelArtifact};

/// A small labelled dataset with an interesting corner.
fn corner_data(n: usize, m: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::from_fn((0..n * m).map(|_| rng.gen::<f64>()).collect(), m, |x| {
        if x.iter().all(|&v| v > 0.4) {
            1.0
        } else {
            0.0
        }
    })
    .unwrap()
}

fn fit_family(family: &str, train: &Dataset, rng: &mut StdRng) -> SavedModel {
    match family {
        "f" => {
            let params = RandomForestParams {
                n_trees: 5,
                ..Default::default()
            };
            SavedModel::Forest(RandomForest::fit(train, &params, rng))
        }
        "x" => {
            let params = GbdtParams {
                n_rounds: 5,
                ..Default::default()
            };
            SavedModel::Gbdt(Gbdt::fit(train, &params, rng))
        }
        "s" => SavedModel::Svm(Svm::fit(train, &SvmParams::default(), rng)),
        other => panic!("unknown family {other}"),
    }
}

fn tiny_artifact(family: &str, seed: u64) -> ModelArtifact {
    let train = corner_data(60, 2, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let model = fit_family(family, &train, &mut rng);
    ModelArtifact {
        function: "corner".to_string(),
        seed,
        pool_seed: seed.wrapping_add(1000),
        pool_design: reds_serve::POOL_DESIGN_UNIFORM.to_string(),
        model: model.into(),
        train,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reds-art-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every single-byte flip of a valid artifact is rejected with a
/// structured error, and so is every truncation length — the loader
/// never panics (a panic would abort this very test) and never reads
/// out of bounds.
#[test]
fn every_single_byte_corruption_is_rejected() {
    let dir = temp_dir("mutate");
    let clean = dir.join("clean.redsart");
    tiny_artifact("f", 5).save_art(&clean).unwrap();
    let original = std::fs::read(&clean).unwrap();
    assert!(
        ModelArtifact::load_art(&clean).is_ok(),
        "the unmutated file must load"
    );

    let mutant = dir.join("mutant.redsart");
    for i in 0..original.len() {
        let mut bytes = original.clone();
        bytes[i] ^= 1; // the smallest possible corruption
        std::fs::write(&mutant, &bytes).unwrap();
        let err = ModelArtifact::load_art(&mutant)
            .err()
            .unwrap_or_else(|| panic!("flipping byte {i} of {} went undetected", original.len()));
        // Structured, not empty: the error renders a message.
        assert!(!err.to_string().is_empty());
    }
    for len in 0..original.len() {
        std::fs::write(&mutant, &original[..len]).unwrap();
        assert!(
            ModelArtifact::load_art(&mutant).is_err(),
            "truncation to {len} of {} bytes went undetected",
            original.len()
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// For every family: the `.redsart` and `reds-json` load paths predict
/// bit-identically and discover the same boxes.
#[test]
fn packed_models_are_bit_identical_to_json_for_all_families() {
    let dir = temp_dir("bitid");
    for family in ["f", "x", "s"] {
        for seed in [3u64, 17] {
            let artifact = tiny_artifact(family, seed);
            let json_path = dir.join(format!("{family}-{seed}.json"));
            let art_path = dir.join(format!("{family}-{seed}.redsart"));
            artifact.save(&json_path).unwrap();
            artifact.save_art(&art_path).unwrap();
            let from_json = ModelArtifact::load(&json_path).unwrap();
            let from_art = ModelArtifact::load(&art_path).unwrap();
            assert_eq!(from_json.format(), ArtifactFormat::Json);
            assert_eq!(from_art.format(), ArtifactFormat::Art);
            assert_eq!(from_art.function, from_json.function);
            assert_eq!(from_art.seed, from_json.seed);
            assert_eq!(from_art.pool_seed, from_json.pool_seed);
            assert_eq!(from_art.train, from_json.train);

            let m = artifact.train.m();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
            let probe: Vec<f64> = (0..500 * m).map(|_| rng.gen::<f64>()).collect();
            let a = from_json.model.predict_batch(&probe, m);
            let b = from_art.model.predict_batch(&probe, m);
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "family {family}, seed {seed}: prediction {i} differs ({x} vs {y})"
                );
            }
            for row in probe.chunks_exact(m).take(32) {
                assert_eq!(
                    from_json.model.predict(row).to_bits(),
                    from_art.model.predict(row).to_bits()
                );
            }

            let params = DiscoverParams {
                l: 4_000,
                seed,
                ..Default::default()
            };
            let discover = |a: &ModelArtifact| {
                run_discover(
                    |points| Ok(a.model.predict_batch(&points, m)),
                    m,
                    &a.train,
                    &params,
                )
                .unwrap()
            };
            assert_eq!(
                discover(&from_json),
                discover(&from_art),
                "family {family}, seed {seed}: served discover diverges"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Neither `.redsart` reader, nor the paged store on top of one, opens
/// a path that is not a regular file. Opening a FIFO blocks until a
/// writer appears, so the opens run on a helper thread that must answer
/// within a few seconds.
#[cfg(unix)]
#[test]
fn fifos_and_directories_are_refused_without_blocking() {
    use reds_art::{ArtError, ArtFile, ArtScan};
    use reds_ooc::{OocConfig, OocError, OocPool};
    use std::time::Duration;

    let dir = temp_dir("non-regular");
    let fifo = dir.join("pool.fifo");
    let made = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("mkfifo runs");
    assert!(made.success(), "mkfifo failed");
    for path in [fifo, dir.clone()] {
        let (tx, rx) = std::sync::mpsc::channel();
        let probe = path.clone();
        std::thread::spawn(move || {
            let file = ArtFile::open(&probe).err();
            let scan = ArtScan::open(&probe).err();
            let pool = OocPool::open(&probe, &OocConfig::default()).err();
            let _ = tx.send((file, scan, pool));
        });
        let (file, scan, pool) = rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("opening {} blocked", path.display()));
        for err in [
            file,
            scan,
            pool.map(|e| match e {
                OocError::Art(e) => e,
                other => panic!("{}: OocPool: {other}", path.display()),
            }),
        ] {
            match err {
                Some(ArtError::Io(e)) => assert!(
                    e.to_string().contains("not a regular file"),
                    "{}: {e}",
                    path.display()
                ),
                other => panic!("{}: expected a refusal, got {other:?}", path.display()),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The same XOR-every-byte bar for a *pool* artifact — one that
/// carries COLUMN, PAGE_INDEX, and DATASET sections (the out-of-core
/// store's input): both the materializing reader ([`ArtFile`]) and the
/// streaming-verify reader ([`ArtScan`], which `OocPool::open` uses)
/// reject every single-byte corruption and every truncation with a
/// structured error.
#[test]
fn every_pool_artifact_corruption_is_rejected_by_both_readers() {
    use reds_art::{ArtFile, ArtScan};
    use reds_stream::{PoolBuilder, StreamConfig};

    let dir = temp_dir("pool-mutate");
    let clean = dir.join("pool.redsart");
    let (n, m) = (60usize, 2usize);
    let points: Vec<f64> = (0..n * m)
        .map(|i| ((i * 7919) % 97) as f64 / 97.0)
        .collect();
    let labels: Vec<f64> = (0..n).map(|i| if i % 3 == 0 { 1.0 } else { 0.0 }).collect();
    let mut builder = PoolBuilder::new(m, &StreamConfig::new()).unwrap();
    builder.push_chunk(&points, &labels).unwrap();
    builder.finish_art(&clean, 16).unwrap();
    let original = std::fs::read(&clean).unwrap();
    assert!(
        ArtFile::open(&clean).is_ok(),
        "the unmutated file must load"
    );
    assert!(
        ArtScan::open(&clean).is_ok(),
        "the unmutated file must scan"
    );

    let mutant = dir.join("mutant.redsart");
    for i in 0..original.len() {
        let mut bytes = original.clone();
        bytes[i] ^= 1;
        std::fs::write(&mutant, &bytes).unwrap();
        let err = ArtFile::open(&mutant)
            .err()
            .unwrap_or_else(|| panic!("ArtFile missed a flip of byte {i}"));
        assert!(!err.to_string().is_empty());
        let err = ArtScan::open(&mutant)
            .err()
            .unwrap_or_else(|| panic!("ArtScan missed a flip of byte {i}"));
        assert!(!err.to_string().is_empty());
    }
    for len in 0..original.len() {
        std::fs::write(&mutant, &original[..len]).unwrap();
        assert!(
            ArtFile::open(&mutant).is_err(),
            "ArtFile missed truncation to {len}"
        );
        assert!(
            ArtScan::open(&mutant).is_err(),
            "ArtScan missed truncation to {len}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A file of another format version is refused as `Unsupported`, not
/// `Corrupt`, by every reader: the version check runs before the
/// checksum (which the patched version byte breaks), and the message
/// says how to get a readable file.
#[test]
fn other_format_versions_are_unsupported_by_every_reader() {
    use reds_art::{ArtError, ArtFile, VERSION};
    use reds_ooc::{OocConfig, OocError, OocPool};
    use reds_serve::ArtifactError;
    use reds_stream::{PoolBuilder, StreamConfig};

    let dir = temp_dir("version");
    let clean = dir.join("pool.redsart");
    let (n, m) = (40usize, 2usize);
    let points: Vec<f64> = (0..n * m).map(|i| (i % 13) as f64 / 13.0).collect();
    let labels: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
    let mut builder = PoolBuilder::new(m, &StreamConfig::new()).unwrap();
    builder.push_chunk(&points, &labels).unwrap();
    builder.finish_art(&clean, 16).unwrap();
    let model = dir.join("model.redsart");
    tiny_artifact("f", 3).save_art(&model).unwrap();

    let unsupported =
        |e: &ArtError| matches!(e, ArtError::Unsupported(msg) if msg.contains("reds_pack"));
    for version in [1, VERSION + 1] {
        let patch = |path: &Path| {
            let mut bytes = std::fs::read(path).unwrap();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let patched = dir.join(format!("v{version}.redsart"));
            std::fs::write(&patched, bytes).unwrap();
            patched
        };
        let (pool_v, model_v) = (patch(&clean), patch(&model));
        match ArtFile::open(&model_v) {
            Err(e) => assert!(unsupported(&e), "ArtFile, version {version}: {e}"),
            Ok(_) => panic!("ArtFile opened version {version}"),
        }
        match ModelArtifact::load_art(&model_v) {
            Err(ArtifactError::Art(e)) => {
                assert!(unsupported(&e), "load_art, version {version}: {e}")
            }
            Err(e) => panic!("load_art, version {version}: wrong error kind: {e}"),
            Ok(_) => panic!("load_art loaded version {version}"),
        }
        match OocPool::open(&pool_v, &OocConfig::new()) {
            Err(OocError::Art(e)) => {
                assert!(unsupported(&e), "OocPool, version {version}: {e}")
            }
            Err(e) => panic!("OocPool, version {version}: wrong error kind: {e}"),
            Ok(_) => panic!("OocPool opened version {version}"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Format sniffing goes by leading bytes, not extension: a `.redsart`
/// blob under a `.json` name still loads as `.redsart`, and vice versa.
#[test]
fn format_sniffing_ignores_the_extension() {
    let dir = temp_dir("sniff");
    let artifact = tiny_artifact("f", 9);
    let lying_json = dir.join("model.json");
    artifact.save_art(&lying_json).unwrap();
    let loaded = ModelArtifact::load(&lying_json).unwrap();
    assert_eq!(loaded.format(), ArtifactFormat::Art);
    let lying_art = dir.join("model.redsart");
    artifact.save(&lying_art).unwrap();
    let loaded = ModelArtifact::load(&lying_art).unwrap();
    assert_eq!(loaded.format(), ArtifactFormat::Json);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `.redsart` reader also rejects files that are well-formed at the
/// container level but structurally invalid — here, an empty file and
/// a non-artifact file.
#[test]
fn junk_files_are_rejected() {
    let dir = temp_dir("junk");
    let path = dir.join("junk.redsart");
    std::fs::write(&path, b"").unwrap();
    assert!(ModelArtifact::load_art(&path).is_err());
    std::fs::write(&path, b"REDSART1 but then garbage follows").unwrap();
    assert!(ModelArtifact::load_art(&path).is_err());
    assert!(Path::new(&path).exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Bits of every prediction, for exact comparisons (`-0.0` and NaN
/// payloads count).
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A forest fitted on `-0.0` labels has only `-0.0` leaves. Every
/// prediction path folds tree sums from `+0.0`, so the `.redsart` load
/// predicts `+0.0` per point, exactly like its own batch and the JSON
/// load.
#[test]
fn negative_zero_leaves_predict_plus_zero_through_redsart() {
    let dir = temp_dir("negzero");
    let mut rng = StdRng::seed_from_u64(0x2E20);
    let points: Vec<f64> = (0..50 * 2).map(|_| rng.gen()).collect();
    let train = Dataset::new(points, vec![-0.0; 50], 2).unwrap();
    let params = RandomForestParams {
        n_trees: 5,
        ..Default::default()
    };
    let forest = RandomForest::fit(&train, &params, &mut StdRng::seed_from_u64(1));
    let artifact = ModelArtifact {
        function: "negzero".to_string(),
        seed: 1,
        pool_seed: 2,
        pool_design: reds_serve::POOL_DESIGN_UNIFORM.to_string(),
        model: SavedModel::Forest(forest).into(),
        train,
    };
    let (json_path, art_path) = (dir.join("f.json"), dir.join("f.redsart"));
    artifact.save(&json_path).unwrap();
    artifact.save_art(&art_path).unwrap();
    let from_json = ModelArtifact::load(&json_path).unwrap();
    let from_art = ModelArtifact::load(&art_path).unwrap();
    let rows = artifact.train.points();
    let batch = from_art.model.predict_batch(rows, 2);
    for (i, x) in rows.chunks_exact(2).enumerate() {
        let point = from_art.model.predict(x).to_bits();
        assert_eq!(batch[i].to_bits(), 0.0f64.to_bits(), "batch row {i}");
        assert_eq!(point, batch[i].to_bits(), "per-point row {i}");
        assert_eq!(point, from_json.model.predict(x).to_bits(), "json row {i}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A loaded `.redsart` model owns everything it predicts from: cutting
/// its file to nothing, then overwriting it in place with junk of the
/// original length, changes no prediction bit.
#[test]
fn loaded_models_do_not_read_their_file_again() {
    use std::io::Write;
    let dir = temp_dir("rewrite");
    for family in ["f", "x", "s"] {
        let path = dir.join(format!("{family}.redsart"));
        tiny_artifact(family, 23).save_art(&path).unwrap();
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        let loaded = ModelArtifact::load(&path).unwrap();
        let m = loaded.train.m();
        let mut rng = StdRng::seed_from_u64(41);
        let probe: Vec<f64> = (0..300 * m).map(|_| rng.gen()).collect();
        let want = bits(&loaded.model.predict_batch(&probe, m));

        let in_place = || std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        in_place().set_len(0).unwrap();
        assert_eq!(
            bits(&loaded.model.predict_batch(&probe, m)),
            want,
            "{family}: truncated"
        );
        in_place().write_all(&vec![0xff; len]).unwrap();
        assert_eq!(
            bits(&loaded.model.predict_batch(&probe, m)),
            want,
            "{family}: overwritten"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One tree arena in the model-section layout: node count, features,
/// zero padding to 8, values, rights, zero padding to 8. Nodes are
/// `(feature, value, right)`.
fn arena_bytes(nodes: &[(u32, f64, u32)]) -> Vec<u8> {
    let pad8 = |b: &mut Vec<u8>| b.resize(b.len().next_multiple_of(8), 0);
    let mut b = (nodes.len() as u64).to_le_bytes().to_vec();
    nodes.iter().for_each(|n| b.extend(n.0.to_le_bytes()));
    pad8(&mut b);
    nodes.iter().for_each(|n| b.extend(n.1.to_le_bytes()));
    nodes.iter().for_each(|n| b.extend(n.2.to_le_bytes()));
    pad8(&mut b);
    b
}

/// A forest or GBDT model section with `m = 2` over the given arenas.
fn model_section(family: u32, arenas: &[Vec<u8>]) -> Vec<u8> {
    let mut b = family.to_le_bytes().to_vec();
    b.extend(2u32.to_le_bytes());
    if family == reds_art::FAMILY_GBDT {
        b.extend(0.25f64.to_le_bytes());
        b.extend(0.1f64.to_le_bytes());
    }
    b.extend((arenas.len() as u64).to_le_bytes());
    arenas.iter().for_each(|a| b.extend(a));
    b
}

/// Model sections whose checksums are valid but whose trees break a
/// traversal invariant reach the structural checks, which reject each
/// with [`ArtError::Corrupt`] instead of panicking or predicting.
#[test]
fn structurally_invalid_model_sections_are_rejected() {
    use reds::metamodel::FlatTree;
    use reds_art::{ArtError, ArtFile, ArtWriter, FAMILY_FOREST, FAMILY_GBDT, SECTION_MODEL};

    const LEAF: u32 = FlatTree::LEAF;
    let dir = temp_dir("structure");
    let path = dir.join("model.redsart");
    let open = |payload: &[u8]| {
        let mut w = ArtWriter::create(&path).unwrap();
        w.section(SECTION_MODEL, payload).unwrap();
        w.finish().unwrap();
        ArtFile::open(&path).expect("checksums are valid").model()
    };
    type Nodes = &'static [(u32, f64, u32)];
    let valid: Nodes = &[(0, 0.5, 2), (LEAF, 0.0, 1), (LEAF, 1.0, 2)];
    let bad_trees: [(&str, Nodes); 5] = [
        (
            "right child points backward",
            &[(0, 0.5, 2), (LEAF, 0.0, 1), (1, 0.7, 1), (LEAF, 1.0, 3)],
        ),
        (
            "right child past the arena",
            &[(0, 0.5, 9), (LEAF, 0.0, 1), (LEAF, 1.0, 2)],
        ),
        (
            "split feature >= m",
            &[(2, 0.5, 2), (LEAF, 0.0, 1), (LEAF, 1.0, 2)],
        ),
        (
            "leaf without a self-loop",
            &[(0, 0.5, 2), (LEAF, 0.0, 2), (LEAF, 1.0, 2)],
        ),
        ("tree with zero nodes", &[]),
    ];
    for family in [FAMILY_FOREST, FAMILY_GBDT] {
        let good = model_section(family, &[arena_bytes(valid)]);
        let model = open(&good).expect("valid section");
        assert!(model.predict(&[0.2, 0.0]) < model.predict(&[0.8, 0.0]));

        // Each bad tree follows a valid one, so the check must reach it.
        let mut cases: Vec<(&str, Vec<u8>)> = bad_trees
            .iter()
            .map(|&(what, nodes)| {
                let arenas = [arena_bytes(valid), arena_bytes(nodes)];
                (what, model_section(family, &arenas))
            })
            .collect();
        cases.push(("zero trees", model_section(family, &[])));
        cases.push(("trailing bytes", [good, vec![0; 8]].concat()));
        for (what, payload) in cases {
            match open(&payload) {
                Err(ArtError::Corrupt(_)) => {}
                Err(e) => panic!("family {family}, {what}: wrong error kind: {e}"),
                Ok(_) => panic!("family {family}, {what}: accepted"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// JSON → `.redsart` → JSON is lossless to the byte for every family:
/// a `.redsart`-loaded artifact saves the same document it was packed
/// from.
#[test]
fn unpacking_a_redsart_reproduces_its_json_byte_for_byte() {
    let dir = temp_dir("unpack");
    for family in ["f", "x", "s"] {
        let (json, art, back) = (
            dir.join(format!("{family}.json")),
            dir.join(format!("{family}.redsart")),
            dir.join(format!("{family}-back.json")),
        );
        tiny_artifact(family, 31).save(&json).unwrap();
        ModelArtifact::load(&json).unwrap().save_art(&art).unwrap();
        ModelArtifact::load(&art).unwrap().save(&back).unwrap();
        assert!(
            std::fs::read(&json).unwrap() == std::fs::read(&back).unwrap(),
            "family {family}: unpacked JSON differs from the original"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
