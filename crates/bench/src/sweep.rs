//! The sharded, checkpointable sweep driver shared by the `table3`,
//! `table4`, and `merge_shards` binaries.
//!
//! A *sweep* is the full function × `N` grid of experiments behind one
//! of the paper's tables. Its work decomposes into the deterministic
//! [`WorkUnit`]s of `reds-eval`: every unit is assigned round-robin to
//! one of `--shard i/k` shards, executed with checkpointing
//! (`--checkpoint-dir`, `--resume`), and later recombined by
//! `merge_shards` into a report that is byte-identical to the
//! monolithic run (wall-clock runtimes excepted — they are measured,
//! not derived; every other number is bit-exact).

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use reds_eval::checkpoint::{
    load_checkpoint, merge_records, CheckpointError, CheckpointHeader, CheckpointWriter,
    ShardCheckpoint, UnitRecord,
};
use reds_eval::jsonl::LogError;
use reds_eval::stats::{friedman_test, spearman, wilcoxon_signed_rank};
use reds_eval::workunit::{enumerate_units, stable_hash};
use reds_eval::{
    aggregate_units, execute_units, execute_units_with, spec_fingerprint, Evaluation,
    ExperimentSpec, MethodOpts, MethodSummary, WorkUnit, BI_FAMILY, PRIM_FAMILY,
};
use reds_fleet::{UnitExecutor, JOURNAL_FILE};
use reds_functions::by_name;
use reds_json::Json;

use crate::{cli_fail, function_names, resolve_function, Args};

/// Usage text shared by the sweep binaries' CLI error paths.
pub const SWEEP_USAGE: &str = "sweep flags:
  --functions a,b,c     benchmark functions (--all for all 33)
  --ns 200,400,800      training sizes
  --reps N              repetitions per cell
  --l N / --l-bi N      pseudo-label sample sizes
  --q N                 bumping ensemble size
  --test N              held-out test size
  --methods P,RPf,...   method columns
  --json PATH           machine-readable rows
  --shard i/k           run shard i of k (requires --checkpoint-dir)
  --checkpoint-dir DIR  JSONL checkpoint directory
  --resume              skip units already checkpointed";

/// The `--key value` options [`SWEEP_USAGE`] lists, for
/// [`Args::accept_only`].
pub const SWEEP_OPTIONS: [&str; 11] = [
    "functions",
    "ns",
    "reps",
    "l",
    "l-bi",
    "q",
    "test",
    "methods",
    "json",
    "shard",
    "checkpoint-dir",
];

/// The bare flags [`SWEEP_USAGE`] lists.
pub const SWEEP_FLAGS: [&str; 2] = ["all", "resume"];

/// Which table's grid and report a sweep reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// Table 3 / Figure 7: the PRIM family.
    Table3,
    /// Table 4 / Figure 8: the BI family.
    Table4,
}

/// A fully-resolved sweep: the unique experiment specs plus the
/// metadata the report renderer needs.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Table 3 or Table 4.
    pub kind: TableKind,
    /// Benchmark functions, in report order.
    pub functions: Vec<String>,
    /// Training sizes, in report order.
    pub ns: Vec<usize>,
    /// The `N` at which the §9.1.1 statistics are computed.
    pub stat_n: usize,
    /// Method names, in column order.
    pub methods: Vec<String>,
    /// Unique experiment specs (the grid plus the `mor800` row, which
    /// coincides with the grid cell when `morris`/`800` are swept —
    /// stable seeding makes the two bit-identical, so it is stored
    /// once).
    pub specs: Vec<ExperimentSpec>,
    fingerprints: Vec<String>,
}

impl Sweep {
    /// The Table 3 sweep for the binaries' shared CLI arguments.
    pub fn table3(args: &Args) -> Self {
        Self::build(TableKind::Table3, args, &PRIM_FAMILY)
    }

    /// The Table 4 sweep for the binaries' shared CLI arguments.
    pub fn table4(args: &Args) -> Self {
        Self::build(TableKind::Table4, args, &BI_FAMILY)
    }

    fn build(kind: TableKind, args: &Args, family: &[&str]) -> Self {
        let reps = args.get_usize("reps", 10);
        let functions = function_names(args);
        let ns = args.get_usize_list("ns", &[200, 400, 800], SWEEP_USAGE);
        let opts = MethodOpts {
            l_prim: args.get_usize("l", 20_000),
            l_bi: args.get_usize("l-bi", 10_000),
            bumping_q: args.get_usize("q", 20),
            ..Default::default()
        };
        let test_size = args.get_usize("test", 20_000);
        let methods: Vec<String> = args
            .get_str("methods", &family.join(","))
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let method_refs: Vec<&str> = methods.iter().map(String::as_str).collect();

        let make_spec = |fname: &str, n: usize| {
            let f = resolve_function(fname);
            let mut spec = ExperimentSpec::new(f, n, &method_refs);
            spec.reps = reps;
            spec.test_size = test_size;
            spec.opts = opts.clone();
            spec
        };

        let mut specs = Vec::new();
        let mut fingerprints = Vec::new();
        let mut push_unique = |spec: ExperimentSpec| {
            let fp = spec_fingerprint(&spec);
            if !fingerprints.contains(&fp) {
                specs.push(spec);
                fingerprints.push(fp);
            }
        };
        for n in &ns {
            for fname in &functions {
                push_unique(make_spec(fname, *n));
            }
        }
        // The tables' extra "mor800" row.
        push_unique(make_spec("morris", 800));

        let stat_n = ns.get(1).copied().unwrap_or(ns[0]);
        Self {
            kind,
            functions,
            ns,
            stat_n,
            methods,
            specs,
            fingerprints,
        }
    }

    /// Digest of the whole sweep configuration; shard checkpoints carry
    /// it so differently-configured partial results cannot be merged.
    pub fn fingerprint(&self) -> String {
        let kind = match self.kind {
            TableKind::Table3 => "table3",
            TableKind::Table4 => "table4",
        };
        let parts: Vec<&str> = std::iter::once(kind)
            .chain(self.fingerprints.iter().map(String::as_str))
            .collect();
        format!("{:016x}", stable_hash(&parts))
    }

    /// Total number of work units across all specs.
    pub fn total_units(&self) -> usize {
        self.specs.iter().map(|s| s.reps * s.methods.len()).sum()
    }

    /// Index of the spec covering `(function, n)`, if swept.
    pub fn spec_index(&self, function: &str, n: usize) -> Option<usize> {
        self.specs
            .iter()
            .position(|s| s.function.name() == function && s.n == n)
    }

    /// Per-spec fingerprints, aligned with [`Sweep::specs`].
    pub fn spec_fingerprints(&self) -> &[String] {
        &self.fingerprints
    }

    /// Every work unit of the sweep paired with its spec fingerprint,
    /// in the deterministic enumeration order `run_shard` walks — the
    /// unit list a fleet coordinator leases out.
    pub fn fleet_units(&self) -> Vec<(String, WorkUnit)> {
        let mut units = Vec::with_capacity(self.total_units());
        for (si, spec) in self.specs.iter().enumerate() {
            let fp = &self.fingerprints[si];
            for unit in enumerate_units(spec) {
                units.push((fp.clone(), unit));
            }
        }
        units
    }
}

/// Executes leased units for a fleet worker: the [`UnitExecutor`]
/// implementation bridging `reds-fleet` to the sweep machinery.
///
/// Every incoming unit is validated against the spec's own
/// deterministic enumeration (method, rep, *and* the derived seeds)
/// before it runs, so a corrupted or foreign unit is rejected instead
/// of silently producing a wrong-seeded result.
pub struct SweepExecutor {
    sweep: Sweep,
    fingerprint: String,
}

impl SweepExecutor {
    /// An executor serving `sweep`.
    pub fn new(sweep: Sweep) -> Self {
        let fingerprint = sweep.fingerprint();
        Self { sweep, fingerprint }
    }
}

impl UnitExecutor for SweepExecutor {
    fn fingerprint(&self) -> String {
        self.fingerprint.clone()
    }

    fn execute(&self, spec: &str, unit: &WorkUnit) -> Result<Evaluation, String> {
        let si = self
            .sweep
            .spec_fingerprints()
            .iter()
            .position(|fp| fp == spec)
            .ok_or_else(|| format!("unknown spec fingerprint {spec}"))?;
        let spec = &self.sweep.specs[si];
        if !enumerate_units(spec).iter().any(|u| u == unit) {
            return Err(format!(
                "unit {}/{} does not match the spec's enumeration (tampered seeds?)",
                unit.method, unit.rep
            ));
        }
        let mut results = execute_units(spec, std::slice::from_ref(unit));
        match results.pop() {
            Some((_, eval)) if results.is_empty() => Ok(eval),
            _ => Err("executor returned an unexpected result count".to_string()),
        }
    }
}

/// What `run_shard` did.
#[derive(Debug)]
pub struct RunOutcome {
    /// Every record of the shard: resumed from the checkpoint plus
    /// newly executed.
    pub records: Vec<UnitRecord>,
    /// Units executed by this invocation.
    pub executed: usize,
    /// Units skipped because the checkpoint already had them.
    pub skipped: usize,
}

/// Executes shard `shard` of `of` of the sweep, appending each
/// completed unit to `<checkpoint_dir>/shard-<shard>-of-<of>.jsonl`
/// when a directory is given. With `resume`, previously completed units
/// are loaded from that file and skipped.
pub fn run_shard(
    sweep: &Sweep,
    shard: usize,
    of: usize,
    checkpoint_dir: Option<&Path>,
    resume: bool,
) -> Result<RunOutcome, CheckpointError> {
    assert!(
        of > 0 && shard < of,
        "shard index {shard} out of range 0..{of}"
    );
    let header = CheckpointHeader::new(sweep.fingerprint(), shard, of);
    let (mut writer, done) = match checkpoint_dir {
        Some(dir) => {
            let path = dir.join(shard_file_name(shard, of));
            let (w, done) = CheckpointWriter::open(&path, &header, resume)?;
            (Some(w), done)
        }
        None => (None, Vec::new()),
    };

    let done_keys: HashSet<(String, String, usize)> = done
        .iter()
        .map(|r| (r.spec.clone(), r.unit.method.clone(), r.unit.rep))
        .collect();
    let skipped = done.len();
    let mut records = done;
    let mut executed = 0usize;
    let mut global = 0usize;
    for (si, spec) in sweep.specs.iter().enumerate() {
        let fp = &sweep.fingerprints[si];
        let todo: Vec<WorkUnit> = enumerate_units(spec)
            .into_iter()
            .filter(|u| {
                let mine = global % of == shard;
                global += 1;
                mine && !done_keys.contains(&(fp.clone(), u.method.clone(), u.rep))
            })
            .collect();
        if todo.is_empty() {
            continue;
        }
        let mut append_error: Option<CheckpointError> = None;
        let results = execute_units_with(spec, &todo, |unit, eval| {
            if append_error.is_some() {
                return;
            }
            if let Some(w) = &mut writer {
                let record = UnitRecord {
                    spec: fp.clone(),
                    unit: unit.clone(),
                    eval: eval.clone(),
                    attempt: 0,
                };
                if let Err(e) = w.append(&record) {
                    append_error = Some(e);
                }
            }
        });
        if let Some(e) = append_error {
            return Err(e);
        }
        executed += results.len();
        records.extend(results.into_iter().map(|(unit, eval)| UnitRecord {
            spec: fp.clone(),
            unit,
            eval,
            attempt: 0,
        }));
        eprintln!(
            "done: {} N={} ({} units)",
            spec.function.name(),
            spec.n,
            records.len(),
        );
    }
    Ok(RunOutcome {
        records,
        executed,
        skipped,
    })
}

/// Checkpoint file name of one shard.
pub fn shard_file_name(shard: usize, of: usize) -> String {
    format!("shard-{shard}-of-{of}.jsonl")
}

/// Groups merged unit records back into per-spec summaries, in
/// `sweep.specs` order. Fails when a record belongs to no spec of the
/// sweep or any grid is incomplete/duplicated.
pub fn aggregate(sweep: &Sweep, records: &[UnitRecord]) -> Result<Vec<Vec<MethodSummary>>, String> {
    let mut by_spec: Vec<Vec<(WorkUnit, Evaluation)>> = vec![Vec::new(); sweep.specs.len()];
    for r in records {
        let si = sweep
            .fingerprints
            .iter()
            .position(|fp| fp == &r.spec)
            .ok_or_else(|| format!("record for unknown spec fingerprint {}", r.spec))?;
        by_spec[si].push((r.unit.clone(), r.eval.clone()));
    }
    sweep
        .specs
        .iter()
        .zip(by_spec)
        .map(|(spec, rs)| {
            aggregate_units(spec, &rs)
                .map_err(|e| format!("{} N={}: {e}", spec.function.name(), spec.n))
        })
        .collect()
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Renders the sweep's full report — the same bytes whether the
/// summaries come from a monolithic run or from merged shards.
pub fn render(sweep: &Sweep, results: &[Vec<MethodSummary>]) -> String {
    match sweep.kind {
        TableKind::Table3 => render_table3(sweep, results),
        TableKind::Table4 => render_table4(sweep, results),
    }
}

fn render_table3(sweep: &Sweep, results: &[Vec<MethodSummary>]) -> String {
    let mut out = String::new();
    let methods = &sweep.methods;
    let stat_n = sweep.stat_n;
    let cell = |fname: &str, n: usize| {
        sweep
            .spec_index(fname, n)
            .map(|si| &results[si])
            .unwrap_or_else(|| panic!("no spec for {fname} N={n}"))
    };

    type Metric = fn(&MethodSummary) -> f64;
    let metric_tables: [(&str, Metric); 5] = [
        ("(a) Average PR AUC", |s| s.pr_auc),
        ("(b) Average precision", |s| s.precision),
        ("(c) Average consistency", |s| s.consistency),
        ("(d) Average number of restricted inputs", |s| {
            s.n_restricted
        }),
        (
            "(e) Average number of irrelevantly restricted inputs",
            |s| s.n_irrel,
        ),
    ];
    for (title, metric) in metric_tables {
        let _ = writeln!(out, "\nTable 3 {title}");
        let _ = writeln!(out, "| N | {} |", methods.join(" | "));
        let _ = writeln!(out, "|---|{}", "---|".repeat(methods.len()));
        for n in &sweep.ns {
            let cells: Vec<String> = (0..methods.len())
                .map(|mi| {
                    format!(
                        "{:.1}",
                        mean(sweep.functions.iter().map(|f| metric(&cell(f, *n)[mi])))
                    )
                })
                .collect();
            let _ = writeln!(out, "| {n} | {} |", cells.join(" | "));
        }
        let mor800 = cell("morris", 800);
        let mor_cells: Vec<String> = mor800.iter().map(|s| format!("{:.1}", metric(s))).collect();
        let _ = writeln!(out, "| mor800 | {} |", mor_cells.join(" | "));
    }

    // Figure 7 data: per-function quality change relative to Pc, N = stat_n.
    let idx = |name: &str| methods.iter().position(|m| m == name);
    if let Some(pc) = idx("Pc") {
        let _ = writeln!(
            out,
            "\nFigure 7: PR AUC change (%) relative to Pc at N = {stat_n} (per function)"
        );
        let _ = writeln!(out, "| function | {} |", methods.join(" | "));
        let _ = writeln!(out, "|---|{}", "---|".repeat(methods.len()));
        for fname in &sweep.functions {
            let s = cell(fname, stat_n);
            let base = s[pc].pr_auc;
            let cells: Vec<String> = s
                .iter()
                .map(|m| format!("{:+.1}", 100.0 * (m.pr_auc - base) / base.max(1e-9)))
                .collect();
            let _ = writeln!(out, "| {fname} | {} |", cells.join(" | "));
        }
    }

    // Statistics of §9.1.1.
    let per_function_auc: Vec<Vec<f64>> = sweep
        .functions
        .iter()
        .map(|f| cell(f, stat_n).iter().map(|s| s.pr_auc).collect())
        .collect();
    let (chi2, p) = friedman_test(&per_function_auc);
    let _ = writeln!(
        out,
        "\nFriedman test over PR AUC at N = {stat_n}: chi2 = {chi2:.2}, p = {p:.2e}"
    );
    if let (Some(pc), Some(rpx)) = (idx("Pc"), idx("RPx")) {
        let rpx_auc: Vec<f64> = per_function_auc.iter().map(|r| r[rpx]).collect();
        let pc_auc: Vec<f64> = per_function_auc.iter().map(|r| r[pc]).collect();
        let _ = writeln!(
            out,
            "post-hoc RPx vs Pc (Wilcoxon signed-rank): p = {:.2e}",
            wilcoxon_signed_rank(&rpx_auc, &pc_auc)
        );
        let dims: Vec<f64> = sweep
            .functions
            .iter()
            .map(|f| by_name(f).expect("registry").m() as f64)
            .collect();
        let gains: Vec<f64> = rpx_auc
            .iter()
            .zip(&pc_auc)
            .map(|(r, p)| (r - p) / p.max(1e-9))
            .collect();
        let _ = writeln!(
            out,
            "Spearman correlation (M vs relative PR AUC gain of RPx over Pc): {:.2}",
            spearman(&dims, &gains)
        );
    }
    out
}

fn render_table4(sweep: &Sweep, results: &[Vec<MethodSummary>]) -> String {
    let mut out = String::new();
    let methods = &sweep.methods;
    let stat_n = sweep.stat_n;
    let cell = |fname: &str, n: usize| {
        sweep
            .spec_index(fname, n)
            .map(|si| &results[si])
            .unwrap_or_else(|| panic!("no spec for {fname} N={n}"))
    };

    type Metric = fn(&MethodSummary) -> f64;
    let tables: [(&str, Metric); 4] = [
        ("(a) Average WRAcc", |s| s.wracc),
        ("(b) Average consistency", |s| s.consistency),
        ("(c) Average number of restricted inputs", |s| {
            s.n_restricted
        }),
        (
            "(d) Average number of irrelevantly restricted inputs",
            |s| s.n_irrel,
        ),
    ];
    for (title, metric) in tables {
        let _ = writeln!(out, "\nTable 4 {title}");
        let _ = writeln!(out, "| N | {} |", methods.join(" | "));
        let _ = writeln!(out, "|---|{}", "---|".repeat(methods.len()));
        for n in &sweep.ns {
            let cells: Vec<String> = (0..methods.len())
                .map(|mi| {
                    format!(
                        "{:.2}",
                        mean(sweep.functions.iter().map(|f| metric(&cell(f, *n)[mi])))
                    )
                })
                .collect();
            let _ = writeln!(out, "| {n} | {} |", cells.join(" | "));
        }
        let mor800 = cell("morris", 800);
        let cells: Vec<String> = mor800.iter().map(|s| format!("{:.2}", metric(s))).collect();
        let _ = writeln!(out, "| mor800 | {} |", cells.join(" | "));
    }

    // Figure 8 data + §9.1.1 statistics at N = stat_n.
    let idx = |name: &str| methods.iter().position(|m| m == name);
    if let (Some(bic), Some(bi), Some(rbicxp)) = (idx("BIc"), idx("BI"), idx("RBIcxp")) {
        let _ = writeln!(
            out,
            "\nFigure 8: WRAcc change (%) relative to BIc at N = {stat_n}"
        );
        let _ = writeln!(out, "| function | BI | RBIcxp |");
        let _ = writeln!(out, "|---|---|---|");
        let mut rbicxp_w = Vec::new();
        let mut bic_w = Vec::new();
        let mut dims = Vec::new();
        let mut gains = Vec::new();
        for fname in &sweep.functions {
            let s = cell(fname, stat_n);
            let base = s[bic].wracc;
            let _ = writeln!(
                out,
                "| {fname} | {:+.1} | {:+.1} |",
                100.0 * (s[bi].wracc - base) / base.abs().max(1e-9),
                100.0 * (s[rbicxp].wracc - base) / base.abs().max(1e-9),
            );
            rbicxp_w.push(s[rbicxp].wracc);
            bic_w.push(base);
            dims.push(by_name(fname).expect("registry").m() as f64);
            gains.push((s[rbicxp].wracc - base) / base.abs().max(1e-9));
        }
        let _ = writeln!(
            out,
            "\npost-hoc RBIcxp vs BIc (Wilcoxon signed-rank): p = {:.2e}",
            wilcoxon_signed_rank(&rbicxp_w, &bic_w)
        );
        let _ = writeln!(
            out,
            "Spearman correlation (M vs relative WRAcc gain of RBIcxp over BIc): {:.2}",
            spearman(&dims, &gains)
        );
    }
    out
}

/// Machine-readable rows of the grid (one object per function × N ×
/// method cell), for `--json`.
pub fn rows_json(sweep: &Sweep, results: &[Vec<MethodSummary>]) -> Json {
    let mut rows = Vec::new();
    for n in &sweep.ns {
        for fname in &sweep.functions {
            let si = sweep.spec_index(fname, *n).expect("grid spec exists");
            for s in &results[si] {
                rows.push(Json::obj([
                    ("function", Json::str(fname.clone())),
                    ("n", Json::num(*n as f64)),
                    ("method", Json::str(s.method.clone())),
                    ("pr_auc", Json::num(s.pr_auc)),
                    ("precision", Json::num(s.precision)),
                    ("wracc", Json::num(s.wracc)),
                    ("consistency", Json::num(s.consistency)),
                    ("n_restricted", Json::num(s.n_restricted)),
                    ("n_irrel", Json::num(s.n_irrel)),
                    ("runtime_ms", Json::num(s.runtime_ms)),
                ]));
            }
        }
    }
    Json::Arr(rows)
}

/// Parses `--shard i/k` (default `0/1` — the monolithic run),
/// returning a message suitable for the CLI on malformed input.
pub fn try_parse_shard(args: &Args) -> Result<(usize, usize), String> {
    let raw = args.get_str("shard", "0/1");
    let parse = || -> Option<(usize, usize)> {
        let (i, k) = raw.split_once('/')?;
        let (i, k) = (i.trim().parse().ok()?, k.trim().parse().ok()?);
        (k > 0 && i < k).then_some((i, k))
    };
    parse().ok_or_else(|| format!("--shard expects i/k with i < k, got '{raw}'"))
}

/// CLI wrapper of [`try_parse_shard`]: exits with status 2 and the
/// usage text on malformed input instead of panicking.
pub fn parse_shard(args: &Args) -> (usize, usize) {
    try_parse_shard(args).unwrap_or_else(|e| cli_fail(e, SWEEP_USAGE))
}

/// The shared CLI driver of `table3` and `table4`: executes this
/// process's shard (with optional checkpointing/resume) and, when the
/// run is monolithic, aggregates and prints the report.
pub fn run_cli(sweep: &Sweep, args: &Args) {
    let (shard, of) = parse_shard(args);
    let dir = args.get_str("checkpoint-dir", "");
    let checkpoint_dir = (!dir.is_empty()).then(|| PathBuf::from(&dir));
    let resume = args.has_flag("resume");
    if resume && checkpoint_dir.is_none() {
        cli_fail("--resume requires --checkpoint-dir", SWEEP_USAGE);
    }
    if of > 1 && checkpoint_dir.is_none() {
        cli_fail(
            format!("--shard {shard}/{of} requires --checkpoint-dir to store partial results"),
            SWEEP_USAGE,
        );
    }

    let outcome =
        run_shard(sweep, shard, of, checkpoint_dir.as_deref(), resume).unwrap_or_else(|e| {
            eprintln!("error: shard execution failed: {e}");
            std::process::exit(1)
        });
    eprintln!(
        "shard {shard}/{of}: executed {} unit(s), resumed {} (of {} total in the sweep)",
        outcome.executed,
        outcome.skipped,
        sweep.total_units()
    );

    if of == 1 {
        let results = aggregate(sweep, &outcome.records).unwrap_or_else(|e| {
            eprintln!("error: aggregation failed: {e}");
            std::process::exit(1)
        });
        print!("{}", render(sweep, &results));
        let json_path = args.get_str("json", "");
        if !json_path.is_empty() {
            std::fs::write(&json_path, rows_json(sweep, &results).to_string_pretty())
                .unwrap_or_else(|e| {
                    eprintln!("error: cannot write {json_path}: {e}");
                    std::process::exit(1)
                });
            eprintln!("rows written to {json_path}");
        }
    } else {
        eprintln!(
            "partial results in {dir}/{}; combine all shards with the merge_shards binary \
             (same sweep flags plus --checkpoint-dir)",
            shard_file_name(shard, of)
        );
    }
}

/// Loads every `*.jsonl` checkpoint in `dir` (sorted by file name),
/// returning each with its path. A fleet coordinator's lease journal
/// ([`JOURNAL_FILE`]) beside its checkpoint is not one, and is skipped.
pub fn load_checkpoint_dir(dir: &Path) -> Result<Vec<(PathBuf, ShardCheckpoint)>, CheckpointError> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(LogError::Io)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .filter(|p| p.file_name().is_some_and(|name| name != JOURNAL_FILE))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let ck = load_checkpoint(&p)?;
            if ck.truncated {
                eprintln!(
                    "warning: {} ends in a partial record (interrupted run?) — dropped",
                    p.display()
                );
            }
            Ok((p, ck))
        })
        .collect()
}

/// Checks that the loaded checkpoints form one consistent shard set —
/// a single `of`, each shard index at most once — so leftovers from an
/// abandoned run with a different shard count fail with a message
/// naming the offending files instead of a puzzling duplicate-unit
/// error downstream.
fn validate_shard_set(shards: &[(PathBuf, ShardCheckpoint)]) -> Result<(), String> {
    let describe = |(p, ck): &(PathBuf, ShardCheckpoint)| {
        format!(
            "{} (shard {}/{})",
            p.display(),
            ck.header.shard,
            ck.header.of
        )
    };
    let of = shards[0].1.header.of;
    if let Some(other) = shards.iter().find(|(_, ck)| ck.header.of != of) {
        return Err(format!(
            "checkpoints from different shard decompositions in one directory: {} vs {} — \
             remove the files of the abandoned run",
            describe(&shards[0]),
            describe(other),
        ));
    }
    for (i, a) in shards.iter().enumerate() {
        if let Some(b) = shards[i + 1..]
            .iter()
            .find(|(_, ck)| ck.header.shard == a.1.header.shard)
        {
            return Err(format!(
                "two checkpoints claim the same shard: {} and {} — remove one",
                describe(a),
                describe(b),
            ));
        }
    }
    Ok(())
}

/// Merges the shard checkpoints of `dir` into the sweep's final
/// summaries, validating fingerprints, shard-set consistency, and grid
/// completeness.
pub fn merge_dir(sweep: &Sweep, dir: &Path) -> Result<Vec<Vec<MethodSummary>>, String> {
    let shards = load_checkpoint_dir(dir).map_err(|e| e.to_string())?;
    if shards.is_empty() {
        return Err(format!("no *.jsonl checkpoints in {}", dir.display()));
    }
    validate_shard_set(&shards)?;
    let checkpoints: Vec<ShardCheckpoint> = shards.into_iter().map(|(_, ck)| ck).collect();
    let records = merge_records(&sweep.fingerprint(), &checkpoints).map_err(|e| e.to_string())?;
    aggregate(sweep, &records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args() -> Args {
        Args::from_tokens(
            [
                "--functions",
                "2",
                "--ns",
                "60,90",
                "--reps",
                "2",
                "--l",
                "800",
                "--l-bi",
                "600",
                "--q",
                "3",
                "--test",
                "500",
                "--methods",
                "P,RPf",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
    }

    #[test]
    fn sweep_dedupes_specs_and_counts_units() {
        let sweep = Sweep::table3(&tiny_args());
        // 2 grid cells + mor800 (not in the grid here).
        assert_eq!(sweep.specs.len(), 3);
        assert_eq!(sweep.total_units(), 3 * 2 * 2);
        assert!(sweep.spec_index("morris", 800).is_some());

        // With morris/800 swept, mor800 collapses into the grid cell.
        let args = Args::from_tokens(
            ["--functions", "morris", "--ns", "800", "--reps", "1"]
                .iter()
                .map(|s| s.to_string()),
        );
        let sweep = Sweep::table3(&args);
        assert_eq!(sweep.specs.len(), 1);
    }

    #[test]
    fn merge_dir_rejects_mixed_and_duplicated_shard_sets() {
        let sweep = Sweep::table3(&tiny_args());
        let dir = std::env::temp_dir().join(format!("reds-mixed-shards-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let fp = sweep.fingerprint();

        // Leftover of an abandoned 2-way run next to a 4-way run.
        let mk = |shard: usize, of: usize| {
            let path = dir.join(shard_file_name(shard, of));
            CheckpointWriter::create(&path, &CheckpointHeader::new(fp.clone(), shard, of))
                .expect("create");
        };
        mk(0, 2);
        mk(0, 4);
        let err = merge_dir(&sweep, &dir).expect_err("mixed shard counts");
        assert!(
            err.contains("different shard decompositions"),
            "unexpected message: {err}"
        );

        // Same `of`, same shard index twice (copied file).
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("tmp dir");
        mk(1, 4);
        let path = dir.join("shard-1-of-4-copy.jsonl");
        std::fs::copy(dir.join(shard_file_name(1, 4)), &path).expect("copy");
        let err = merge_dir(&sweep, &dir).expect_err("duplicated shard index");
        assert!(
            err.contains("claim the same shard"),
            "unexpected message: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_dir_reads_a_fleet_checkpoint_directory() {
        // What a coordinator leaves: its checkpoint, shard 0 of 1, and
        // its lease journal beside it.
        let sweep = Sweep::table3(&tiny_args());
        let dir = std::env::temp_dir().join(format!("reds-fleet-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let fp = sweep.fingerprint();
        let path = dir.join(shard_file_name(0, 1));
        let mut w = CheckpointWriter::create(&path, &CheckpointHeader::new(fp.clone(), 0, 1))
            .expect("create");
        let mut records = Vec::new();
        for (spec, spec_fp) in sweep.specs.iter().zip(&sweep.fingerprints) {
            for unit in enumerate_units(spec) {
                let record = UnitRecord {
                    spec: spec_fp.clone(),
                    eval: Evaluation {
                        pr_auc: 0.5 + 0.125 * unit.rep as f64,
                        precision: 0.75,
                        recall: 0.5,
                        wracc: 0.0625,
                        n_restricted: 1,
                        n_irrel: 0,
                        runtime_ms: 1.0,
                        last_box: reds_subgroup::HyperBox::from_bounds(vec![
                            (0.0, 1.0);
                            spec.function.m()
                        ]),
                    },
                    unit,
                    attempt: 1,
                };
                w.append(&record).expect("append");
                records.push(record);
            }
        }
        drop(w);
        reds_fleet::LeaseJournal::create(&dir.join(JOURNAL_FILE), &fp).expect("journal");

        let merged = merge_dir(&sweep, &dir).expect("the journal is skipped");
        let expected = aggregate(&sweep, &records).expect("a complete grid");
        assert_eq!(render(&sweep, &merged), render(&sweep, &expected));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_fingerprint_tracks_configuration() {
        let base = Sweep::table3(&tiny_args()).fingerprint();
        assert_eq!(base, Sweep::table3(&tiny_args()).fingerprint());
        assert_ne!(base, Sweep::table4(&tiny_args()).fingerprint());
        let mut tokens: Vec<String> = [
            "--functions",
            "2",
            "--ns",
            "60,90",
            "--reps",
            "3",
            "--l",
            "800",
            "--l-bi",
            "600",
            "--q",
            "3",
            "--test",
            "500",
            "--methods",
            "P,RPf",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_ne!(
            base,
            Sweep::table3(&Args::from_tokens(tokens.clone())).fingerprint(),
            "reps changed"
        );
        tokens[5] = "2".to_string();
        assert_eq!(
            base,
            Sweep::table3(&Args::from_tokens(tokens)).fingerprint()
        );
    }

    /// Every markdown table of both reports, the figure tables
    /// included, has a separator row under its header with as many
    /// cells as the header.
    #[test]
    fn rendered_separators_match_their_headers() {
        // The default method families, so that the figure tables render
        // too: Table 3's five metric tables and Figure 7, Table 4's four
        // and Figure 8.
        let args = Args::from_tokens(["--functions", "2", "--ns", "60,90"].map(String::from));
        for (sweep, tables) in [(Sweep::table3(&args), 6), (Sweep::table4(&args), 5)] {
            let summary = |(i, method): (usize, &String)| MethodSummary {
                method: method.clone(),
                pr_auc: 40.0 + i as f64,
                precision: 50.0 + i as f64,
                wracc: 1.0 + i as f64,
                consistency: 60.0,
                n_restricted: 2.0,
                n_irrel: 0.5,
                runtime_ms: 1.0,
                per_rep: Vec::new(),
            };
            let results: Vec<Vec<MethodSummary>> = sweep
                .specs
                .iter()
                .map(|_| sweep.methods.iter().enumerate().map(summary).collect())
                .collect();
            let report = render(&sweep, &results);
            let cells = |row: &str| row.matches('|').count() - 1;
            let is_separator = |row: &str| row.starts_with("|---|");
            let lines: Vec<&str> = report.lines().collect();
            // A header row is a table row right after a non-table line;
            // markdown renders a table only with a separator row below
            // its header, one cell per header cell.
            let mut headers = 0;
            for (k, row) in lines.iter().enumerate() {
                if !row.starts_with('|') || (k > 0 && lines[k - 1].starts_with('|')) {
                    continue;
                }
                let separator = lines.get(k + 1).copied().unwrap_or_default();
                assert!(
                    is_separator(separator),
                    "header without separator:\n{row}\n{separator}"
                );
                assert_eq!(cells(separator), cells(row), "{row}\n{separator}");
                headers += 1;
            }
            // … and no separator sits anywhere else.
            let separators = lines.iter().filter(|row| is_separator(row)).count();
            assert_eq!((headers, separators), (tables, tables), "{report}");
        }
    }

    #[test]
    fn shard_parsing_accepts_valid_and_rejects_invalid() {
        let args = Args::from_tokens(["--shard", "1/3"].iter().map(|s| s.to_string()));
        assert_eq!(try_parse_shard(&args), Ok((1, 3)));
        assert_eq!(try_parse_shard(&Args::default()), Ok((0, 1)));
        for bad in ["3/3", "4/3", "x/3", "2", "1/0", "-1/3"] {
            let args = Args::from_tokens(["--shard", bad].iter().map(|s| s.to_string()));
            let err = try_parse_shard(&args).expect_err(bad);
            assert!(err.contains("--shard"), "{bad} → {err}");
        }
    }
}
