//! Regression tests for the CLI hardening: bad invocations must exit
//! with status 2 and a readable message — never a panic backtrace.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env("RUST_BACKTRACE", "1") // a panic would be loud and detectable
        .output()
        .expect("binary runs")
}

fn assert_usage_error(out: &Output, expect_in_stderr: &str, context: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{context}: expected exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains(expect_in_stderr),
        "{context}: stderr missing '{expect_in_stderr}':\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{context}: panic backtrace leaked to the user:\n{stderr}"
    );
}

#[test]
fn table3_rejects_malformed_shard_without_panicking() {
    let out = run(env!("CARGO_BIN_EXE_table3"), &["--shard", "3/3"]);
    assert_usage_error(&out, "--shard", "shard out of range");
    let out = run(env!("CARGO_BIN_EXE_table3"), &["--shard", "banana"]);
    assert_usage_error(&out, "--shard", "non-numeric shard");
    // Sharding without a checkpoint directory is a usage error too.
    let out = run(
        env!("CARGO_BIN_EXE_table3"),
        &[
            "--shard",
            "0/2",
            "--functions",
            "2",
            "--ns",
            "60",
            "--reps",
            "1",
        ],
    );
    assert_usage_error(&out, "--checkpoint-dir", "shard without checkpoint dir");
}

#[test]
fn table3_rejects_malformed_ns_and_reps() {
    let out = run(env!("CARGO_BIN_EXE_table3"), &["--ns", "2x0,400"]);
    assert_usage_error(&out, "--ns", "malformed --ns");
    let out = run(env!("CARGO_BIN_EXE_table3"), &["--reps", "many"]);
    assert_usage_error(&out, "--reps", "malformed --reps");
}

#[test]
fn table4_rejects_unknown_function_names() {
    let out = run(
        env!("CARGO_BIN_EXE_table4"),
        &["--functions", "no-such-function"],
    );
    assert_usage_error(&out, "unknown function", "unknown function");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("morris"),
        "error should list valid names:\n{stderr}"
    );
}

#[test]
fn fit_model_requires_its_flags_and_validates_them() {
    let out = run(env!("CARGO_BIN_EXE_fit_model"), &[]);
    assert_usage_error(&out, "--function", "missing --function");
    let out = run(
        env!("CARGO_BIN_EXE_fit_model"),
        &["--function", "nope", "--out", "/tmp/x.json"],
    );
    assert_usage_error(&out, "unknown function", "unknown function");
    let out = run(
        env!("CARGO_BIN_EXE_fit_model"),
        &["--function", "2", "--out", "/tmp/x.json", "--family", "q"],
    );
    assert_usage_error(&out, "unknown family", "unknown family");
    let out = run(
        env!("CARGO_BIN_EXE_fit_model"),
        &["--function", "2", "--out", "/tmp/x.json", "--n", "0"],
    );
    assert_usage_error(&out, "--n", "zero n");
}

#[test]
fn bench_report_rejects_bad_sections_and_unwritable_out_dirs() {
    let report = |args: &str| {
        let args: Vec<&str> = args.split_whitespace().collect();
        run(env!("CARGO_BIN_EXE_bench_report"), &args)
    };
    assert_usage_error(&report(""), "--section", "missing --section");
    assert_usage_error(&report("--section stream"), "--section", "unknown section");
    assert_usage_error(
        &report("--section pool --algorithm cart"),
        "--algorithm",
        "unknown algorithm",
    );
    // A flag the section does not take, a typo of one it does, or a
    // stray token is refused before anything runs, with the usage.
    let out = report("--section art --ooc --discover-l 5 --mem-budge 1");
    assert_usage_error(
        &out,
        "--ooc is not a flag of this command",
        "flags the art section does not take",
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: bench_report"));
    assert_usage_error(
        &report("--section pool --mem-budge 1"),
        "--mem-budge is not a flag of this command",
        "misspelt pool flag",
    );
    assert_usage_error(
        &report("--section perf --l 400 extra"),
        "unexpected argument 'extra'",
        "stray token",
    );
    assert_usage_error(
        &report("--section pool --skip-inmem yes"),
        "--skip-inmem takes no value",
        "bare flag given a value",
    );
    assert_usage_error(
        &report("--section perf --reps"),
        "--reps expects a value",
        "option without its value",
    );
    // A report that cannot be written is a bad invocation, not a panic
    // and not a failed gate.
    assert_usage_error(
        &report("--section perf --l 400 --n 60 --reps 1 --out-dir /dev/null/reports"),
        "cannot write",
        "unwritable perf out-dir",
    );
    assert_usage_error(
        &report("--section art --n 40 --trees 2 --reps 1 --out-dir /dev/null/reports"),
        "cannot create",
        "unwritable art out-dir",
    );
}
