//! Shared plumbing for the table/figure reproduction binaries: a tiny
//! `--flag value` argument parser, result-row printing, JSON output,
//! the sharded/checkpointable [`sweep`] driver, and the [`report`]
//! harness of `bench_report`.

#![warn(missing_docs)]

pub mod report;
pub mod rss;
pub mod sweep;

use std::collections::HashMap;

/// Prints a CLI error (plus optional usage text) to stderr and exits
/// with status 2 — bad invocations must not produce panic backtraces.
pub fn cli_fail(message: impl std::fmt::Display, usage: &str) -> ! {
    eprintln!("error: {message}");
    if !usage.is_empty() {
        eprintln!("\n{usage}");
    }
    std::process::exit(2)
}

/// Looks up a benchmark function by name, exiting with a helpful
/// message (instead of a panic) when it does not exist.
pub fn resolve_function(name: &str) -> &'static reds_functions::BenchmarkFunction {
    reds_functions::by_name(name).unwrap_or_else(|| {
        cli_fail(
            format!(
                "unknown function '{name}' — valid names: {}",
                reds_functions::FUNCTION_NAMES.join(", ")
            ),
            "",
        )
    })
}

/// Minimal `--key value` command-line parser (no positional arguments).
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    /// Every `--key`, in command-line order.
    keys: Vec<String>,
    /// Tokens that were neither a `--key` nor its value.
    stray: Vec<String>,
}

impl Args {
    /// Parses `std::env::args()`.
    pub fn parse() -> Self {
        Self::from_tokens(std::env::args().skip(1))
    }

    /// Parses an explicit token stream (used by tests).
    pub fn from_tokens(tokens: impl IntoIterator<Item = String>) -> Self {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut keys = Vec::new();
        let mut stray = Vec::new();
        let mut iter = tokens.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                keys.push(key.to_string());
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        values.insert(key.to_string(), iter.next().expect("peeked"));
                    }
                    _ => flags.push(key.to_string()),
                }
            } else {
                stray.push(tok);
            }
        }
        Self {
            values,
            flags,
            keys,
            stray,
        }
    }

    /// Exits with status 2, naming the first offender and printing
    /// `usage`, unless every `--key value` pair has its key in `options`
    /// and every bare `--flag` is in `flags`, with no stray token: a typo
    /// or a retired flag must not silently run the defaults.
    pub fn accept_only(&self, options: &[&str], flags: &[&str], usage: &str) {
        if let Some(tok) = self.stray.first() {
            cli_fail(format!("unexpected argument '{tok}'"), usage);
        }
        for key in &self.keys {
            let (takes_value, bare) = (
                options.contains(&key.as_str()),
                flags.contains(&key.as_str()),
            );
            let problem = match (self.values.contains_key(key), takes_value, bare) {
                (_, false, false) => "is not a flag of this command",
                (true, false, true) => "takes no value",
                (false, true, false) => "expects a value",
                _ => continue,
            };
            cli_fail(format!("--{key} {problem}"), usage);
        }
    }

    /// Integer option with default; a malformed value exits with a
    /// message and status 2 (no panic backtrace).
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.values
            .get(key)
            .map(|v| {
                v.parse().unwrap_or_else(|_| {
                    cli_fail(format!("--{key} expects an integer, got '{v}'"), "")
                })
            })
            .unwrap_or(default)
    }

    /// Float option with default; a malformed value exits with a
    /// message and status 2 (no panic backtrace).
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.values
            .get(key)
            .map(|v| {
                v.parse().unwrap_or_else(|_| {
                    cli_fail(format!("--{key} expects a number, got '{v}'"), "")
                })
            })
            .unwrap_or(default)
    }

    /// String option with default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Boolean flag (`--all` style).
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// The representative function subset the reproduction binaries use by
/// default (spanning low/high dimension, deterministic/stochastic,
/// easy/hard boundaries); `--all` switches to all 33.
pub const DEFAULT_FUNCTIONS: [&str; 10] = [
    "2",
    "102",
    "borehole",
    "ellipse",
    "hart3",
    "ishigami",
    "linketal06simple",
    "morris",
    "sobol",
    "willetal06",
];

/// Resolves the function list from `--functions a,b,c` / `--all`.
pub fn function_names(args: &Args) -> Vec<String> {
    if args.has_flag("all") {
        return reds_functions::FUNCTION_NAMES
            .iter()
            .map(|s| s.to_string())
            .collect();
    }
    let raw = args.get_str("functions", &DEFAULT_FUNCTIONS.join(","));
    raw.split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Prints one markdown-ish table row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_reads_values_and_flags() {
        let args = Args::from_tokens(
            ["--n", "400", "--all", "--functions", "morris,sobol"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(args.get_usize("n", 0), 400);
        assert!(args.has_flag("all"));
        assert_eq!(args.get_str("functions", ""), "morris,sobol");
        assert_eq!(args.get_usize("missing", 7), 7);
    }

    #[test]
    fn parser_keeps_stray_tokens() {
        let args = Args::from_tokens(["x", "--n", "4", "y"].iter().map(|s| s.to_string()));
        assert_eq!(args.stray, vec!["x", "y"]);
        assert_eq!(args.get_usize("n", 0), 4);
    }

    #[test]
    fn function_names_resolves_custom_list() {
        let args = Args::from_tokens(
            ["--functions", "morris, sobol"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(function_names(&args), vec!["morris", "sobol"]);
    }

    #[test]
    fn all_flag_yields_33_functions() {
        let args = Args::from_tokens(["--all".to_string()]);
        assert_eq!(function_names(&args).len(), 33);
    }

    #[test]
    fn default_functions_exist_in_registry() {
        for name in DEFAULT_FUNCTIONS {
            assert!(reds_functions::by_name(name).is_some(), "{name}");
        }
    }
}
