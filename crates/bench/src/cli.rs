//! Command-line plumbing shared by `repro`, `sar-worker`, `sar-serve`
//! and `sar-train`: one argument cursor, one value validator, and the
//! contract a CI-gated benchmark implements to get its `repro`
//! subcommand.
//!
//! Every flag error is a one-line message for the binary to print before
//! exiting with status 2 — bad input never reaches a `panic!`.

use std::str::FromStr;

use crate::json::{self, Value};

/// A cursor over `argv`: flags are pulled one at a time and a flag's
/// handler pulls the values it needs.
#[derive(Debug)]
pub struct Args {
    argv: Vec<String>,
    next: usize,
}

impl Args {
    /// A cursor over an explicit argument list.
    #[must_use]
    pub fn new(argv: Vec<String>) -> Self {
        Args { argv, next: 0 }
    }

    /// A cursor over this process's arguments (program name skipped).
    #[must_use]
    pub fn from_env() -> Self {
        Args::new(std::env::args().skip(1).collect())
    }

    /// The next unread argument, which the caller treats as a flag.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.argv.get(self.next).cloned();
        self.next += 1;
        flag
    }

    /// The raw value following `flag`.
    ///
    /// # Errors
    ///
    /// `missing value for <flag>` at the end of the argument list.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.next_flag()
            .ok_or_else(|| format!("missing value for {flag}"))
    }

    /// The value following `flag`, parsed as `T`.
    ///
    /// # Errors
    ///
    /// A missing value, or the [`parse_value`] diagnostic.
    pub fn parsed<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        parse_value(flag, &self.value(flag)?)
    }

    /// The value following `flag` as a comma-separated list of `T`.
    ///
    /// # Errors
    ///
    /// A missing value, or the [`parse_value`] diagnostic for the first
    /// bad element.
    pub fn parsed_list<T: FromStr>(&mut self, flag: &str) -> Result<Vec<T>, String> {
        self.value(flag)?
            .split(',')
            .map(|item| parse_value(flag, item))
            .collect()
    }
}

/// Parses one flag value, naming the flag and the offending text on
/// failure.
///
/// # Errors
///
/// `invalid value "<text>" for <flag>`.
pub fn parse_value<T: FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("invalid value {text:?} for {flag}"))
}

/// A benchmark whose committed `BENCH_*.json` artifact gates CI. Each
/// implementation is one `repro <NAME> [--out PATH] [--check PATH]
/// [own flags]` subcommand: the driver in `repro` parses the flags, runs
/// the benchmark, prints it, writes the artifact and diffs it against
/// the committed copy.
pub trait GatedBench: Sized {
    /// Subcommand name (`"kernelbench"`, …).
    const NAME: &'static str;
    /// The benchmark's own knobs; `Default` is the committed artifact's
    /// configuration.
    type Config: Default;

    /// Applies one of the benchmark's own flags, pulling its value from
    /// `args`. Returns `Ok(false)` when `flag` is not one of them.
    ///
    /// # Errors
    ///
    /// A one-line usage diagnostic for a missing or invalid value.
    fn apply_flag(cfg: &mut Self::Config, flag: &str, args: &mut Args) -> Result<bool, String>;

    /// Runs the benchmark.
    ///
    /// # Errors
    ///
    /// Whatever kept the benchmark from producing a report.
    fn run(cfg: &Self::Config) -> Result<Self, String>;

    /// Prints the human-readable summary.
    fn print(&self);

    /// The schema-versioned artifact document.
    fn to_json(&self) -> String;

    /// Diffs this fresh report against the committed artifact's text.
    /// Returns the violations (empty = the gate passes).
    fn check_against(&self, committed: &str) -> Vec<String>;
}

/// Parses a committed artifact and checks its `"schema"` tag against
/// the one this binary writes — the first step of every
/// [`GatedBench::check_against`]. A mismatch means the artifact is stale,
/// so the error says how to regenerate it.
///
/// # Errors
///
/// Malformed JSON, a missing tag, or a tag other than `schema`.
pub fn parse_committed<B: GatedBench>(text: &str, schema: &str) -> Result<Value, String> {
    let doc = json::parse(text).map_err(|e| format!("committed JSON parse error: {e}"))?;
    match doc.get("schema").and_then(Value::str) {
        Some(s) if s == schema => Ok(doc),
        Some(s) => Err(format!(
            "committed schema \"{s}\" does not match this binary's \"{schema}\" — \
             regenerate with `repro {} --out <artifact>`",
            B::NAME
        )),
        None => Err("committed artifact has no \"schema\" field".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn cursor_hands_out_flags_then_values() {
        let mut a = args(&["--epochs", "3", "--jk", "--worlds", "2,4"]);
        assert_eq!(a.next_flag().as_deref(), Some("--epochs"));
        assert_eq!(a.parsed::<usize>("--epochs"), Ok(3));
        assert_eq!(a.next_flag().as_deref(), Some("--jk"));
        assert_eq!(a.next_flag().as_deref(), Some("--worlds"));
        assert_eq!(a.parsed_list::<usize>("--worlds"), Ok(vec![2, 4]));
        assert_eq!(a.next_flag(), None);
    }

    #[test]
    fn bad_and_missing_values_name_the_flag() {
        let mut a = args(&["x"]);
        let err = a.parsed::<usize>("--epochs").unwrap_err();
        assert!(err.contains("--epochs") && err.contains("\"x\""), "{err}");
        let err = a.value("--seed").unwrap_err();
        assert_eq!(err, "missing value for --seed");
        let mut a = args(&["1,two"]);
        assert!(a
            .parsed_list::<usize>("--threads")
            .unwrap_err()
            .contains("two"));
    }
}
