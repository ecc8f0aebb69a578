//! Command-line plumbing shared by `repro`, `sar-worker`, `sar-serve`
//! and `sar-train`: one argument cursor, one value validator, and the one
//! gate every committed `BENCH_*.json` artifact goes through.
//!
//! Every flag error is a one-line message for the binary to print before
//! exiting with status 2 — bad input never reaches a `panic!`.

use std::collections::BTreeSet;
use std::path::Path;
use std::str::FromStr;

use crate::json::{self, obj, Value};
use crate::report::Table;

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

/// One array of records in a gated artifact.
#[derive(Debug)]
pub struct Records {
    /// The top-level field holding the array (`"runs"`, `"kernels"`, …).
    pub table: &'static str,
    /// The fields that together name a record, unique within the array.
    pub key: &'static [&'static str],
}

/// An artifact's fields after its `"schema"` tag, in document order.
pub type Fields = Vec<(&'static str, Value)>;

/// A benchmark whose committed `BENCH_*.json` artifact gates CI: a `run`
/// that emits the artifact's records plus a declaration of what
/// identifies the workload and what names a record. [`gated_bench_cmd`]
/// turns it into the
/// `repro <NAME> [--out PATH] [--check PATH] [own flags]` subcommand.
pub trait GatedBench {
    /// Subcommand name (`"kernelbench"`, …).
    const NAME: &'static str;
    /// Schema tag the artifact carries first. Bump it whenever the
    /// workload, the record set or the field layout changes; the gate
    /// refuses to compare across tags.
    const SCHEMA: &'static str;
    /// Top-level fields that identify the workload: a committed artifact
    /// with other values came from a different run and gates nothing.
    const IDENTITY: &'static [&'static str];
    /// The record arrays, each with its key.
    const TABLES: &'static [Records];
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

    /// Runs the benchmark and returns the artifact's fields.
    ///
    /// # Errors
    ///
    /// Whatever kept the benchmark from producing its records.
    fn run(cfg: &Self::Config) -> Result<Fields, String>;

    /// The rules one document must satisfy on its own, applied to the
    /// fresh and the committed document alike; `label` names the side in
    /// the messages.
    fn invariants(label: &str, doc: &Value) -> Vec<String>;

    /// Rules that need both documents beyond identity and run set.
    fn compare(_fresh: &Value, _committed: &Value) -> Vec<String> {
        Vec::new()
    }
}

/// `B`'s artifact document: the schema tag, then `fields`.
pub fn document<B: GatedBench>(fields: Fields) -> Value {
    obj(std::iter::once(("schema", B::SCHEMA.into())).chain(fields))
}

/// Parses a committed artifact and checks its `"schema"` tag against
/// `B`'s. A mismatch means the artifact is stale, so the error says how
/// to regenerate it.
///
/// # Errors
///
/// Malformed JSON, a missing tag, or a tag other than `B::SCHEMA`.
pub fn parse_committed<B: GatedBench>(text: &str) -> Result<Value, String> {
    let doc = json::parse(text).map_err(|e| format!("committed JSON parse error: {e}"))?;
    match doc.get("schema").and_then(Value::str) {
        Some(s) if s == B::SCHEMA => Ok(doc),
        Some(s) => Err(format!(
            "committed schema \"{s}\" does not match this binary's \"{}\" — {}",
            B::SCHEMA,
            regenerate::<B>()
        )),
        None => Err("committed artifact has no \"schema\" field".into()),
    }
}

fn regenerate<B: GatedBench>() -> String {
    format!("regenerate with `repro {} --out <artifact>`", B::NAME)
}

/// A field as message or table text: strings bare, anything else as JSON.
fn text(v: Option<&Value>) -> String {
    match v {
        Some(Value::Str(s)) => s.clone(),
        Some(v) => v.to_string(),
        None => "-".into(),
    }
}

fn record_key(spec: &Records, record: &Value) -> String {
    let parts: Vec<String> = spec
        .key
        .iter()
        .map(|k| format!("{k}={}", text(record.get(k))))
        .collect();
    parts.join(" ")
}

fn keyed<'a>(spec: &Records, doc: &'a Value) -> Vec<(String, &'a Value)> {
    let records = doc.items(spec.table).iter();
    records.map(|r| (record_key(spec, r), r)).collect()
}

/// Everything one document must satisfy to be `B`'s artifact past its
/// schema tag: the identity fields are present; every table is an array
/// of records whose key fields are present and whose keys are unique; and
/// `B::invariants` hold.
pub fn validate<B: GatedBench>(label: &str, doc: &Value) -> Vec<String> {
    let mut violations: Vec<String> = B::IDENTITY
        .iter()
        .filter(|f| doc.get(f).is_none())
        .map(|f| format!("{label}: missing identity field \"{f}\""))
        .collect();
    for spec in B::TABLES {
        let records = match doc.req_arr(spec.table) {
            Ok(r) => r,
            Err(e) => {
                violations.push(format!("{label}: {e}"));
                continue;
            }
        };
        let mut seen = BTreeSet::new();
        for r in records {
            let key = record_key(spec, r);
            for f in spec.key {
                if r.get(f).is_none() {
                    violations.push(format!("{label}: {} {key} has no \"{f}\"", spec.table));
                }
            }
            if !seen.insert(key.clone()) {
                violations.push(format!("{label}: {} {key} appears twice", spec.table));
            }
        }
    }
    violations.extend(B::invariants(label, doc));
    violations
}

/// Gates a fresh document against the committed artifact's text: schema,
/// identity fields, the run set of every table in both directions,
/// [`validate`] on both documents, then `B::compare`. Returns the
/// violations (empty = the gate passes).
pub fn check<B: GatedBench>(fresh: &Value, committed: &str) -> Vec<String> {
    let committed = match parse_committed::<B>(committed) {
        Ok(doc) => doc,
        Err(e) => return vec![e],
    };
    let regen = regenerate::<B>();
    let mut violations = Vec::new();
    for f in B::IDENTITY {
        let (now, then) = (fresh.get(f), committed.get(f));
        if now != then {
            violations.push(format!(
                "{f} is {} here but {} in the committed artifact — a different workload; {regen}",
                text(now),
                text(then)
            ));
        }
    }
    for spec in B::TABLES {
        let (now, then) = (keyed(spec, fresh), keyed(spec, &committed));
        for (key, _) in &then {
            if !now.iter().any(|(k, _)| k == key) {
                violations.push(format!(
                    "{} run set differs: {key} is committed but was not produced; {regen}",
                    spec.table
                ));
            }
        }
        for (key, _) in &now {
            if !then.iter().any(|(k, _)| k == key) {
                violations.push(format!(
                    "{} run set differs: {key} is new (not committed); {regen}",
                    spec.table
                ));
            }
        }
    }
    violations.extend(validate::<B>("committed", &committed));
    violations.extend(validate::<B>("current", fresh));
    violations.extend(B::compare(fresh, &committed));
    violations
}

/// Prints a document: its top-level scalars on one line, then one table
/// per array of records.
fn print(name: &str, doc: &Value) {
    let Value::Obj(fields) = doc else { return };
    let scalars: Vec<String> = fields
        .iter()
        .filter(|(_, v)| !matches!(v, Value::Arr(_)))
        .map(|(k, v)| format!("{k}={}", text(Some(v))))
        .collect();
    println!("\n{name}: {}", scalars.join(" "));
    for (table, v) in fields {
        let records = v.arr().unwrap_or_default();
        let Some(Value::Obj(first)) = records.first() else {
            continue;
        };
        let headers: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();
        let mut t = Table::new(format!("{name} {table}"), &headers);
        for r in records {
            t.row(headers.iter().map(|h| text(r.get(h))).collect());
        }
        t.print();
    }
}

fn write_artifact(path: &str, doc: &Value) -> std::io::Result<()> {
    if let Some(dir) = Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, doc.pretty(2) + "\n")
}

fn same_file(a: &str, b: &str) -> bool {
    matches!(
        (std::fs::canonicalize(a), std::fs::canonicalize(b)),
        (Ok(a), Ok(b)) if a == b
    )
}

/// `repro <B::NAME> [--out PATH] [--check PATH] [the bench's own flags]`:
/// read the committed copy, run the benchmark, print it, gate it and
/// write the artifact. A failed gate never overwrites the file it failed
/// against, so `--out P --check P` on a stale `P` reports it and leaves
/// it as it was. Exit status 0 = the gate holds, 1 = the run failed or
/// the gate found violations, 2 = usage or an unwritable `--out`.
pub fn gated_bench_cmd<B: GatedBench>(mut args: Args) -> i32 {
    let name = B::NAME;
    let mut cfg = B::Config::default();
    let mut out: Option<String> = None;
    let mut check_path: Option<String> = None;
    while let Some(flag) = args.next_flag() {
        let applied = match flag.as_str() {
            "--out" => args.value(&flag).map(|v| out = Some(v)),
            "--check" => args.value(&flag).map(|v| check_path = Some(v)),
            _ => B::apply_flag(&mut cfg, &flag, &mut args).and_then(|known| {
                known
                    .then_some(())
                    .ok_or_else(|| format!("unknown {name} flag: {flag}"))
            }),
        };
        if let Err(e) = applied {
            eprintln!("{e}");
            return 2;
        }
    }
    let committed = match &check_path {
        None => None,
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Some(text),
            Err(e) => {
                eprintln!(
                    "[repro] {name} FAIL: no committed artifact at {path}: {e} — \
                     generate one with `repro {name} --out {path}`"
                );
                return 1;
            }
        },
    };
    let doc = match B::run(&cfg) {
        Ok(fields) => document::<B>(fields),
        Err(e) => {
            eprintln!("[repro] {name} FAIL: {e}");
            return 1;
        }
    };
    print(name, &doc);
    let violations = committed
        .as_deref()
        .map(|text| check::<B>(&doc, text))
        .unwrap_or_default();
    for v in &violations {
        eprintln!("[repro] {name} VIOLATION: {v}");
    }
    if let Some(path) = &out {
        if !violations.is_empty() && check_path.as_deref().is_some_and(|c| same_file(c, path)) {
            eprintln!("[repro] {name}: the gate failed against {path}; left it unmodified");
        } else if let Err(e) = write_artifact(path, &doc) {
            eprintln!("[repro] cannot write {path}: {e}");
            return 2;
        } else {
            eprintln!("[repro] wrote {path}");
        }
    }
    if !violations.is_empty() {
        return 1;
    }
    if let Some(path) = &check_path {
        eprintln!("[repro] {name}: structure and invariants consistent with {path}");
    }
    0
}

/// FNV-1a 64 over a string — the stable fingerprint the artifacts commit
/// in place of a multi-line parity digest or a result's bit patterns.
#[must_use]
pub fn fingerprint(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn cursor_hands_out_flags_then_values() {
        let mut a = args(&["--epochs", "3", "--cs", "--worlds", "2,4"]);
        assert_eq!(a.next_flag().as_deref(), Some("--epochs"));
        assert_eq!(a.parsed::<usize>("--epochs"), Ok(3));
        assert_eq!(a.next_flag().as_deref(), Some("--cs"));
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

    /// A gated bench with one identity field, one keyed table and one
    /// invariant.
    struct Fake;

    fn fake_fields(nodes: usize, runs: &[(&str, u64, f64)]) -> Fields {
        let record = |&(arch, bytes, ms): &(&str, u64, f64)| {
            obj([
                ("arch", arch.into()),
                ("bytes", bytes.into()),
                ("ms", ms.into()),
            ])
        };
        vec![
            ("nodes", nodes.into()),
            ("runs", runs.iter().map(record).collect()),
        ]
    }

    fn fake(nodes: usize, runs: &[(&str, u64, f64)]) -> Value {
        document::<Fake>(fake_fields(nodes, runs))
    }

    impl GatedBench for Fake {
        const NAME: &'static str = "fakebench";
        const SCHEMA: &'static str = "sar-fakebench/v1";
        const IDENTITY: &'static [&'static str] = &["nodes"];
        const TABLES: &'static [Records] = &[Records {
            table: "runs",
            key: &["arch"],
        }];
        type Config = ();

        fn apply_flag(_: &mut (), _: &str, _: &mut Args) -> Result<bool, String> {
            Ok(false)
        }

        fn run(_: &()) -> Result<Fields, String> {
            Ok(fake_fields(900, &[("sage", 10, 1.0), ("gat", 20, 2.0)]))
        }

        fn invariants(label: &str, doc: &Value) -> Vec<String> {
            let runs = doc.items("runs").iter();
            let idle = runs.filter(|r| !r.req_num("bytes").is_ok_and(|b| b > 0.0));
            idle.map(|r| format!("{label}: {} moved no bytes", text(r.get("arch"))))
                .collect()
        }
    }

    fn committed() -> String {
        fake(900, &[("sage", 10, 1.0), ("gat", 20, 2.0)]).pretty(2)
    }

    fn any(violations: &[String], needle: &str) -> bool {
        violations.iter().any(|v| v.contains(needle))
    }

    #[test]
    fn a_run_gates_clean_against_its_own_artifact_and_records_may_drift() {
        let fresh = fake(900, &[("sage", 10, 1.0), ("gat", 20, 2.0)]);
        assert_eq!(check::<Fake>(&fresh, &committed()), Vec::<String>::new());
        let slower = fake(900, &[("sage", 10, 50.0), ("gat", 20, 0.1)]);
        assert_eq!(check::<Fake>(&slower, &committed()), Vec::<String>::new());
    }

    #[test]
    fn schema_and_json_are_checked_first() {
        let fresh = fake(900, &[("sage", 10, 1.0), ("gat", 20, 2.0)]);
        let stale = committed().replace(Fake::SCHEMA, "sar-fakebench/v0");
        let v = check::<Fake>(&fresh, &stale);
        assert!(v.len() == 1 && v[0].contains("schema"), "{v:?}");
        assert!(check::<Fake>(&fresh, "not json at all")[0].contains("parse error"));
        let untagged = committed().replace("\"schema\"", "\"tag\"");
        assert!(check::<Fake>(&fresh, &untagged)[0].contains("schema"));
    }

    #[test]
    fn another_workload_is_not_a_baseline() {
        let fresh = fake(600, &[("sage", 10, 1.0), ("gat", 20, 2.0)]);
        let v = check::<Fake>(&fresh, &committed());
        assert!(v.len() == 1 && v[0].contains("nodes is 600"), "{v:?}");
    }

    #[test]
    fn the_run_set_is_diffed_both_ways() {
        let fewer = fake(900, &[("sage", 10, 1.0)]);
        let v = check::<Fake>(&fewer, &committed());
        assert!(any(&v, "run set") && any(&v, "arch=gat is committed but was not produced"));
        let more = fake(900, &[("sage", 10, 1.0), ("gat", 20, 2.0), ("gcn", 5, 1.0)]);
        let v = check::<Fake>(&more, &committed());
        assert!(any(&v, "run set") && any(&v, "arch=gcn is new"), "{v:?}");
    }

    #[test]
    fn both_documents_must_satisfy_the_declaration_and_the_invariants() {
        let fresh = fake(900, &[("sage", 10, 1.0), ("gat", 20, 2.0)]);
        let broken = fake(900, &[("sage", 10, 1.0), ("gat", 0, 2.0)]).pretty(2);
        let v = check::<Fake>(&fresh, &broken);
        assert!(any(&v, "committed: gat moved no bytes"), "{v:?}");
        let doc = fake(900, &[("sage", 10, 1.0), ("sage", 10, 1.0)]);
        assert!(any(
            &validate::<Fake>("current", &doc),
            "arch=sage appears twice"
        ));
        let doc = json::parse(r#"{"runs": [{"arch": "sage", "ms": 1}, {"ms": 1}]}"#).unwrap();
        let v = validate::<Fake>("current", &doc);
        assert!(any(&v, "missing identity field \"nodes\""), "{v:?}");
        assert!(any(&v, "arch=- has no \"arch\""), "{v:?}");
        assert!(any(&v, "current: sage moved no bytes"), "{v:?}");
        let v = validate::<Fake>("current", &json::parse(r#"{"nodes": 1}"#).unwrap());
        assert!(any(&v, "missing array field \"runs\""), "{v:?}");
    }

    #[test]
    fn out_and_check_on_one_path_gate_against_the_file_as_committed() {
        let path = std::env::temp_dir().join(format!("sar-cli-gate-{}.json", std::process::id()));
        let path_str = path.to_str().unwrap();
        // Committed from a different run set than `Fake::run` produces.
        let stale = fake(900, &[("sage", 10, 1.0)]).pretty(2);
        std::fs::write(&path, &stale).unwrap();
        let status = gated_bench_cmd::<Fake>(args(&["--out", path_str, "--check", path_str]));
        let after = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(status, 1, "a stale baseline must fail the gate");
        assert_eq!(
            after, stale,
            "the baseline it failed against must be left as it was"
        );
    }

    #[test]
    fn fingerprint_is_stable_and_collision_sensitive() {
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
        assert_eq!(fingerprint("").len(), 16);
    }
}
