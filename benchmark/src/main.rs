//! `sar-benchmark` — measured wall-clock epochs and served queries on real
//! OS-process ranks over TCP loopback, with per-layer attribution taken
//! from outside the program. See README.md next to this package.
//!
//! ```text
//! sar-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run of one workload; the last line of stdout is the result
//!     object BENCHMARK.json describes (tables go to stderr)
//! sar-benchmark [--seed N] [--seconds S]
//!     every workload, untraced then traced; exits 1 if any check fails
//! sar-benchmark --selfcheck [--seed N] [--seconds S]
//!     two sets of three untraced runs per workload on this build; per
//!     (workload, metric) both medians, their difference and the bound;
//!     exits 1 if a difference exceeds its bound or an exact count differs
//! ```

mod cluster;
mod probes;
mod procfs;
mod rank;
mod report;
mod result;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use report::Outcome;
use spec::{Kind, Spec, END_TO_END, WORKLOADS};

/// Seconds one run measures when `--seconds` is not given; the value
/// `BENCHMARK.json` sets as `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;
/// What one run may take before its launches are killed: several times
/// what it needs (≈ 20 s at the default `--seconds`), and inside the 180 s
/// the benchmark driver allows.
const RUN_BUDGET: Duration = Duration::from_secs(140);
/// Untraced runs per workload in each of `--selfcheck`'s two sets.
const SELFCHECK_RUNS: usize = 3;
/// A count `--selfcheck` requires every run of a workload to repeat to the
/// bit: wire bytes per operation (0 where the ledger is not read).
const EXACT_COUNT: &str = "comm.wire_mib_per_op";
/// Flags that take no value.
const SWITCHES: [&str; 1] = ["selfcheck"];

/// Parses `--key value` pairs (and bare switches) into a map.
fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg}"))?;
        let value = if SWITCHES.contains(&key) {
            "1".to_string()
        } else {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for --{key}"))?
        };
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The environment block every run records, on stderr.
fn print_environment(seed: u64, seconds: f64) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    eprintln!(
        "[sar-benchmark] nproc {nproc} | cpu {cpu} | simd {} | {} | commit {} | seed {seed} | seconds {seconds}",
        sar_tensor::simd::dispatch_label(),
        first_line_of("rustc", &["--version"]),
        first_line_of("git", &["rev-parse", "--short", "HEAD"]),
    );
}

/// One run of one workload.
fn run_one(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let epoch = trace::unix_us();
    let deadline = Instant::now() + RUN_BUDGET;
    match spec.kind {
        Kind::Train => train::run(spec, seed, seconds, trace, epoch, deadline),
        Kind::Serve => serve::run(spec, seed, seconds, trace, epoch, deadline),
    }
}

/// Writes a traced run's merged Chrome trace and prints the span table.
fn write_trace(out: &Outcome, trace_out: Option<&str>) {
    let path = match trace_out {
        Some(p) => PathBuf::from(p),
        None => match cluster::scratch_root() {
            Ok(root) => root
                .join("sar-benchmark-traces")
                .join(format!("{}.trace.json", out.workload)),
            Err(e) => {
                eprintln!("[sar-benchmark] no trace written: {e}");
                return;
            }
        },
    };
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, trace::chrome_trace(&out.spans)) {
        Ok(()) => eprintln!("[sar-benchmark] wrote {}", path.display()),
        Err(e) => eprintln!("[sar-benchmark] cannot write {}: {e}", path.display()),
    }
    eprintln!("  span                          count      total s       self s");
    for (name, (count, total, own)) in trace::self_times(&out.spans) {
        eprintln!("  {name:<28} {count:>6} {total:>12.4} {own:>12.4}");
    }
}

/// Every workload, untraced then traced.
fn run_full_set(seed: u64, seconds: f64) -> i32 {
    let mut all_correct = true;
    for spec in &WORKLOADS {
        for trace in [false, true] {
            let out = run_one(spec, seed, seconds, trace);
            print!("{}", out.table());
            if trace {
                write_trace(&out, None);
            }
            all_correct &= out.correct();
        }
    }
    i32::from(!all_correct)
}

/// Two sets of [`SELFCHECK_RUNS`] untraced runs per workload; medians
/// compared against the bounds `BENCHMARK.json` fixes.
fn run_selfcheck(seed: u64, seconds: f64) -> i32 {
    let mut ok = true;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "set A median", "set B median", "worse by", "bound"
    );
    for spec in &WORKLOADS {
        let sets: Vec<Vec<Outcome>> = (0..2)
            .map(|_| {
                (0..SELFCHECK_RUNS)
                    .map(|_| run_one(spec, seed, seconds, false))
                    .collect()
            })
            .collect();
        for o in sets.iter().flatten().filter(|o| !o.correct()) {
            eprint!("{}", o.table());
            ok = false;
        }
        let med = |set: &[Outcome], name: &str| {
            stats::median(&set.iter().map(|o| o.get(name)).collect::<Vec<_>>())
        };
        for (name, _, higher_is_better, bound) in END_TO_END {
            let (a, b) = (med(&sets[0], name), med(&sets[1], name));
            let worse = if a > 0.0 {
                if higher_is_better {
                    (a - b) / a
                } else {
                    (b - a) / a
                }
            } else {
                f64::INFINITY
            };
            let pass = worse <= bound;
            ok &= pass;
            println!(
                "{:<14} {name:<20} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%  {}",
                spec.name,
                100.0 * worse,
                100.0 * bound,
                if pass { "ok" } else { "FAIL" }
            );
        }
        let first = sets[0][0].get(EXACT_COUNT);
        let pass = sets.iter().flatten().all(|o| o.get(EXACT_COUNT) == first);
        ok &= pass;
        println!(
            "{:<14} {EXACT_COUNT:<20} {:>14.4} {:>14.4} {:>9} {:>7}  {}",
            spec.name,
            med(&sets[0], EXACT_COUNT),
            med(&sets[1], EXACT_COUNT),
            "",
            "exact",
            if pass { "ok" } else { "FAIL" }
        );
    }
    i32::from(!ok)
}

fn real_main() -> Result<i32, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("rank") {
        return Ok(rank::main(&parse_flags(&args[1..])?));
    }
    let flags = parse_flags(&args)?;
    let known = [
        "workload",
        "seed",
        "seconds",
        "trace",
        "trace-out",
        "selfcheck",
    ];
    if let Some(bad) = flags.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown flag --{bad}"));
    }
    let parsed = |key: &str, default: f64| -> Result<f64, String> {
        flags.get(key).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad value for --{key}: {v}"))
        })
    };
    let seed = parsed("seed", 0.0)? as u64;
    let seconds = parsed("seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let trace = parsed("trace", 0.0)? != 0.0;
    let trace_out = flags.get("trace-out").map(String::as_str);

    cluster::sweep_stale_dirs();
    print_environment(seed, seconds);
    if flags.contains_key("selfcheck") {
        return Ok(run_selfcheck(seed, seconds));
    }
    let Some(name) = flags.get("workload") else {
        return Ok(run_full_set(seed, seconds));
    };
    let spec = Spec::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload {name} (one of: {})", names.join(", "))
    })?;
    let out = run_one(&spec, seed, seconds, trace);
    eprint!("{}", out.table());
    if trace {
        write_trace(&out, trace_out);
    }
    // The result line carries the verdict (`correct`), so a run that got
    // this far exits 0 and lets the reader of the line decide.
    println!("{}", out.json_line());
    Ok(0)
}

fn main() {
    match real_main() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("sar-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::PER_LAYER;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Every `"name": "..."` value of a JSON text, in order.
    fn names_in(json: &str) -> Vec<String> {
        json.split("\"name\":")
            .skip(1)
            .filter_map(|rest| {
                let rest = rest.trim_start().strip_prefix('"')?;
                Some(rest[..rest.find('"')?].to_string())
            })
            .collect()
    }

    #[test]
    fn every_emitted_name_is_well_formed_and_listed_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = names_in(&json);
        let emitted: Vec<&str> = WORKLOADS
            .iter()
            .map(|s| s.name)
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for name in &emitted {
            assert!(valid_name(name), "bad name {name}");
        }
        let listed_refs: Vec<&str> = listed.iter().map(String::as_str).collect();
        assert_eq!(listed_refs, emitted, "BENCHMARK.json and spec.rs disagree");
        let mut sorted = emitted.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), emitted.len(), "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);

        // Units and bounds agree too.
        for (name, unit, higher, bound) in END_TO_END {
            let better = if higher { "higher" } else { "lower" };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, higher) in PER_LAYER {
            let better = if higher { "higher" } else { "lower" };
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert!(json.contains(&format!("\"run_seconds\": {}", DEFAULT_SECONDS as u64)));
    }

    #[test]
    fn flags_parse_pairs_and_switches() {
        let args: Vec<String> = ["--workload", "gat-tcp2", "--selfcheck", "--seed", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&args).unwrap();
        assert_eq!(flags["workload"], "gat-tcp2");
        assert_eq!(flags["selfcheck"], "1");
        assert_eq!(flags["seed"], "4");
        assert!(parse_flags(&["--seed".to_string()]).is_err());
        assert!(parse_flags(&["seed".to_string()]).is_err());
    }
}
