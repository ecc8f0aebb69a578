//! In-memory spans recorded by the benchmark's own processes around the
//! calls into each layer, merged into one Chrome-trace file at exit.
//!
//! Timings that feed metrics are always taken (two `Instant` reads per
//! scope); the span itself is only kept when tracing is on, so an untraced
//! run allocates nothing here. Keeping spans is therefore all a traced
//! run adds to a timed region, and the recorder times that itself
//! ([`Tracer::spent_s`]): the tracing overhead is read inside one run,
//! not as the difference of two runs on a box whose speed drifts by more
//! than the 2% limit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Rank number spans of the benchmark's driver process carry.
pub const DRIVER: i32 = -1;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`partition.multilevel`, `core.run_worker`, …).
    pub name: String,
    /// Rank process that recorded it, or [`DRIVER`].
    pub rank: i32,
    /// Start, microseconds since the run's epoch.
    pub start_us: u64,
    /// End, microseconds since the run's epoch.
    pub end_us: u64,
    /// Index (within the same process's span list) of the enclosing span.
    pub parent: Option<usize>,
    /// Rep number or request id the span belongs to.
    pub id: u64,
}

impl Span {
    fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Microseconds since the Unix epoch: the clock all processes of one run
/// share, used only to line their traces up.
pub fn unix_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

/// Span recorder of one process.
pub struct Tracer {
    enabled: bool,
    rank: i32,
    /// Offset of `t0` from the run's epoch, microseconds.
    base_us: u64,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Time spent keeping spans.
    spent: Duration,
}

impl Tracer {
    /// A recorder for `rank` whose clock starts now, `epoch_unix_us` being
    /// the run's epoch (the driver's start) on the shared Unix clock.
    pub fn new(rank: i32, epoch_unix_us: u64, enabled: bool) -> Tracer {
        Tracer {
            enabled,
            rank,
            base_us: unix_us().saturating_sub(epoch_unix_us),
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds since the run's epoch.
    pub fn now_us(&self) -> u64 {
        self.base_us + self.t0.elapsed().as_micros() as u64
    }

    /// Microseconds since the run's epoch of an `Instant` taken in this
    /// process.
    pub fn at_us(&self, t: Instant) -> u64 {
        self.base_us + t.saturating_duration_since(self.t0).as_micros() as u64
    }

    /// Seconds this recorder has spent keeping spans: what tracing adds
    /// to the code around it. 0 while tracing is off.
    pub fn spent_s(&self) -> f64 {
        self.spent.as_secs_f64()
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str, id: u64) {
        if !self.enabled {
            return;
        }
        let entered = Instant::now();
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            rank: self.rank,
            start_us: now,
            end_us: now,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(self.spans.len() - 1);
        self.spent += entered.elapsed();
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let entered = Instant::now();
        let now = self.now_us();
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_us = now;
        }
        self.spent += entered.elapsed();
    }

    /// Runs `f` inside a span and returns its result with the seconds it
    /// took.
    pub fn scope<T>(&mut self, name: &str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        self.begin(name, id);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.end();
        (out, secs)
    }

    /// Adds an already closed span (timed on another thread) under the
    /// innermost open one.
    pub fn record(&mut self, name: &str, id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let entered = Instant::now();
        let (start_us, end_us) = (self.at_us(start), self.at_us(end));
        self.spans.push(Span {
            name: name.to_string(),
            rank: self.rank,
            start_us,
            end_us,
            parent: self.stack.last().copied(),
            id,
        });
        self.spent += entered.elapsed();
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// One line per span, for a rank's result file.
pub fn encode_span(s: &Span) -> String {
    format!(
        "S\t{}\t{}\t{}\t{}\t{}\t{}",
        s.name,
        s.rank,
        s.start_us,
        s.end_us,
        s.parent.map_or(-1, |p| p as i64),
        s.id
    )
}

/// Inverse of [`encode_span`]; `None` for any other line.
pub fn decode_span(line: &str) -> Option<Span> {
    let mut f = line.split('\t');
    if f.next()? != "S" {
        return None;
    }
    let name = f.next()?.to_string();
    let rank = f.next()?.parse().ok()?;
    let start_us = f.next()?.parse().ok()?;
    let end_us = f.next()?.parse().ok()?;
    let parent: i64 = f.next()?.parse().ok()?;
    let id = f.next()?.parse().ok()?;
    Some(Span {
        name,
        rank,
        start_us,
        end_us,
        parent: usize::try_from(parent).ok(),
        id,
    })
}

/// Per span name: `(count, total seconds, self seconds)`, where a span's
/// self time is its duration minus the part of it its child spans cover.
/// `groups` holds each process's span list (parent indices are local to
/// a list).
pub fn self_times(groups: &[Vec<Span>]) -> BTreeMap<String, (u64, f64, f64)> {
    let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for spans in groups {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
                let lo = s.start_us.max(spans[p].start_us);
                let hi = s.end_us.min(spans[p].end_us);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        for (s, kids) in spans.iter().zip(&mut children) {
            // Children recorded on parallel threads overlap; count the
            // union of their intervals once.
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.dur_us() as f64 / 1e6;
            e.2 += s.dur_us().saturating_sub(covered) as f64 / 1e6;
        }
    }
    out
}

/// Escapes a string for a JSON document.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The merged spans in Chrome's trace-event format (load in
/// `chrome://tracing` or Perfetto): one complete event per span, process
/// id 0 for the driver and `rank + 1` for rank processes.
pub fn chrome_trace(groups: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for s in groups.iter().flatten() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":0,\
             \"args\":{{\"rank\":{},\"id\":{},\"parent\":{}}}}}",
            json_string(&s.name),
            s.start_us,
            s.dur_us(),
            s.rank + 1,
            s.rank,
            s.id,
            s.parent.map_or(-1, |p| p as i64),
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            rank: 0,
            start_us,
            end_us,
            parent,
            id: 0,
        }
    }

    #[test]
    fn spans_round_trip_through_result_lines() {
        let s = Span {
            name: "core.run_worker".into(),
            rank: 1,
            start_us: 12,
            end_us: 3456,
            parent: Some(2),
            id: 7,
        };
        assert_eq!(decode_span(&encode_span(&s)), Some(s.clone()));
        let root = Span { parent: None, ..s };
        assert_eq!(decode_span(&encode_span(&root)), Some(root));
        assert_eq!(decode_span("wall_s=1.5"), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("phase", 0, 1_000_000, None),
            // Two overlapping requests from parallel connections cover
            // 100..700 ms once, not 100..500 plus 300..700.
            span("request", 100_000, 500_000, Some(0)),
            span("request", 300_000, 700_000, Some(0)),
        ];
        let t = self_times(&[spans]);
        let (count, total, own) = t["phase"];
        assert_eq!(count, 1);
        assert!((total - 1.0).abs() < 1e-9);
        assert!((own - 0.4).abs() < 1e-9, "self {own}");
        let (count, total, own) = t["request"];
        assert_eq!(count, 2);
        assert!((total - 0.8).abs() < 1e-9);
        assert!((own - 0.8).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(0, unix_us(), false);
        let (v, secs) = t.scope("x", 0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.spent_s(), 0.0);
        let mut t = Tracer::new(0, unix_us(), true);
        t.begin("outer", 1);
        t.scope("inner", 2, || ());
        t.end();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_us >= t.spans()[1].end_us);
        // Keeping spans takes time, and the recorder counts it.
        for i in 0..10_000 {
            t.scope("many", i, || ());
        }
        assert!(t.spent_s() > 0.0);
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let text = chrome_trace(&[vec![span("a\"b", 1, 5, None)], vec![]]);
        assert!(text.contains("\"name\":\"a\\\"b\""));
        assert!(text.contains("\"dur\":4"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }
}
