//! What a rank process hands back to the driver: named numbers and its
//! spans, as one text file in the run directory.

use std::collections::BTreeMap;
use std::path::Path;

use crate::trace::{decode_span, encode_span, Span};

/// A rank's measurements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankResult {
    values: BTreeMap<String, f64>,
    /// Spans the rank recorded (empty when tracing is off).
    pub spans: Vec<Span>,
}

impl RankResult {
    /// Stores `value` under `key`.
    pub fn set(&mut self, key: impl Into<String>, value: f64) {
        self.values.insert(key.into(), value);
    }

    /// The value under `key`; 0 when the rank never set it.
    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// Writes the file atomically (temp file, then rename), so the driver
    /// never reads half a result from a rank that died mid-write.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (k, v) in &self.values {
            // `{:?}` prints an f64 with every digit needed to read it back.
            text.push_str(&format!("{k}={v:?}\n"));
        }
        for s in &self.spans {
            text.push_str(&encode_span(s));
            text.push('\n');
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }

    /// Reads a file [`RankResult::write`] produced.
    pub fn read(path: &Path) -> Result<RankResult, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut out = RankResult::default();
        for line in text.lines() {
            if let Some(span) = decode_span(line) {
                out.spans.push(span);
            } else if let Some((k, v)) = line.split_once('=') {
                let v = v
                    .parse()
                    .map_err(|_| format!("{}: bad number in {line:?}", path.display()))?;
                out.values.insert(k.to_string(), v);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_round_trip_exactly() {
        let mut r = RankResult::default();
        r.set("rep.1.wall_s", 1.234_567_890_123_456_7);
        r.set("rep.1.loss.0", f64::from(2.5f32.to_bits()));
        r.set("nan", f64::NAN);
        r.spans.push(Span {
            name: "core.run_worker".into(),
            rank: 0,
            start_us: 5,
            end_us: 9,
            parent: None,
            id: 1,
        });
        // Next to the test executable: inside the build directory.
        let path = std::env::current_exe()
            .unwrap()
            .with_extension(format!("{}.result", std::process::id()));
        r.write(&path).unwrap();
        let back = RankResult::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back.get("rep.1.wall_s"), 1.234_567_890_123_456_7);
        assert_eq!(back.get("rep.1.loss.0") as u32, 2.5f32.to_bits());
        assert!(back.get("nan").is_nan());
        assert_eq!(back.get("missing"), 0.0);
        assert_eq!(back.spans, r.spans);
    }
}
