//! Bench-report parsing and schema-aware regression diffing.
//!
//! The vendored criterion shim and `poe loadgen` both persist results as a
//! `poe-bench` JSON document with one row object per line. This module
//! parses those reports ([`BenchReport::parse`]) tolerantly across schema
//! versions — v1 stamped `warmup_ms`/`measure_ms` globally in the header,
//! v2 carries them per row — and diffs two reports row-by-name with
//! per-metric regression rules ([`diff`]):
//!
//! * `*_ns` latency metrics are higher-is-worse; a regression must exceed
//!   **both** a relative threshold and an absolute noise floor, so a
//!   200 ns → 300 ns jitter on a nanosecond-scale bench doesn't fail CI.
//! * `samples_per_sec` is lower-is-worse (relative only, by the same
//!   factor as latency: a regression is `cand·(1+rel) < base`; rows
//!   measuring < 1 sample/sec are skipped as too noisy).
//! * `errors`/`shed`/`partial` counts regress when the candidate exceeds
//!   the baseline by more than a configurable count floor.
//! * `slo_pass` (0/1) regresses when a passing baseline turns failing.
//! * Rows whose per-row `warmup_ms`/`measure_ms` disagree are flagged as
//!   a settings mismatch instead of comparing apples to oranges.
//!
//! [`DiffReport::render`] prints the human table behind `poe obs diff`,
//! and [`DiffReport::passed`] is its exit code.

use std::collections::BTreeMap;

/// One bench row: a name plus its numeric fields (`mean_ns`, `p99_ns`,
/// `samples_per_sec`, …). Non-numeric fields other than `name` are
/// ignored.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Full bench id (`group/case` or `loadgen/<tenant>`).
    pub name: String,
    /// Numeric fields, keyed by field name.
    pub fields: BTreeMap<String, f64>,
}

impl BenchRow {
    /// The named numeric field, if present.
    pub fn field(&self, key: &str) -> Option<f64> {
        self.fields.get(key).copied()
    }
}

/// A parsed `poe-bench` report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version from the header (1 or 2).
    pub version: u64,
    /// Rows in file order.
    pub rows: Vec<BenchRow>,
}

/// Extracts `"key": <number>` pairs from a single-line JSON object. The
/// report writer emits one row object per line with simple scalar fields,
/// so a full JSON parser is not needed; string values are skipped
/// (honoring escapes) and numeric values are collected.
fn parse_row_fields(line: &str) -> BTreeMap<String, f64> {
    let mut fields = BTreeMap::new();
    let mut rest = line;
    while let Some(q) = rest.find('"') {
        rest = &rest[q + 1..];
        // Key: scan to the closing unescaped quote.
        let mut key = String::new();
        let mut chars = rest.char_indices();
        let mut end = rest.len();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    end = i + 1;
                    break;
                }
                '\\' => {
                    if let Some((_, e)) = chars.next() {
                        key.push(match e {
                            'n' => '\n',
                            't' => '\t',
                            other => other,
                        });
                    }
                }
                c => key.push(c),
            }
        }
        rest = &rest[end.min(rest.len())..];
        let Some(after_colon) = rest.trim_start().strip_prefix(':') else {
            continue;
        };
        let val = after_colon.trim_start();
        if let Some(body) = val.strip_prefix('"') {
            // A string value (only `name` in practice): skip past it,
            // honoring escapes, so its content can't be misread as a key.
            let mut chars = body.char_indices();
            let mut consumed = val.len();
            while let Some((i, c)) = chars.next() {
                match c {
                    '"' => {
                        consumed = 1 + i + 1;
                        break;
                    }
                    '\\' => {
                        chars.next();
                    }
                    _ => {}
                }
            }
            rest = &val[consumed.min(val.len())..];
            continue;
        }
        let num: String = val
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            fields.insert(key, v);
        }
        rest = &val[num.len()..];
    }
    fields
}

/// Extracts the `name` string from a row line, honoring escapes.
fn parse_row_name(line: &str) -> Option<String> {
    let rest = line.trim_start().strip_prefix("{\"name\": \"")?;
    let mut name = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(name),
            '\\' => name.push(chars.next()?),
            c => name.push(c),
        }
    }
    None
}

impl BenchReport {
    /// Parses a `poe-bench` report. Accepts schema v1 (global
    /// `warmup_ms`/`measure_ms`, injected here into every row) and v2
    /// (per-row settings). Errors name the first problem found.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        if !text.contains("\"report\": \"poe-bench\"") {
            return Err(
                "not a poe-bench report (missing `\"report\": \"poe-bench\"` header)".into(),
            );
        }
        let mut version = None;
        let mut global_warmup = None;
        let mut global_measure = None;
        let mut rows = Vec::new();
        let mut in_benches = false;
        for line in text.lines() {
            let t = line.trim();
            if !in_benches {
                if let Some(rest) = t.strip_prefix("\"version\":") {
                    version = rest.trim().trim_end_matches(',').parse::<u64>().ok();
                } else if let Some(rest) = t.strip_prefix("\"warmup_ms\":") {
                    global_warmup = rest.trim().trim_end_matches(',').parse::<f64>().ok();
                } else if let Some(rest) = t.strip_prefix("\"measure_ms\":") {
                    global_measure = rest.trim().trim_end_matches(',').parse::<f64>().ok();
                }
                if t.starts_with("\"benches\":") {
                    in_benches = true;
                }
                continue;
            }
            if !t.starts_with('{') {
                continue;
            }
            let name = parse_row_name(t)
                .ok_or_else(|| format!("bench row without a leading `name` field: `{t}`"))?;
            let mut fields = parse_row_fields(t);
            if let (None, Some(w)) = (fields.get("warmup_ms"), global_warmup) {
                fields.insert("warmup_ms".into(), w);
            }
            if let (None, Some(m)) = (fields.get("measure_ms"), global_measure) {
                fields.insert("measure_ms".into(), m);
            }
            if rows.iter().any(|r: &BenchRow| r.name == name) {
                return Err(format!("duplicate bench row `{name}`"));
            }
            rows.push(BenchRow { name, fields });
        }
        let version = version.ok_or("report header has no `version` field")?;
        if !(1..=2).contains(&version) {
            return Err(format!("unsupported report version {version}"));
        }
        Ok(BenchReport { version, rows })
    }

    /// The named row, if present.
    pub fn row(&self, name: &str) -> Option<&BenchRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Thresholds for [`diff`].
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Relative regression threshold (0.25 = candidate may be up to 25%
    /// worse before failing).
    pub rel: f64,
    /// Absolute noise floor for `*_ns` metrics: a latency regression must
    /// also exceed the baseline by this many nanoseconds.
    pub abs_ns: f64,
    /// Error/shed/partial counts may exceed the baseline by this much
    /// before failing.
    pub count_floor: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            rel: 0.25,
            abs_ns: 50_000.0,
            count_floor: 0.0,
        }
    }
}

/// Verdict for one compared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within thresholds (or improved).
    Ok,
    /// Worse than the baseline beyond the thresholds.
    Regression,
}

/// One compared metric of one row.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    /// Row name the metric belongs to.
    pub row: String,
    /// Metric field name (`p99_ns`, `samples_per_sec`, …).
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub cand: f64,
    /// Pass/fail for this metric.
    pub verdict: Verdict,
}

/// The outcome of diffing two reports.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every metric compared, in row order.
    pub entries: Vec<DiffEntry>,
    /// Baseline rows absent from the candidate (warned, not failed: bench
    /// suites legitimately grow and shrink across commits).
    pub missing: Vec<String>,
    /// Candidate rows absent from the baseline (informational).
    pub added: Vec<String>,
    /// Rows whose per-row `warmup_ms`/`measure_ms` disagree between the
    /// two reports — compared settings-wise apples to oranges, so these
    /// fail the diff.
    pub settings_mismatch: Vec<String>,
}

impl DiffReport {
    /// True when no metric regressed and no settings mismatched.
    pub fn passed(&self) -> bool {
        self.settings_mismatch.is_empty()
            && self
                .entries
                .iter()
                .all(|e| e.verdict != Verdict::Regression)
    }

    /// Number of regressed metrics.
    pub fn regressions(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.verdict == Verdict::Regression)
            .count()
    }

    /// Renders the human-readable comparison table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let name_w = self
            .entries
            .iter()
            .map(|e| e.row.len() + e.metric.len() + 1)
            .max()
            .unwrap_or(12)
            .max(12);
        out.push_str(&format!(
            "{:<name_w$} {:>14} {:>14} {:>9}  verdict\n",
            "row/metric", "baseline", "candidate", "delta"
        ));
        for e in &self.entries {
            let delta = if e.base.abs() > f64::EPSILON {
                format!("{:+.1}%", (e.cand - e.base) / e.base * 100.0)
            } else {
                "n/a".to_string()
            };
            let verdict = match e.verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
            };
            out.push_str(&format!(
                "{:<name_w$} {:>14.1} {:>14.1} {:>9}  {verdict}\n",
                format!("{}.{}", e.row, e.metric),
                e.base,
                e.cand,
                delta
            ));
        }
        for row in &self.settings_mismatch {
            out.push_str(&format!(
                "{row}: warmup_ms/measure_ms differ between reports — not comparable\n"
            ));
        }
        for row in &self.missing {
            out.push_str(&format!("warning: row `{row}` missing from candidate\n"));
        }
        for row in &self.added {
            out.push_str(&format!("note: row `{row}` only in candidate\n"));
        }
        let r = self.regressions();
        if r == 0 && self.settings_mismatch.is_empty() {
            out.push_str("diff: OK\n");
        } else {
            out.push_str(&format!(
                "diff: {r} regression(s), {} settings mismatch(es)\n",
                self.settings_mismatch.len()
            ));
        }
        out
    }
}

/// Fields never compared directly: bookkeeping, not performance.
const SKIPPED_FIELDS: &[&str] = &["iters", "warmup_ms", "measure_ms"];

/// Compares `cand` against `base` row-by-name under `opts`. See the
/// module docs for the per-metric rules.
pub fn diff(base: &BenchReport, cand: &BenchReport, opts: &DiffOptions) -> DiffReport {
    let mut out = DiffReport::default();
    for brow in &base.rows {
        let Some(crow) = cand.row(&brow.name) else {
            out.missing.push(brow.name.clone());
            continue;
        };
        let settings_differ = ["warmup_ms", "measure_ms"].iter().any(|k| {
            matches!(
                (brow.field(k), crow.field(k)),
                (Some(b), Some(c)) if (b - c).abs() > f64::EPSILON
            )
        });
        if settings_differ {
            out.settings_mismatch.push(brow.name.clone());
            continue;
        }
        for (metric, &b) in &brow.fields {
            if SKIPPED_FIELDS.contains(&metric.as_str()) {
                continue;
            }
            let Some(c) = crow.field(metric) else {
                continue;
            };
            let verdict = metric_verdict(metric, b, c, opts);
            let Some(verdict) = verdict else { continue };
            out.entries.push(DiffEntry {
                row: brow.name.clone(),
                metric: metric.clone(),
                base: b,
                cand: c,
                verdict,
            });
        }
    }
    for crow in &cand.rows {
        if base.row(&crow.name).is_none() {
            out.added.push(crow.name.clone());
        }
    }
    out
}

/// Applies the per-metric rule; `None` means the metric is skipped.
fn metric_verdict(metric: &str, base: f64, cand: f64, opts: &DiffOptions) -> Option<Verdict> {
    if metric.ends_with("_ns") {
        let worse = cand > base * (1.0 + opts.rel) && cand > base + opts.abs_ns;
        return Some(if worse {
            Verdict::Regression
        } else {
            Verdict::Ok
        });
    }
    match metric {
        "samples_per_sec" => {
            if base < 1.0 {
                return None; // too slow/noisy for a relative throughput gate
            }
            // The latency check's factor, inverted: `base·(1−rel)` would
            // go negative, and the gate blind, for any `rel` ≥ 1.
            let worse = cand * (1.0 + opts.rel) < base;
            Some(if worse {
                Verdict::Regression
            } else {
                Verdict::Ok
            })
        }
        "errors" | "shed" | "partial" => {
            let worse = cand > base + opts.count_floor;
            Some(if worse {
                Verdict::Regression
            } else {
                Verdict::Ok
            })
        }
        "slo_pass" => {
            let worse = base >= 1.0 && cand < 1.0;
            Some(if worse {
                Verdict::Regression
            } else {
                Verdict::Ok
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v2_report(rows: &[&str]) -> String {
        format!(
            "{{\n  \"report\": \"poe-bench\",\n  \"version\": 2,\n  \"benches\": [\n    {}\n  ]\n}}\n",
            rows.join(",\n    ")
        )
    }

    const ROW_A: &str = "{\"name\": \"grp/a\", \"iters\": 100, \"mean_ns\": 1000.0, \"samples_per_sec\": 1000000.0, \"p50_ns\": 900.0, \"p95_ns\": 1500.0, \"p99_ns\": 2000.0, \"warmup_ms\": 50, \"measure_ms\": 300}";

    #[test]
    fn parses_v1_and_injects_global_settings() {
        let text = "{\n  \"report\": \"poe-bench\",\n  \"version\": 1,\n  \"warmup_ms\": 50,\n  \"measure_ms\": 300,\n  \"benches\": [\n    {\"name\": \"x\", \"iters\": 5, \"mean_ns\": 2.0, \"samples_per_sec\": 5e8, \"p50_ns\": 2.0, \"p95_ns\": 2.0, \"p99_ns\": 3.0}\n  ]\n}\n";
        let r = BenchReport::parse(text).unwrap();
        assert_eq!(r.version, 1);
        let row = r.row("x").unwrap();
        assert_eq!(row.field("warmup_ms"), Some(50.0));
        assert_eq!(row.field("measure_ms"), Some(300.0));
        assert_eq!(row.field("p99_ns"), Some(3.0));
        assert_eq!(row.field("samples_per_sec"), Some(5e8));
    }

    #[test]
    fn parses_v2_with_per_row_settings() {
        let r = BenchReport::parse(&v2_report(&[ROW_A])).unwrap();
        assert_eq!(r.version, 2);
        let row = r.row("grp/a").unwrap();
        assert_eq!(row.field("warmup_ms"), Some(50.0));
        assert_eq!(row.field("iters"), Some(100.0));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BenchReport::parse("{}").unwrap_err().contains("poe-bench"));
        let no_version = "{\n  \"report\": \"poe-bench\",\n  \"benches\": [\n  ]\n}\n";
        assert!(BenchReport::parse(no_version)
            .unwrap_err()
            .contains("version"));
        let dup = v2_report(&[ROW_A, ROW_A]);
        assert!(BenchReport::parse(&dup).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn self_diff_passes() {
        let r = BenchReport::parse(&v2_report(&[ROW_A])).unwrap();
        let d = diff(&r, &r, &DiffOptions::default());
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.regressions(), 0);
        assert!(d.render().contains("diff: OK"));
    }

    #[test]
    fn latency_regression_needs_both_thresholds() {
        let base = BenchReport::parse(&v2_report(&[ROW_A])).unwrap();
        // +100% but only +1000 ns: under the 50 µs absolute floor → ok.
        let small = ROW_A.replace("\"p99_ns\": 2000.0", "\"p99_ns\": 4000.0");
        let cand = BenchReport::parse(&v2_report(&[&small])).unwrap();
        assert!(diff(&base, &cand, &DiffOptions::default()).passed());
        // +100% and +2 ms: both thresholds exceeded → regression.
        let big = ROW_A.replace("\"p99_ns\": 2000.0", "\"p99_ns\": 2002000.0");
        let cand = BenchReport::parse(&v2_report(&[&big])).unwrap();
        let d = diff(&base, &cand, &DiffOptions::default());
        assert!(!d.passed());
        assert_eq!(d.regressions(), 1);
        assert!(d.render().contains("REGRESSION"), "{}", d.render());
    }

    #[test]
    fn throughput_regression_is_lower_is_worse() {
        let base = BenchReport::parse(&v2_report(&[ROW_A])).unwrap();
        let slow = ROW_A.replace(
            "\"samples_per_sec\": 1000000.0",
            "\"samples_per_sec\": 500000.0",
        );
        let cand = BenchReport::parse(&v2_report(&[&slow])).unwrap();
        let d = diff(&base, &cand, &DiffOptions::default());
        assert!(!d.passed());
        // Faster is never a regression.
        let d = diff(&cand, &base, &DiffOptions::default());
        assert!(d.passed(), "{}", d.render());
        // At CI's `--rel 25.0` the gate still fails a 30× drop and passes
        // a 20× one (it allows up to 26×, the latency check's factor).
        let ci = DiffOptions {
            rel: 25.0,
            ..DiffOptions::default()
        };
        for (rate, passes) in [("33333.3", false), ("50000.0", true)] {
            let row = ROW_A.replace(
                "\"samples_per_sec\": 1000000.0",
                &format!("\"samples_per_sec\": {rate}"),
            );
            let cand = BenchReport::parse(&v2_report(&[&row])).unwrap();
            let d = diff(&base, &cand, &ci);
            assert_eq!(d.passed(), passes, "{rate}/s: {}", d.render());
        }
    }

    #[test]
    fn error_counts_and_slo_flags_gate() {
        let base_row = "{\"name\": \"loadgen/t\", \"p99_ns\": 100.0, \"errors\": 0, \"shed\": 2, \"partial\": 0, \"slo_pass\": 1, \"warmup_ms\": 0, \"measure_ms\": 2000}";
        let base = BenchReport::parse(&v2_report(&[base_row])).unwrap();
        let worse = base_row
            .replace("\"errors\": 0", "\"errors\": 3")
            .replace("\"slo_pass\": 1", "\"slo_pass\": 0");
        let cand = BenchReport::parse(&v2_report(&[&worse])).unwrap();
        let d = diff(&base, &cand, &DiffOptions::default());
        assert_eq!(d.regressions(), 2, "{}", d.render());
        // A count floor forgives small error-count increases.
        let opts = DiffOptions {
            count_floor: 5.0,
            ..DiffOptions::default()
        };
        let only_errors = base_row.replace("\"errors\": 0", "\"errors\": 3");
        let cand = BenchReport::parse(&v2_report(&[&only_errors])).unwrap();
        assert!(diff(&base, &cand, &opts).passed());
    }

    #[test]
    fn settings_mismatch_fails_the_diff() {
        let base = BenchReport::parse(&v2_report(&[ROW_A])).unwrap();
        let other = ROW_A.replace("\"measure_ms\": 300", "\"measure_ms\": 60");
        let cand = BenchReport::parse(&v2_report(&[&other])).unwrap();
        let d = diff(&base, &cand, &DiffOptions::default());
        assert!(!d.passed());
        assert_eq!(d.settings_mismatch, vec!["grp/a".to_string()]);
        assert!(d.render().contains("not comparable"), "{}", d.render());
    }

    #[test]
    fn missing_and_added_rows_warn_but_pass() {
        let row_b = ROW_A.replace("grp/a", "grp/b");
        let base = BenchReport::parse(&v2_report(&[ROW_A])).unwrap();
        let cand = BenchReport::parse(&v2_report(&[&row_b])).unwrap();
        let d = diff(&base, &cand, &DiffOptions::default());
        assert!(d.passed());
        assert_eq!(d.missing, vec!["grp/a".to_string()]);
        assert_eq!(d.added, vec!["grp/b".to_string()]);
    }

    #[test]
    fn committed_reports_parse() {
        // Guard against the parser drifting from the writer: any BENCH
        // file at the repo root must parse.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut seen = 0;
        for entry in std::fs::read_dir(root).unwrap().flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy().to_string();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(entry.path()).unwrap();
                let r = BenchReport::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(!r.rows.is_empty(), "{name} has no rows");
                seen += 1;
            }
        }
        assert!(seen >= 1, "no BENCH_*.json found at repo root");
    }
}
