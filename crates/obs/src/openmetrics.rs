//! OpenMetrics/Prometheus text exposition and a line-by-line self-check.
//!
//! [`MetricsSnapshot::to_openmetrics`] renders a merged snapshot in the
//! [OpenMetrics text format]: counters as `<name>_total`, gauges as plain
//! samples, histograms as explicit-bound `<name>_bucket{le="..."}` series
//! with `_sum`/`_count`, terminated by `# EOF`. Instrument names are
//! dotted paths internally (`service.assembly_secs`); exposition prefixes
//! `poe_` and maps every non-`[a-zA-Z0-9_:]` character to `_`.
//!
//! Histograms named with a `.size` suffix hold count-valued measurements
//! (batch sizes, queue depths), so their `le` bounds and `_sum` are raw
//! counts; everything else is seconds.
//!
//! [`MetricsSnapshot::to_openmetrics_with_exemplars`] additionally
//! annotates histogram bucket lines with [`Exemplar`]s —
//! `… # {request_id="…"} <value> <timestamp>` — so a bad percentile on a
//! dashboard links straight to a traceable request id in the flight
//! recorder.
//!
//! [`check`] validates text in that format line by line — name charset,
//! metadata-before-samples, bucket monotonicity (both in `le` and in
//! cumulative count), `_count` = `+Inf` bucket, `_sum` present, label
//! escaping, exemplar syntax and placement, a single trailing `# EOF`.
//! The `poe obs check` subcommand and the exposition tests share it, so
//! the emitter can never drift from the checker silently.
//!
//! [OpenMetrics text format]: https://github.com/OpenObservability/OpenMetrics

use crate::histogram::{bucket_upper_secs, LatencyHistogram, NUM_BUCKETS};
use crate::registry::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One OpenMetrics exemplar: a label set (conventionally carrying a
/// `request_id`), the observed value, and an optional Unix timestamp in
/// fractional seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// Exemplar labels, rendered in order (`request_id="42"`).
    pub labels: Vec<(String, String)>,
    /// The exemplified observation, in the histogram's native unit.
    pub value: f64,
    /// Unix timestamp of the observation (fractional seconds).
    pub timestamp: Option<f64>,
}

/// Exemplars keyed by *instrument* name (the dotted registry name, not
/// the exposition family), then by histogram bucket index. The top bucket
/// (`NUM_BUCKETS - 1`, open-ended) renders on the `+Inf` line.
pub type ExemplarMap = BTreeMap<String, BTreeMap<usize, Exemplar>>;

/// Escapes a label value per the OpenMetrics text rules
/// (`\` → `\\`, `"` → `\"`, newline → `\n`).
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_exemplar(ex: &Exemplar) -> String {
    let labels: Vec<String> = ex
        .labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    let mut out = format!(" # {{{}}} {}", labels.join(","), ex.value);
    if let Some(ts) = ex.timestamp {
        let _ = write!(out, " {ts:.3}");
    }
    out
}

/// Maps a dotted instrument name to an exposition family name:
/// `service.assembly_secs` → `poe_service_assembly_secs`.
pub fn family_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("poe_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn push_histogram(
    out: &mut String,
    family: &str,
    h: &LatencyHistogram,
    size_valued: bool,
    exemplars: Option<&BTreeMap<usize, Exemplar>>,
) {
    let _ = writeln!(out, "# TYPE {family} histogram");
    let exemplar_at = |b: usize| -> String {
        exemplars
            .and_then(|m| m.get(&b))
            .map(render_exemplar)
            .unwrap_or_default()
    };
    let mut cumulative = 0u64;
    for (b, &n) in h.buckets().iter().enumerate() {
        cumulative += n;
        // The top bucket is open-ended: its exemplar may exceed the
        // nominal 2^b bound, so it rides on the `+Inf` line instead.
        let ex = if b + 1 < NUM_BUCKETS {
            exemplar_at(b)
        } else {
            String::new()
        };
        if size_valued {
            let _ = writeln!(
                out,
                "{family}_bucket{{le=\"{}\"}} {cumulative}{ex}",
                1u64 << b
            );
        } else {
            let _ = writeln!(
                out,
                "{family}_bucket{{le=\"{}\"}} {cumulative}{ex}",
                bucket_upper_secs(b)
            );
        }
    }
    let _ = writeln!(
        out,
        "{family}_bucket{{le=\"+Inf\"}} {}{}",
        h.count(),
        exemplar_at(NUM_BUCKETS - 1)
    );
    if size_valued {
        let _ = writeln!(out, "{family}_sum {}", h.sum_n());
    } else {
        let _ = writeln!(out, "{family}_sum {}", h.sum_secs());
    }
    let _ = writeln!(out, "{family}_count {}", h.count());
}

impl MetricsSnapshot {
    /// Renders the snapshot as OpenMetrics text (ends with `# EOF` and a
    /// trailing newline). Guaranteed to pass [`check`].
    pub fn to_openmetrics(&self) -> String {
        self.to_openmetrics_with_exemplars(&ExemplarMap::new())
    }

    /// Renders the snapshot as OpenMetrics text with [`Exemplar`]
    /// annotations on the named histograms' bucket lines. Keys of
    /// `exemplars` are dotted instrument names; inner keys are bucket
    /// indices (see [`crate::bucket_of_secs`]). Guaranteed to pass
    /// [`check`] as long as each exemplar's value lands in its bucket.
    pub fn to_openmetrics_with_exemplars(&self, exemplars: &ExemplarMap) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let family = family_name(name);
            let _ = writeln!(out, "# TYPE {family} counter");
            let _ = writeln!(out, "{family}_total {v}");
        }
        for (name, v) in &self.gauges {
            let family = family_name(name);
            let _ = writeln!(out, "# TYPE {family} gauge");
            let _ = writeln!(out, "{family} {v}");
        }
        for (name, h) in &self.histograms {
            push_histogram(
                &mut out,
                &family_name(name),
                h,
                name.ends_with(".size"),
                exemplars.get(name),
            );
        }
        out.push_str("# EOF\n");
        out
    }
}

/// What [`check`] verified: how many metric families and samples the text
/// exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckSummary {
    /// Families declared with `# TYPE`.
    pub families: usize,
    /// Sample lines validated.
    pub samples: usize,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[derive(Default)]
struct HistogramState {
    last_le: Option<f64>,
    last_cumulative: Option<f64>,
    inf_bucket: Option<f64>,
    sum: Option<f64>,
    count: Option<f64>,
}

/// Parses an OpenMetrics label body (the text between `{` and `}`) into
/// `(name, value)` pairs, honoring `\\`, `\"`, and `\n` escapes.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, &'static str> {
    let mut out = Vec::new();
    let mut chars = body.chars().peekable();
    while chars.peek().is_some() {
        let mut name = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            name.push(c);
            chars.next();
        }
        if chars.next() != Some('=') {
            return Err("label without `=`");
        }
        if !valid_name(&name) {
            return Err("invalid label name");
        }
        if chars.next() != Some('"') {
            return Err("label value must be quoted");
        }
        let mut value = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    closed = true;
                    break;
                }
                '\\' => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    _ => return Err("bad escape in label value"),
                },
                c => value.push(c),
            }
        }
        if !closed {
            return Err("unterminated label value");
        }
        out.push((name, value));
        match chars.next() {
            None => break,
            Some(',') => continue,
            Some(_) => return Err("expected `,` between labels"),
        }
    }
    Ok(out)
}

/// Splits a label block: `s` starts just past `{`; returns
/// `(body, rest-after-closing-brace)`, honoring quotes and escapes so a
/// `}` inside a label value does not terminate the block.
fn split_label_block(s: &str) -> Result<(&str, &str), &'static str> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Ok((&s[..i], &s[i + 1..])),
            _ => {}
        }
    }
    Err("unterminated label set")
}

fn parse_number(tok: &str) -> Option<f64> {
    match tok {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        t => t.parse().ok(),
    }
}

struct ParsedExemplar {
    value: f64,
}

struct ParsedSample<'a> {
    name: &'a str,
    labels: Vec<(String, String)>,
    value: f64,
    exemplar: Option<ParsedExemplar>,
}

/// Parses `name[{labels}] value [# {exemplar-labels} value [timestamp]]`.
fn parse_sample(line: &str) -> Result<ParsedSample<'_>, &'static str> {
    let (name, rest) = match line.find(['{', ' ']) {
        Some(i) => (&line[..i], &line[i..]),
        None => return Err("sample line without a value"),
    };
    let (labels, rest) = if let Some(r) = rest.strip_prefix('{') {
        let (body, after) = split_label_block(r)?;
        (parse_labels(body)?, after)
    } else {
        (Vec::new(), rest)
    };
    let rest = rest.strip_prefix(' ').ok_or("missing space before value")?;
    let (value_part, exemplar_part) = match rest.split_once(" # ") {
        Some((v, e)) => (v, Some(e)),
        None => (rest, None),
    };
    let mut toks = value_part.split(' ').filter(|t| !t.is_empty());
    let value = parse_number(toks.next().ok_or("sample line without a value")?)
        .ok_or("unparseable sample value")?;
    if let Some(ts) = toks.next() {
        // An optional sample timestamp (we never emit one, but accept it).
        parse_number(ts).ok_or("unparseable sample timestamp")?;
    }
    if toks.next().is_some() {
        return Err("trailing tokens after sample value");
    }
    let exemplar = match exemplar_part {
        None => None,
        Some(e) => Some(parse_exemplar(e)?),
    };
    Ok(ParsedSample {
        name,
        labels,
        value,
        exemplar,
    })
}

fn parse_exemplar(s: &str) -> Result<ParsedExemplar, &'static str> {
    let r = s
        .strip_prefix('{')
        .ok_or("exemplar must start with a label set")?;
    let (body, after) = split_label_block(r)?;
    parse_labels(body)?;
    let mut toks = after.split(' ').filter(|t| !t.is_empty());
    let value = parse_number(toks.next().ok_or("exemplar without a value")?)
        .ok_or("unparseable exemplar value")?;
    if let Some(ts) = toks.next() {
        parse_number(ts).ok_or("unparseable exemplar timestamp")?;
    }
    if toks.next().is_some() {
        return Err("trailing tokens after exemplar");
    }
    Ok(ParsedExemplar { value })
}

/// Validates OpenMetrics text line by line. Returns a summary on success,
/// or `Err` naming the first offending line and why.
pub fn check(text: &str) -> Result<CheckSummary, String> {
    let mut families: BTreeMap<String, String> = BTreeMap::new();
    let mut sample_counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut hist_states: BTreeMap<String, HistogramState> = BTreeMap::new();
    let mut samples = 0usize;
    let mut saw_eof = false;
    let fail =
        |lineno: usize, line: &str, why: &str| Err(format!("line {lineno}: {why}: `{line}`"));
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if saw_eof {
            return fail(lineno, line, "content after # EOF");
        }
        if line.is_empty() {
            return fail(lineno, line, "blank line");
        }
        if line == "# EOF" {
            saw_eof = true;
            continue;
        }
        if let Some(meta) = line.strip_prefix("# ") {
            let mut parts = meta.split_whitespace();
            match parts.next() {
                Some("TYPE") => {
                    let (name, ty) = match (parts.next(), parts.next(), parts.next()) {
                        (Some(name), Some(ty), None) => (name, ty),
                        _ => return fail(lineno, line, "malformed # TYPE"),
                    };
                    if !valid_name(name) {
                        return fail(lineno, line, "invalid family name");
                    }
                    if !matches!(ty, "counter" | "gauge" | "histogram") {
                        return fail(lineno, line, "unknown family type");
                    }
                    if families.insert(name.to_string(), ty.to_string()).is_some() {
                        return fail(lineno, line, "duplicate # TYPE for family");
                    }
                }
                Some("HELP") | Some("UNIT") => {}
                _ => return fail(lineno, line, "unknown comment directive"),
            }
            continue;
        }
        // Sample line: name[{labels}] value [# {exemplar} value [ts]]
        let sample = match parse_sample(line) {
            Ok(s) => s,
            Err(why) => return fail(lineno, line, why),
        };
        let ParsedSample {
            name,
            labels,
            value,
            exemplar,
        } = sample;
        if !valid_name(name) {
            return fail(lineno, line, "invalid sample name");
        }
        // Resolve the family this sample belongs to.
        let resolved = if let Some(base) = name.strip_suffix("_total") {
            families.get(base).filter(|t| *t == "counter").map(|_| base)
        } else if let Some(base) = name.strip_suffix("_bucket") {
            families
                .get(base)
                .filter(|t| *t == "histogram")
                .map(|_| base)
        } else if let Some(base) = name.strip_suffix("_sum") {
            families
                .get(base)
                .filter(|t| *t == "histogram")
                .map(|_| base)
        } else if let Some(base) = name.strip_suffix("_count") {
            families
                .get(base)
                .filter(|t| *t == "histogram")
                .map(|_| base)
        } else {
            families.get(name).filter(|t| *t == "gauge").map(|_| name)
        };
        let family = match resolved {
            Some(f) => f.to_string(),
            None => return fail(lineno, line, "sample without a matching # TYPE family"),
        };
        if families[&family] == "counter" && value < 0.0 {
            return fail(lineno, line, "negative counter");
        }
        // Exemplars are only legal on counter `_total` and histogram
        // `_bucket` samples, and a bucket exemplar's value must fit under
        // the bucket's `le` bound.
        if exemplar.is_some() && !(name.ends_with("_total") || name.ends_with("_bucket")) {
            return fail(lineno, line, "exemplar on a non-bucket, non-counter sample");
        }
        if name.ends_with("_bucket") {
            let le = match labels.iter().find(|(k, _)| k == "le") {
                Some((_, v)) => match parse_number(v) {
                    Some(le) => le,
                    None => return fail(lineno, line, "unparseable le bound"),
                },
                None => return fail(lineno, line, "histogram bucket without le label"),
            };
            if let Some(ex) = &exemplar {
                // Tiny epsilon slack: bounds render through f64 formatting.
                if le.is_finite() && ex.value > le * (1.0 + 1e-9) + 1e-12 {
                    return fail(lineno, line, "exemplar value exceeds bucket le bound");
                }
            }
            let st = hist_states.entry(family.clone()).or_default();
            if let Some(prev) = st.last_le {
                if le <= prev {
                    return fail(lineno, line, "le bounds must be strictly increasing");
                }
            }
            if let Some(prev) = st.last_cumulative {
                if value < prev {
                    return fail(lineno, line, "bucket counts must be cumulative");
                }
            }
            st.last_le = Some(le);
            st.last_cumulative = Some(value);
            if le.is_infinite() {
                st.inf_bucket = Some(value);
            }
        } else if name.ends_with("_sum") && families[&family] == "histogram" {
            hist_states.entry(family.clone()).or_default().sum = Some(value);
        } else if name.ends_with("_count") && families[&family] == "histogram" {
            hist_states.entry(family.clone()).or_default().count = Some(value);
        }
        *sample_counts.entry(family).or_insert(0) += 1;
        samples += 1;
    }
    if !saw_eof {
        return Err("missing trailing # EOF".to_string());
    }
    for (family, ty) in &families {
        if sample_counts.get(family).copied().unwrap_or(0) == 0 {
            return Err(format!("family `{family}` declared but has no samples"));
        }
        if ty == "histogram" {
            let st = hist_states
                .get(family)
                .ok_or_else(|| format!("histogram `{family}` has no buckets"))?;
            let inf = st
                .inf_bucket
                .ok_or_else(|| format!("histogram `{family}` is missing le=\"+Inf\""))?;
            let count = st
                .count
                .ok_or_else(|| format!("histogram `{family}` is missing _count"))?;
            if st.sum.is_none() {
                return Err(format!("histogram `{family}` is missing _sum"));
            }
            if (inf - count).abs() > f64::EPSILON {
                return Err(format!(
                    "histogram `{family}`: _count {count} != le=\"+Inf\" bucket {inf}"
                ));
            }
        }
    }
    Ok(CheckSummary {
        families: families.len(),
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Registry, NUM_BUCKETS};

    fn populated_snapshot() -> MetricsSnapshot {
        let r = Registry::new();
        r.counter("service.queries_served").add(7);
        r.counter("serve.shed").add(0);
        r.gauge("service.cache.entries").set(3.0);
        r.histogram("service.assembly_secs").record(2e-3);
        r.histogram("service.assembly_secs").record(17e-6);
        r.histogram("service.batch.size").record_n(32);
        r.histogram("empty_hist"); // registered, never recorded
        r.snapshot()
    }

    #[test]
    fn exposition_passes_its_own_check() {
        let text = populated_snapshot().to_openmetrics();
        let summary = check(&text).unwrap();
        assert_eq!(summary.families, 6);
        assert!(summary.samples > 6 * 3, "histograms expand to many samples");
        assert!(text.ends_with("# EOF\n"), "{text}");
    }

    #[test]
    fn families_render_with_prefix_and_suffixes() {
        let text = populated_snapshot().to_openmetrics();
        assert!(text.contains("# TYPE poe_service_queries_served counter\n"));
        assert!(text.contains("poe_service_queries_served_total 7\n"));
        assert!(text.contains("# TYPE poe_service_cache_entries gauge\n"));
        assert!(text.contains("poe_service_cache_entries 3\n"));
        assert!(text.contains("# TYPE poe_service_assembly_secs histogram\n"));
        assert!(text.contains("poe_service_assembly_secs_count 2\n"));
        assert!(text.contains("poe_service_assembly_secs_bucket{le=\"+Inf\"} 2\n"));
        // Size-valued histograms expose raw-count bounds and sums.
        assert!(
            text.contains("poe_service_batch_size_bucket{le=\"64\"}"),
            "{text}"
        );
        assert!(text.contains("poe_service_batch_size_sum 32\n"), "{text}");
    }

    #[test]
    fn empty_histograms_still_expose_complete_series() {
        let r = Registry::new();
        r.histogram("quiet_secs");
        let text = r.snapshot().to_openmetrics();
        assert!(text.contains("poe_quiet_secs_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("poe_quiet_secs_sum 0\n"));
        assert!(text.contains("poe_quiet_secs_count 0\n"));
        check(&text).unwrap();
    }

    #[test]
    fn latency_bucket_bounds_are_unique_and_increasing() {
        let r = Registry::new();
        r.histogram("h").record(1e-6);
        let text = r.snapshot().to_openmetrics();
        let les: Vec<&str> = text
            .lines()
            .filter_map(|l| l.split("le=\"").nth(1))
            .filter_map(|l| l.split('"').next())
            .collect();
        assert_eq!(les.len(), NUM_BUCKETS + 1);
        let mut prev = -1.0f64;
        for le in &les[..NUM_BUCKETS] {
            let v: f64 = le.parse().expect(le);
            assert!(v > prev, "le {le} not increasing");
            prev = v;
        }
        assert_eq!(les[NUM_BUCKETS], "+Inf");
    }

    #[test]
    fn check_rejects_malformed_text() {
        let cases: &[(&str, &str)] = &[
            ("poe_x_total 1\n# EOF\n", "matching # TYPE"),
            (
                "# TYPE poe_x counter\npoe_x_total 1\n",
                "missing trailing # EOF",
            ),
            (
                "# TYPE poe_x counter\npoe_x_total nope\n# EOF\n",
                "unparseable",
            ),
            (
                "# TYPE poe_x counter\npoe_x_total -1\n# EOF\n",
                "negative counter",
            ),
            (
                "# TYPE poe_x counter\n# TYPE poe_x counter\npoe_x_total 1\n# EOF\n",
                "duplicate",
            ),
            (
                "# TYPE poe_x counter\npoe_x_total 1\n# EOF\nleftover 2\n",
                "after # EOF",
            ),
            ("# TYPE poe_x counter\n# EOF\n", "no samples"),
            (
                "# TYPE 9bad counter\n9bad_total 1\n# EOF\n",
                "invalid family name",
            ),
        ];
        for (text, expect) in cases {
            let err = check(text).unwrap_err();
            assert!(err.contains(expect), "case `{text:?}` gave `{err}`");
        }
    }

    #[test]
    fn check_rejects_broken_histograms() {
        let head = "# TYPE poe_h histogram\n";
        let cases: &[(&str, &str)] = &[
            (
                "poe_h_bucket{le=\"1\"} 2\npoe_h_bucket{le=\"2\"} 1\n\
                 poe_h_bucket{le=\"+Inf\"} 2\npoe_h_sum 1\npoe_h_count 2\n# EOF\n",
                "cumulative",
            ),
            (
                "poe_h_bucket{le=\"2\"} 1\npoe_h_bucket{le=\"1\"} 2\n\
                 poe_h_bucket{le=\"+Inf\"} 2\npoe_h_sum 1\npoe_h_count 2\n# EOF\n",
                "strictly increasing",
            ),
            (
                "poe_h_bucket{le=\"1\"} 1\npoe_h_sum 1\npoe_h_count 1\n# EOF\n",
                "+Inf",
            ),
            (
                "poe_h_bucket{le=\"+Inf\"} 2\npoe_h_sum 1\npoe_h_count 3\n# EOF\n",
                "!=",
            ),
            (
                "poe_h_bucket{le=\"+Inf\"} 1\npoe_h_count 1\n# EOF\n",
                "_sum",
            ),
            (
                "poe_h_bucket 1\npoe_h_sum 1\npoe_h_count 1\n# EOF\n",
                "le label",
            ),
        ];
        for (body, expect) in cases {
            let text = format!("{head}{body}");
            let err = check(&text).unwrap_err();
            assert!(err.contains(expect), "case `{body:?}` gave `{err}`");
        }
    }

    #[test]
    fn exemplar_annotated_exposition_passes_check() {
        let r = Registry::new();
        let h = r.histogram("serve.request_secs");
        h.record(3e-3);
        h.record(250e-6);
        let mut exemplars = ExemplarMap::new();
        let mut per_bucket = BTreeMap::new();
        per_bucket.insert(
            crate::bucket_of_secs(3e-3),
            Exemplar {
                labels: vec![("request_id".into(), "42".into())],
                value: 3e-3,
                timestamp: Some(1_700_000_000.25),
            },
        );
        exemplars.insert("serve.request_secs".into(), per_bucket);
        let text = r.snapshot().to_openmetrics_with_exemplars(&exemplars);
        assert!(
            text.contains("# {request_id=\"42\"} 0.003 1700000000.250"),
            "{text}"
        );
        check(&text).unwrap();
    }

    #[test]
    fn top_bucket_exemplar_rides_the_inf_line() {
        let r = Registry::new();
        // ~4.3 s: beyond the nominal top-bucket bound of ~2.1 s.
        r.histogram("slow_secs").record(4.3);
        let mut exemplars = ExemplarMap::new();
        let mut per_bucket = BTreeMap::new();
        per_bucket.insert(
            NUM_BUCKETS - 1,
            Exemplar {
                labels: vec![("request_id".into(), "7".into())],
                value: 4.3,
                timestamp: None,
            },
        );
        exemplars.insert("slow_secs".into(), per_bucket);
        let text = r.snapshot().to_openmetrics_with_exemplars(&exemplars);
        let inf_line = text
            .lines()
            .find(|l| l.contains("le=\"+Inf\""))
            .expect("+Inf line");
        assert!(inf_line.contains("# {request_id=\"7\"} 4.3"), "{inf_line}");
        check(&text).unwrap();
    }

    #[test]
    fn check_rejects_bad_exemplars() {
        let head = "# TYPE poe_h histogram\n";
        let tail = "poe_h_bucket{le=\"+Inf\"} 1\npoe_h_sum 1\npoe_h_count 1\n# EOF\n";
        let cases: &[(&str, &str)] = &[
            // Exemplar value above the bucket's le bound.
            (
                "poe_h_bucket{le=\"0.5\"} 1 # {request_id=\"1\"} 0.9\n",
                "exceeds bucket le bound",
            ),
            // Exemplar without a label set.
            (
                "poe_h_bucket{le=\"0.5\"} 1 # 0.1\n",
                "exemplar must start with a label set",
            ),
            // Exemplar with labels but no value.
            (
                "poe_h_bucket{le=\"0.5\"} 1 # {request_id=\"1\"}\n",
                "exemplar without a value",
            ),
            // Trailing garbage after the exemplar timestamp.
            (
                "poe_h_bucket{le=\"0.5\"} 1 # {request_id=\"1\"} 0.1 1.0 extra\n",
                "trailing tokens after exemplar",
            ),
            // Unterminated exemplar label value.
            (
                "poe_h_bucket{le=\"0.5\"} 1 # {request_id=\"1} 0.1\n",
                "unterminated",
            ),
        ];
        for (bucket_line, expect) in cases {
            let text = format!("{head}{bucket_line}{tail}");
            let err = check(&text).unwrap_err();
            assert!(err.contains(expect), "case `{bucket_line:?}` gave `{err}`");
        }
        // Exemplars are rejected on gauges and histogram _sum/_count.
        let gauge = "# TYPE poe_g gauge\npoe_g 1 # {request_id=\"1\"} 1\n# EOF\n";
        let err = check(gauge).unwrap_err();
        assert!(err.contains("non-bucket, non-counter"), "{err}");
        let sum = format!("{head}poe_h_bucket{{le=\"+Inf\"}} 1\npoe_h_sum 1 # {{r=\"1\"}} 1\npoe_h_count 1\n# EOF\n");
        let err = check(&sum).unwrap_err();
        assert!(err.contains("non-bucket, non-counter"), "{err}");
        // ...but accepted on counter _total lines.
        let counter = "# TYPE poe_c counter\npoe_c_total 3 # {request_id=\"9\"} 1\n# EOF\n";
        check(counter).unwrap();
    }

    #[test]
    fn check_honors_escaped_label_values() {
        // A `}` and an escaped quote inside a label value must not end the
        // label block early.
        let text = "# TYPE poe_h histogram\n\
                    poe_h_bucket{le=\"+Inf\"} 1 # {path=\"a\\\\b\\\"}{\\n\"} 0.5\n\
                    poe_h_sum 1\npoe_h_count 1\n# EOF\n";
        check(text).unwrap();
        // An unknown escape is rejected.
        let bad = "# TYPE poe_h histogram\n\
                   poe_h_bucket{le=\"+Inf\"} 1 # {path=\"a\\qb\"} 0.5\n\
                   poe_h_sum 1\npoe_h_count 1\n# EOF\n";
        let err = check(bad).unwrap_err();
        assert!(err.contains("bad escape"), "{err}");
    }

    #[test]
    fn escape_and_parse_label_values_round_trip() {
        for v in ["plain", "a\\b", "quote\"inside", "line\nbreak", "}{,=\""] {
            let body = format!("k=\"{}\"", escape_label_value(v));
            let parsed = parse_labels(&body).expect(v);
            assert_eq!(parsed, vec![("k".to_string(), v.to_string())]);
        }
    }

    /// Seeded splitmix64 — poe-obs has no deps, so the fuzz test brings
    /// its own tiny PRNG.
    struct SplitMix(u64);
    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn fuzzed_registries_always_pass_check() {
        let mut rng = SplitMix(0xC0FFEE);
        for round in 0..50 {
            let r = Registry::new();
            let mut exemplars = ExemplarMap::new();
            for i in 0..rng.below(8) {
                match rng.below(3) {
                    0 => r.counter(&format!("fuzz.c{i}")).add(rng.below(1000)),
                    1 => r
                        .gauge(&format!("fuzz.g{i}"))
                        .set(rng.below(1000) as f64 - 500.0),
                    _ => {
                        let suffix = if rng.below(2) == 0 { "_secs" } else { ".size" };
                        let name = format!("fuzz.h{i}{suffix}");
                        let h = r.histogram(&name);
                        let mut per_bucket = BTreeMap::new();
                        for _ in 0..rng.below(20) {
                            let secs = rng.below(1_000_000_000) as f64 * 1e-9;
                            if suffix == ".size" {
                                h.record_n((secs * 1e9) as u64);
                            } else {
                                h.record(secs);
                            }
                            // Size-valued histograms render raw-count
                            // bounds, so only exemplify the seconds ones.
                            if suffix == "_secs" && rng.below(3) == 0 {
                                per_bucket.insert(
                                    crate::bucket_of_secs(secs),
                                    Exemplar {
                                        labels: vec![(
                                            "request_id".into(),
                                            format!("{}", rng.below(1 << 32)),
                                        )],
                                        value: secs,
                                        timestamp: if rng.below(2) == 0 {
                                            Some(1.7e9 + rng.below(1000) as f64)
                                        } else {
                                            None
                                        },
                                    },
                                );
                            }
                        }
                        if !per_bucket.is_empty() {
                            exemplars.insert(name, per_bucket);
                        }
                    }
                }
            }
            let text = r.snapshot().to_openmetrics_with_exemplars(&exemplars);
            if let Err(e) = check(&text) {
                panic!("round {round}: {e}\n---\n{text}");
            }
        }
    }

    #[test]
    fn family_name_sanitizes() {
        assert_eq!(
            family_name("service.assembly_secs"),
            "poe_service_assembly_secs"
        );
        assert_eq!(family_name("a-b c"), "poe_a_b_c");
    }
}
