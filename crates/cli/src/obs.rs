//! `poe obs` — offline tooling for flight-recorder dumps, OpenMetrics
//! exposition files, and bench-report regression diffs.
//!
//! Four actions, all file-based so they work on artifacts copied off a
//! crashed host:
//!
//! * `poe obs dump --file PATH [--kind K] [--request N]` — pretty-print a
//!   recorder JSONL dump (header summary + one aligned line per event),
//!   optionally filtered by event kind or request id.
//! * `poe obs tail --file PATH [--last N]` — the last `N` events (default
//!   20): the "what happened right before the crash" view.
//! * `poe obs check --file PATH` — run the OpenMetrics line-by-line
//!   validator ([`poe_obs::openmetrics::check`]) over an exposition file
//!   (e.g. a captured `METRICS openmetrics` payload) and report the
//!   family/sample counts, or the first violation.
//! * `poe obs diff BASELINE.json CANDIDATE.json [--rel R] [--abs-ns N]
//!   [--count-floor C]` — schema-aware bench-report comparison
//!   ([`poe_obs::report::diff`]); prints the per-metric table and fails
//!   (nonzero exit) on any regression — the CI perf gate.
//!
//! `--file` may name a *directory* (e.g. a server's `--recorder-dir`):
//! `dump`/`tail` pick the newest `poe-flight-*.jsonl` dump inside it,
//! `check` the newest file of any name.
//!
//! Every function returns the rendered report as a `String` so tests can
//! assert on output without capturing stdout; the binary prints it.

use crate::args::Args;
use poe_obs::report::{diff, BenchReport, DiffOptions};
use poe_obs::FlightEvent;
use std::path::{Path, PathBuf};

/// Runs one `poe obs <action>` invocation. `tokens` is everything after
/// the `obs` word on the command line.
pub fn run_obs(tokens: &[String]) -> Result<String, String> {
    // `diff` takes two positional paths, which the flag parser rejects by
    // design — route it before Args::parse.
    if tokens.first().map(String::as_str) == Some("diff") {
        return run_diff(&tokens[1..]);
    }
    let args = match Args::parse(tokens.to_vec()) {
        Ok(a) => a,
        Err(crate::args::ArgError::MissingCommand) => {
            return Err("poe obs needs an action: dump | tail | check | diff".into())
        }
        Err(e) => return Err(e.to_string()),
    };
    let file = args.require("file").map_err(|e| e.to_string())?;
    let file = resolve_input(Path::new(file), &args.command)?;
    match args.command.as_str() {
        "dump" => dump(
            &file,
            args.get("kind"),
            args.get_parsed("request", 0u64, "u64")
                .map_err(|e| e.to_string())?,
        ),
        "tail" => tail(
            &file,
            args.get_parsed("last", 20usize, "usize")
                .map_err(|e| e.to_string())?,
        ),
        "check" => check(&file),
        other => Err(format!(
            "unknown obs action `{other}` (want dump | tail | check | diff)"
        )),
    }
}

/// Resolves `--file`: a plain file passes through; a directory resolves
/// to its newest matching artifact (`poe-flight-*.jsonl` for
/// `dump`/`tail`, any file for `check`) so `--recorder-dir` post-mortems
/// don't require knowing the dump's timestamped name.
fn resolve_input(path: &Path, action: &str) -> Result<PathBuf, String> {
    if !path.is_dir() {
        return Ok(path.to_path_buf());
    }
    let wants_dump = matches!(action, "dump" | "tail");
    let mut newest: Option<(std::time::SystemTime, PathBuf)> = None;
    let entries = std::fs::read_dir(path)
        .map_err(|e| format!("cannot read directory {}: {e}", path.display()))?;
    for entry in entries.flatten() {
        let p = entry.path();
        if !p.is_file() {
            continue;
        }
        if wants_dump {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !(name.starts_with("poe-flight-") && name.ends_with(".jsonl")) {
                continue;
            }
        }
        let modified = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        // Ties (same mtime granularity) break toward the later name —
        // dump filenames carry a monotone counter.
        if newest
            .as_ref()
            .map(|(t, n)| (modified, &p) > (*t, n))
            .unwrap_or(true)
        {
            newest = Some((modified, p));
        }
    }
    newest.map(|(_, p)| p).ok_or_else(|| {
        format!(
            "no {} found in {}",
            if wants_dump {
                "poe-flight-*.jsonl dumps"
            } else {
                "files"
            },
            path.display()
        )
    })
}

/// `poe obs diff`: compare two bench reports; `Err` (nonzero exit) on
/// any regression or settings mismatch, with the table in the message.
fn run_diff(tokens: &[String]) -> Result<String, String> {
    let mut paths: Vec<&String> = Vec::new();
    let mut opts = DiffOptions::default();
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if let Some(flag) = t.strip_prefix("--") {
            let raw = tokens
                .get(i + 1)
                .ok_or_else(|| format!("--{flag} needs a value"))?;
            let value: f64 = raw
                .parse()
                .map_err(|_| format!("--{flag} wants a number, got `{raw}`"))?;
            match flag {
                "rel" => opts.rel = value,
                "abs-ns" => opts.abs_ns = value,
                "count-floor" => opts.count_floor = value,
                other => {
                    return Err(format!(
                        "unknown diff option --{other} (want --rel | --abs-ns | --count-floor)"
                    ))
                }
            }
            i += 2;
        } else {
            paths.push(t);
            i += 1;
        }
    }
    let [base_path, cand_path] = paths.as_slice() else {
        return Err(
            "poe obs diff needs exactly two reports: <baseline.json> <candidate.json>".into(),
        );
    };
    let load = |p: &str| -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        BenchReport::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let base = load(base_path)?;
    let cand = load(cand_path)?;
    let result = diff(&base, &cand, &opts);
    let table = format!(
        "baseline  {base_path}\ncandidate {cand_path}\n{}",
        result.render()
    );
    if result.passed() {
        Ok(table)
    } else {
        Err(table)
    }
}

/// Header fields of a recorder dump, scraped from its first JSONL line.
struct DumpHeader {
    unix_secs: u64,
    recorded: u64,
    dropped: u64,
    capacity: u64,
}

fn parse_header(line: &str) -> Option<DumpHeader> {
    if !line.contains("\"recorder\":\"poe-flight\"") {
        return None;
    }
    let field = |key: &str| -> Option<u64> {
        let pat = format!("\"{key}\":");
        let at = line.find(&pat)? + pat.len();
        let rest = &line[at..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    };
    Some(DumpHeader {
        unix_secs: field("unix_secs")?,
        recorded: field("recorded")?,
        dropped: field("dropped")?,
        capacity: field("capacity")?,
    })
}

/// Loads a recorder dump: `(header, events)`. The header is optional so
/// truncated files (crash mid-write) still yield their intact events.
fn load_dump(path: &Path) -> Result<(Option<DumpHeader>, Vec<FlightEvent>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let header = text.lines().next().and_then(parse_header);
    let events: Vec<FlightEvent> = text.lines().filter_map(FlightEvent::parse_jsonl).collect();
    if header.is_none() && events.is_empty() {
        return Err(format!(
            "{} is not a flight-recorder dump (no header, no events)",
            path.display()
        ));
    }
    Ok((header, events))
}

fn render_header(out: &mut String, path: &Path, h: &Option<DumpHeader>, shown: usize) {
    out.push_str(&format!("flight recorder dump {}\n", path.display()));
    if let Some(h) = h {
        out.push_str(&format!(
            "  dumped at unix {}; {} recorded, {} dropped, capacity {}\n",
            h.unix_secs, h.recorded, h.dropped, h.capacity
        ));
    } else {
        out.push_str("  (no header line — truncated dump?)\n");
    }
    out.push_str(&format!("  {shown} event(s) shown\n"));
}

fn render_events(out: &mut String, events: &[FlightEvent]) {
    for e in events {
        out.push_str(&format!(
            "  #{:<6} {:>10.3}s req={:<6} {:<16} {}\n",
            e.seq, e.at_secs, e.request_id, e.kind, e.detail
        ));
    }
}

/// `poe obs dump`: the whole file, optionally filtered by kind prefix
/// (`--kind request` matches `request.start`, `request.end` and
/// `request.panic`) and/or
/// request id (`--request 0` means "no filter").
pub fn dump(path: &Path, kind: Option<&str>, request: u64) -> Result<String, String> {
    let (header, mut events) = load_dump(path)?;
    if let Some(k) = kind {
        events.retain(|e| e.kind.starts_with(k));
    }
    if request != 0 {
        events.retain(|e| e.request_id == request);
    }
    let mut out = String::new();
    render_header(&mut out, path, &header, events.len());
    render_events(&mut out, &events);
    Ok(out)
}

/// `poe obs tail`: the last `n` events — the crash-adjacent view.
pub fn tail(path: &Path, n: usize) -> Result<String, String> {
    let (header, events) = load_dump(path)?;
    let tail = &events[events.len().saturating_sub(n.max(1))..];
    let mut out = String::new();
    render_header(&mut out, path, &header, tail.len());
    render_events(&mut out, tail);
    Ok(out)
}

/// `poe obs check`: validate an OpenMetrics exposition file.
pub fn check(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    match poe_obs::openmetrics::check(&text) {
        Ok(s) => Ok(format!(
            "{} OK: {} families, {} samples\n",
            path.display(),
            s.families,
            s.samples
        )),
        Err(e) => Err(format!("{} FAILED: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poe_obs::FlightRecorder;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn write_dump(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        let rec = FlightRecorder::with_capacity(16);
        rec.record_for(1, "request.start", "verb=QUERY");
        rec.record_for(1, "request.end", "verb=QUERY ok=1 ms=0.120");
        rec.record_for(2, "request.panic", "verb=PREDICT");
        rec.record_for(0, "worker.panic", "conn=4 contained=1");
        rec.dump_to_dir(&dir).unwrap()
    }

    #[test]
    fn dump_renders_header_and_events() {
        let path = write_dump("poe_obs_cmd_dump");
        let out = run_obs(&argv(&["dump", "--file", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("4 recorded, 0 dropped, capacity 16"), "{out}");
        assert!(out.contains("4 event(s) shown"), "{out}");
        assert!(out.contains("request.start"), "{out}");
        assert!(out.contains("worker.panic"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn dump_filters_by_kind_and_request() {
        let path = write_dump("poe_obs_cmd_filter");
        let file = path.to_str().unwrap();
        let by_kind = run_obs(&argv(&["dump", "--file", file, "--kind", "request"])).unwrap();
        assert!(by_kind.contains("3 event(s) shown"), "{by_kind}");
        assert!(!by_kind.contains("worker.panic"), "{by_kind}");
        let by_req = run_obs(&argv(&["dump", "--file", file, "--request", "1"])).unwrap();
        assert!(by_req.contains("2 event(s) shown"), "{by_req}");
        assert!(!by_req.contains("request.panic"), "{by_req}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn tail_shows_the_last_events() {
        let path = write_dump("poe_obs_cmd_tail");
        let out = run_obs(&argv(&[
            "tail",
            "--file",
            path.to_str().unwrap(),
            "--last",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("2 event(s) shown"), "{out}");
        assert!(out.contains("worker.panic"), "{out}");
        assert!(!out.contains("request.start"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn check_accepts_valid_and_rejects_broken_exposition() {
        let dir = std::env::temp_dir().join("poe_obs_cmd_check");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.om");
        let reg = poe_obs::Registry::new();
        reg.counter("x").add(3);
        std::fs::write(&good, reg.snapshot().to_openmetrics()).unwrap();
        let out = run_obs(&argv(&["check", "--file", good.to_str().unwrap()])).unwrap();
        assert!(out.contains("OK: 1 families, 1 samples"), "{out}");
        let bad = dir.join("bad.om");
        std::fs::write(&bad, "poe_x_total 1\n# EOF\n").unwrap();
        let err = run_obs(&argv(&["check", "--file", bad.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("FAILED"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_are_specific() {
        assert!(run_obs(&[]).unwrap_err().contains("dump | tail | check"));
        assert!(run_obs(&argv(&["frob", "--file", "x"]))
            .unwrap_err()
            .contains("unknown obs action"));
        assert!(run_obs(&argv(&["dump"])).unwrap_err().contains("--file"));
        assert!(run_obs(&argv(&["dump", "--file", "/nonexistent/x.jsonl"]))
            .unwrap_err()
            .contains("cannot read"));
    }

    #[test]
    fn dump_and_tail_accept_a_directory() {
        let dir = std::env::temp_dir().join("poe_obs_cmd_dirres");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // A decoy non-dump file plus two dumps; the newest dump wins.
        std::fs::write(dir.join("notes.txt"), "not a dump").unwrap();
        let rec = FlightRecorder::with_capacity(8);
        rec.record_for(1, "request.end", "verb=QUERY ok=1 ms=0.5");
        let first = rec.dump_to_dir(&dir).unwrap();
        rec.record_for(2, "request.end", "verb=PREDICT ok=1 ms=0.7");
        let second = rec.dump_to_dir(&dir).unwrap();
        assert_ne!(first, second);
        let out = run_obs(&argv(&["dump", "--file", dir.to_str().unwrap()])).unwrap();
        assert!(
            out.contains(&second.file_name().unwrap().to_string_lossy().to_string()),
            "{out}"
        );
        assert!(out.contains("2 event(s) shown"), "{out}");
        let tail = run_obs(&argv(&[
            "tail",
            "--file",
            dir.to_str().unwrap(),
            "--last",
            "1",
        ]))
        .unwrap();
        assert!(tail.contains("1 event(s) shown"), "{tail}");
        // An empty directory is a specific error, not a panic.
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = run_obs(&argv(&["dump", "--file", empty.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("no poe-flight-*.jsonl dumps"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_accepts_a_directory() {
        let dir = std::env::temp_dir().join("poe_obs_cmd_dircheck");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let reg = poe_obs::Registry::new();
        reg.counter("x").add(1);
        std::fs::write(dir.join("metrics.om"), reg.snapshot().to_openmetrics()).unwrap();
        let out = run_obs(&argv(&["check", "--file", dir.to_str().unwrap()])).unwrap();
        assert!(out.contains("OK: 1 families"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn write_loadgen_report(path: &Path, p99: f64, errors: u64) {
        let text = format!(
            "{{\n  \"report\": \"poe-bench\",\n  \"version\": 2,\n  \"benches\": [\n    {{\"name\": \"loadgen/steady\", \"iters\": 100, \"mean_ns\": 1000.0, \"samples_per_sec\": 5000.0, \"p50_ns\": 900.0, \"p95_ns\": 1500.0, \"p99_ns\": {p99:.1}, \"errors\": {errors}, \"shed\": 0, \"partial\": 0, \"slo_pass\": 1, \"warmup_ms\": 0, \"measure_ms\": 2000}}\n  ]\n}}\n"
        );
        std::fs::write(path, text).unwrap();
    }

    #[test]
    fn diff_passes_self_and_fails_injected_regression() {
        let dir = std::env::temp_dir().join("poe_obs_cmd_diff");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        write_loadgen_report(&base, 2000.0, 0);
        let b = base.to_str().unwrap();
        // Self vs self: exit zero (Ok), table says OK.
        let out = run_obs(&argv(&["diff", b, b])).unwrap();
        assert!(out.contains("diff: OK"), "{out}");
        // Injected p99 regression (past both rel and abs floors): Err.
        let worse = dir.join("worse.json");
        write_loadgen_report(&worse, 2_000_000.0, 0);
        let err = run_obs(&argv(&["diff", b, worse.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("REGRESSION"), "{err}");
        assert!(err.contains("p99_ns"), "{err}");
        // Injected error-count regression.
        let errs = dir.join("errs.json");
        write_loadgen_report(&errs, 2000.0, 7);
        let err = run_obs(&argv(&["diff", b, errs.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("errors"), "{err}");
        // A loose count floor forgives it.
        let ok = run_obs(&argv(&[
            "diff",
            b,
            errs.to_str().unwrap(),
            "--count-floor",
            "10",
        ]))
        .unwrap();
        assert!(ok.contains("diff: OK"), "{ok}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_argument_errors_are_specific() {
        assert!(run_obs(&argv(&["diff"]))
            .unwrap_err()
            .contains("exactly two reports"));
        assert!(run_obs(&argv(&["diff", "a.json"]))
            .unwrap_err()
            .contains("exactly two reports"));
        assert!(run_obs(&argv(&["diff", "a", "b", "--rel"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(run_obs(&argv(&["diff", "a", "b", "--rel", "x"]))
            .unwrap_err()
            .contains("wants a number"));
        assert!(run_obs(&argv(&["diff", "a", "b", "--frob", "1"]))
            .unwrap_err()
            .contains("unknown diff option"));
        assert!(run_obs(&argv(&[
            "diff",
            "/nonexistent/a.json",
            "/nonexistent/b.json"
        ]))
        .unwrap_err()
        .contains("cannot read"));
    }
}
