//! The flight recorder: an always-on black box for post-mortems.
//!
//! A [`FlightRecorder`] is a bounded ring buffer of structured
//! [`FlightEvent`]s — request starts/ends, batch flushes, cache activity,
//! sheds, worker panics, chaos injections, store transitions. Unlike
//! tracing (opt-in, span-shaped) the recorder is **on by default** and
//! records discrete *events*, so when a server crashes or degrades the
//! last few thousand things it did are reconstructable from a JSONL dump
//! without having had foresight to enable anything.
//!
//! Recording is lock-light: the event is built outside the lock, then a
//! single mutex push appends it; eviction happens under the same lock, so
//! `recorded == len + dropped` holds exactly at quiescence and events are
//! never torn (a snapshot sees whole events in `seq` order). A disabled
//! recorder costs one atomic load per call site.
//!
//! Most components share the process-wide [`FlightRecorder::global`]
//! ring — one process, one black box — which is what
//! [`crate::Observability::default`] hands out. Tests that assert exact
//! event counts construct a private recorder with
//! [`FlightRecorder::with_capacity`].
//!
//! Dumps are JSONL: a header object (schema, dump time, totals) followed
//! by one object per event, oldest first. [`FlightEvent::parse_jsonl`]
//! round-trips the event lines so `poe obs dump|tail` and tests can read
//! files back without a JSON dependency.

use crate::json::{fmt_f64, json_escape};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Default ring capacity (events retained). At serving rates of ~10k
/// requests/s with two events per request this holds the last ~200 ms of
/// history; size up with `--recorder-events` for longer post-mortems.
pub const DEFAULT_RECORDER_EVENTS: usize = 4096;

/// One structured flight-recorder event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// 1-based sequence number, monotone across the recorder's life (the
    /// ring may have evicted earlier sequence numbers).
    pub seq: u64,
    /// Seconds since the recorder was created.
    pub at_secs: f64,
    /// The request this event belongs to (0 = outside any request). IDs
    /// come from the process-wide [`crate::next_request_id`] atomic, so
    /// they never alias across worker threads and match trace events.
    pub request_id: u64,
    /// Event kind, dotted lowercase (`request.start`, `request.panic`,
    /// `worker.panic`, `chaos.inject`, ...).
    pub kind: String,
    /// Free-form `key=value` detail (cause, sizes, verb, task set).
    pub detail: String,
}

impl FlightEvent {
    /// Renders the event as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"seq\":{},\"at_secs\":{},\"request_id\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
            self.seq,
            fmt_f64(self.at_secs),
            self.request_id,
            json_escape(&self.kind),
            json_escape(&self.detail),
        )
    }

    /// Parses a line produced by [`Self::to_jsonl`]. Returns `None` for
    /// blank lines, dump headers, or anything else that is not an event.
    pub fn parse_jsonl(line: &str) -> Option<FlightEvent> {
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return None;
        }
        Some(FlightEvent {
            seq: field_u64(line, "seq")?,
            at_secs: field_f64(line, "at_secs")?,
            request_id: field_u64(line, "request_id")?,
            kind: field_str(line, "kind")?,
            detail: field_str(line, "detail")?,
        })
    }
}

fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    Some(&line[start..])
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = field_raw(line, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_f64(line: &str, key: &str) -> Option<f64> {
    let rest = field_raw(line, key)?;
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let rest = field_raw(line, key)?.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                esc => out.push(esc),
            },
            c => out.push(c),
        }
    }
    None
}

/// An always-on bounded ring buffer of [`FlightEvent`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: AtomicBool,
    /// Total events ever recorded (monotone; mutated under the ring lock
    /// so `recorded == len + dropped` holds exactly at quiescence).
    recorded: AtomicU64,
    /// Events evicted from the ring to make room (or trimmed by a
    /// capacity shrink).
    dropped: AtomicU64,
    capacity: AtomicUsize,
    events: Mutex<VecDeque<FlightEvent>>,
    epoch: Instant,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_RECORDER_EVENTS)
    }
}

impl FlightRecorder {
    /// An **enabled** recorder retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            enabled: AtomicBool::new(true),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            capacity: AtomicUsize::new(capacity.max(1)),
            events: Mutex::new(VecDeque::new()),
            epoch: Instant::now(),
        }
    }

    /// The process-wide recorder: one process, one black box. Chaos
    /// injections, store transitions, and every
    /// [`crate::Observability::default`] bundle record here.
    pub fn global() -> &'static Arc<FlightRecorder> {
        static GLOBAL: OnceLock<Arc<FlightRecorder>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(FlightRecorder::default()))
    }

    /// Turns recording on or off (on by default — the recorder exists for
    /// the crashes nobody predicted).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    /// Whether events are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Resizes the ring; shrinking evicts oldest events (counted as
    /// dropped).
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        let mut events = self.events.lock().unwrap();
        self.capacity.store(capacity, Ordering::Relaxed);
        while events.len() > capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Records an event attributed to the current request context (see
    /// [`crate::current_request_id`]); request id 0 when outside one.
    pub fn record(&self, kind: &str, detail: impl Into<String>) {
        self.record_for(crate::current_request_id(), kind, detail);
    }

    /// Records an event with an explicit request id (for threads that run
    /// outside the originating request's context, e.g. a batch flush that
    /// answers other requests' rows).
    pub fn record_for(&self, request_id: u64, kind: &str, detail: impl Into<String>) {
        if !self.is_enabled() {
            return;
        }
        let at_secs = self.epoch.elapsed().as_secs_f64();
        let detail = detail.into();
        let mut events = self.events.lock().unwrap();
        let seq = self.recorded.fetch_add(1, Ordering::Relaxed) + 1;
        if events.len() >= self.capacity.load(Ordering::Relaxed) {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(FlightEvent {
            seq,
            at_secs,
            request_id,
            kind: kind.to_string(),
            detail,
        });
    }

    /// The recorder's epoch as fractional Unix seconds: add an event's
    /// `at_secs` to this to place it on the wall clock (how OpenMetrics
    /// exemplar timestamps are derived from flight events).
    pub fn epoch_unix_secs(&self) -> f64 {
        let now_unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0.0, |d| d.as_secs_f64());
        now_unix - self.epoch.elapsed().as_secs_f64()
    }

    /// Total events ever recorded.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events evicted from the ring (`recorded - retained`). Surfaced by
    /// `HEALTH` so operators can see recorder backpressure without a dump.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.events.lock().unwrap().iter().cloned().collect()
    }

    /// Writes a JSONL dump: one header object, then one line per retained
    /// event, oldest first. Returns the number of event lines written.
    pub fn dump<W: Write>(&self, w: &mut W) -> io::Result<usize> {
        let events = self.snapshot();
        let unix_secs = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        writeln!(
            w,
            "{{\"recorder\":\"poe-flight\",\"version\":1,\"unix_secs\":{},\"uptime_secs\":{},\"recorded\":{},\"dropped\":{},\"capacity\":{}}}",
            unix_secs,
            fmt_f64(self.epoch.elapsed().as_secs_f64()),
            self.recorded(),
            self.dropped(),
            self.capacity(),
        )?;
        for ev in &events {
            writeln!(w, "{}", ev.to_jsonl())?;
        }
        Ok(events.len())
    }

    /// Dumps to a fresh timestamped file `poe-flight-<unix_secs>-<n>.jsonl`
    /// under `dir` (created if missing), returning the path. `<n>` is a
    /// process-wide dump counter so same-second dumps never collide.
    pub fn dump_to_dir(&self, dir: &Path) -> io::Result<PathBuf> {
        static DUMPS: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(dir)?;
        let unix_secs = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let n = DUMPS.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("poe-flight-{unix_secs}-{n}.jsonl"));
        let file = std::fs::File::create(&path)?;
        let mut w = io::BufWriter::new(file);
        self.dump(&mut w)?;
        w.flush()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_jsonl() {
        let ev = FlightEvent {
            seq: 42,
            at_secs: 1.5,
            request_id: 7,
            kind: "request.end".into(),
            detail: "verb=QUERY ok=1 tasks=\"0,1\"".into(),
        };
        let line = ev.to_jsonl();
        assert_eq!(FlightEvent::parse_jsonl(&line).unwrap(), ev);
        assert!(FlightEvent::parse_jsonl("").is_none());
        assert!(FlightEvent::parse_jsonl("{\"recorder\":\"poe-flight\"}").is_none());
    }

    #[test]
    fn ring_is_bounded_and_drop_counter_is_exact() {
        let rec = FlightRecorder::with_capacity(3);
        for i in 0..10 {
            rec.record_for(i, "e", format!("i={i}"));
        }
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 7);
        assert_eq!(rec.len(), 3);
        let snap = rec.snapshot();
        assert_eq!(
            snap.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![8, 9, 10],
            "oldest evicted first, seq order preserved"
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = FlightRecorder::with_capacity(8);
        rec.set_enabled(false);
        rec.record("e", "x");
        assert_eq!(rec.recorded(), 0);
        rec.set_enabled(true);
        rec.record("e", "x");
        assert_eq!(rec.recorded(), 1);
    }

    #[test]
    fn shrinking_capacity_trims_and_counts_drops() {
        let rec = FlightRecorder::with_capacity(8);
        for i in 0..6 {
            rec.record_for(i, "e", "");
        }
        rec.set_capacity(2);
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 4);
        assert_eq!(rec.capacity(), 2);
    }

    #[test]
    fn record_picks_up_the_current_request_context() {
        let rec = FlightRecorder::with_capacity(8);
        let col = std::sync::Arc::new(crate::TraceCollector::new());
        crate::with_request(&col, 99, || rec.record("inside", ""));
        rec.record("outside", "");
        let snap = rec.snapshot();
        assert_eq!(snap[0].request_id, 99);
        assert_eq!(snap[1].request_id, 0);
    }

    #[test]
    fn dump_writes_header_and_parseable_events() {
        let rec = FlightRecorder::with_capacity(4);
        rec.record_for(1, "request.start", "verb=QUERY");
        rec.record_for(1, "request.end", "verb=QUERY ok=1");
        let mut buf = Vec::new();
        let n = rec.dump(&mut buf).unwrap();
        assert_eq!(n, 2);
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"recorder\":\"poe-flight\""), "{text}");
        assert!(lines[0].contains("\"dropped\":0"), "{text}");
        assert!(
            FlightEvent::parse_jsonl(lines[0]).is_none(),
            "header is not an event"
        );
        let evs: Vec<FlightEvent> = lines[1..]
            .iter()
            .filter_map(|l| FlightEvent::parse_jsonl(l))
            .collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, "request.start");
        assert_eq!(evs[1].request_id, 1);
    }

    #[test]
    fn dump_to_dir_creates_distinct_timestamped_files() {
        let dir = std::env::temp_dir().join("poe-recorder-test");
        let rec = FlightRecorder::with_capacity(4);
        rec.record("e", "");
        let a = rec.dump_to_dir(&dir).unwrap();
        let b = rec.dump_to_dir(&dir).unwrap();
        assert_ne!(a, b);
        let name = a.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.starts_with("poe-flight-") && name.ends_with(".jsonl"),
            "{name}"
        );
        let text = std::fs::read_to_string(&a).unwrap();
        assert!(text.lines().count() >= 2);
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }

    #[test]
    fn concurrent_writes_tear_nothing_and_count_exactly() {
        let rec = std::sync::Arc::new(FlightRecorder::with_capacity(64));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let rec = std::sync::Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    rec.record_for(t + 1, "spin", format!("t={t} i={i}"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.recorded(), 800);
        assert_eq!(rec.dropped() as usize + rec.len(), 800);
        let snap = rec.snapshot();
        for pair in snap.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "ring must stay in seq order");
        }
        for ev in &snap {
            // A torn event would mismatch its own detail fields.
            assert!(
                ev.detail.starts_with(&format!("t={}", ev.request_id - 1)),
                "{ev:?}"
            );
        }
    }
}
