//! The typed wire protocol: requests in, errors out.
//!
//! Both directions of the line protocol live here as types. Inbound,
//! every request line parses to exactly one [`Request`] variant through
//! the single [`parse_request`] entry point — `poe serve` and `poe route`
//! share it, so the two tiers cannot drift on grammar. Outbound, every
//! `ERR` line the server can emit is a [`WireError`] variant; the single
//! [`std::fmt::Display`] impl below is the one place the reason strings
//! are rendered, and each rendered form corresponds to exactly one row of
//! the error tables in `docs/PROTOCOL.md`.
//!
//! Tests pin both correspondences against the doc, in both directions:
//! `every_variant_matches_a_protocol_row` for errors, and
//! `request_verbs_match_the_protocol_grammar` /
//! `every_documented_verb_parses` for the request grammar — adding a
//! variant without documenting it (or editing a string or the grammar
//! without updating the doc) fails the build's test gate.

use poe_core::pool::QueryError;
use poe_net::Refusal;
use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Hard cap on the number of task ids in one `QUERY`/`PREDICT`/`LOGITS`
/// (the "≤ 4096, no duplicates" rule of the request grammar).
pub const MAX_QUERY_TASKS: usize = 4096;

/// One protocol-level failure, rendered on the wire as `ERR <reason>`.
///
/// The first group of variants answers and keeps the connection open; the
/// variants for which [`WireError::closes_connection`] returns `true` are
/// the fault-tolerance rejections that answer one line and close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Blank request line.
    EmptyRequest,
    /// First word of the line is not a known verb.
    UnknownVerb(String),
    /// `QUERY`/`PREDICT` with an empty task list.
    NoTasks,
    /// Task token that is not a non-negative integer.
    BadTaskId(String),
    /// The same task index appears twice in the request's task list.
    DuplicateTask(usize),
    /// Task list longer than the protocol cap.
    TooManyTasks {
        /// The cap ([`MAX_QUERY_TASKS`]).
        max: usize,
    },
    /// Consolidation refused the task set (service layer).
    Query(QueryError),
    /// `PREDICT` without the `:` separator.
    PredictSyntax,
    /// `LOGITS` without the `:` separator.
    LogitsSyntax,
    /// Feature token that is not a finite float.
    BadFeature(String),
    /// Feature count ≠ the pool's input dimension.
    FeatureCount {
        /// The pool's input dimension.
        expected: usize,
        /// Features actually supplied.
        got: usize,
    },
    /// `SWAP` without a task id argument.
    SwapSyntax,
    /// `TRACE` with an argument other than `on`/`off`.
    TraceSyntax,
    /// `METRICS` with a format argument other than `json`/`openmetrics`.
    MetricsSyntax,
    /// `DUMP` could not write the flight-recorder file.
    DumpFailed(String),
    /// `SHUTDOWN` sent to the library `respond` without a server.
    ShutdownNoServer,
    /// Data verb on a degraded server (pool failed to load).
    NotReady(String),
    /// At the concurrent-connection cap: shed before any request was read.
    Busy {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// Request line exceeded the line cap.
    LineTooLong {
        /// The cap in bytes.
        max_bytes: usize,
    },
    /// No complete request line within the idle deadline.
    IdleTimeout,
    /// Per-connection request cap hit.
    ConnRequestLimit,
    /// Request arrived while the server is draining.
    ShuttingDown {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// Router only: a required shard (or, for `PREDICT`, every shard)
    /// failed past the retry budget. Non-closing — the client may retry
    /// on the same connection once the shard recovers.
    ShardUnavailable {
        /// Shard index in the router's map.
        shard: usize,
        /// Last failure observed against that shard's replicas.
        detail: String,
    },
    /// Router only: a requested task id falls outside every shard range.
    NoShardForTask(usize),
}

impl WireError {
    /// The full response line: `ERR <reason>`.
    pub fn line(&self) -> String {
        format!("ERR {self}")
    }

    /// The rejection the event loop sends for `refusal` — the one place
    /// both `poe serve` and `poe route` render their transport refusals.
    /// Retry hints are jittered per response around `retry_after_ms`.
    pub fn refusal(refusal: Refusal, max_line_bytes: usize, retry_after_ms: u64) -> WireError {
        match refusal {
            Refusal::Busy => WireError::Busy {
                retry_after_ms: jittered_retry_after_ms(retry_after_ms),
            },
            Refusal::LineTooLong => WireError::LineTooLong {
                max_bytes: max_line_bytes,
            },
            Refusal::IdleTimeout => WireError::IdleTimeout,
            Refusal::ConnRequestLimit => WireError::ConnRequestLimit,
            Refusal::ShuttingDown => WireError::ShuttingDown {
                retry_after_ms: jittered_retry_after_ms(retry_after_ms),
            },
        }
    }

    /// Whether the server closes the connection after sending this error
    /// (the fault-tolerance rejection family in `docs/PROTOCOL.md`).
    pub fn closes_connection(&self) -> bool {
        matches!(
            self,
            WireError::Busy { .. }
                | WireError::LineTooLong { .. }
                | WireError::IdleTimeout
                | WireError::ConnRequestLimit
                | WireError::ShuttingDown { .. }
        )
    }
}

impl From<QueryError> for WireError {
    fn from(e: QueryError) -> Self {
        WireError::Query(e)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::EmptyRequest => write!(f, "empty request"),
            WireError::UnknownVerb(v) => write!(f, "unknown verb `{v}`"),
            WireError::NoTasks => write!(f, "no tasks given"),
            WireError::BadTaskId(tok) => write!(f, "bad task id `{tok}`"),
            WireError::DuplicateTask(t) => write!(f, "duplicate task {t}"),
            WireError::TooManyTasks { max } => write!(f, "too many tasks (max {max})"),
            WireError::Query(e) => write!(f, "{e}"),
            WireError::PredictSyntax => write!(f, "PREDICT needs `tasks : features`"),
            WireError::LogitsSyntax => write!(f, "LOGITS needs `tasks : features`"),
            WireError::BadFeature(tok) => write!(f, "bad feature value `{tok}`"),
            WireError::FeatureCount { expected, got } => {
                write!(f, "expected {expected} features, got {got}")
            }
            WireError::SwapSyntax => write!(f, "SWAP needs a task id"),
            WireError::TraceSyntax => write!(f, "TRACE needs `on` or `off`"),
            WireError::MetricsSyntax => write!(f, "METRICS accepts `json` or `openmetrics`"),
            WireError::DumpFailed(detail) => write!(f, "dump failed: {detail}"),
            WireError::ShutdownNoServer => write!(f, "SHUTDOWN requires a running server"),
            WireError::NotReady(detail) => write!(f, "not ready: {detail}"),
            WireError::Busy { retry_after_ms } => {
                write!(f, "busy retry_after_ms={retry_after_ms}")
            }
            WireError::LineTooLong { max_bytes } => {
                write!(f, "line too long (max {max_bytes} bytes)")
            }
            WireError::IdleTimeout => write!(f, "idle timeout"),
            WireError::ConnRequestLimit => write!(f, "connection request limit reached"),
            WireError::ShuttingDown { retry_after_ms } => {
                write!(f, "shutting down retry_after_ms={retry_after_ms}")
            }
            WireError::ShardUnavailable { shard, detail } => {
                write!(f, "shard {shard} unavailable: {detail}")
            }
            WireError::NoShardForTask(t) => write!(f, "no shard for task {t}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Output format of the `METRICS` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// One JSON object on one line (the default; bare `METRICS`).
    Json,
    /// OpenMetrics/Prometheus text exposition — the protocol's only
    /// multi-line response, behind an `OK openmetrics lines=<n>` frame.
    OpenMetrics,
}

/// One parsed request line — the typed form of the grammar in
/// `docs/PROTOCOL.md` § Request grammar.
///
/// [`parse_request`] is the only constructor that matters: both `poe
/// serve` and `poe route` parse through it, so a verb's argument grammar
/// is defined exactly once. Task lists are validated at parse time
/// (`MAX_QUERY_TASKS` cap, duplicate rejection); feature vectors stay a
/// raw string — the router forwards them verbatim (it has no input
/// dimension), and a shard validates them against its pool via
/// [`parse_features`].
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `INFO` — pool shape.
    Info,
    /// `QUERY t1,t2,…` — realtime model consolidation.
    Query {
        /// Primitive-task indices, request order, validated.
        tasks: Vec<usize>,
    },
    /// `PREDICT t1,t2,… : f1 f2 …` — consolidate and classify one row.
    Predict {
        /// Primitive-task indices, request order, validated.
        tasks: Vec<usize>,
        /// The raw feature text after the `:` separator (trimmed).
        features: String,
    },
    /// `LOGITS t1,t2,… : f1 f2 …` — `PREDICT`'s raw sibling.
    Logits {
        /// Primitive-task indices, request order, validated.
        tasks: Vec<usize>,
        /// The raw feature text after the `:` separator (trimmed).
        features: String,
    },
    /// `SWAP t` — hot-swap one expert from the segment store.
    Swap {
        /// The primitive-task index to reload.
        task: usize,
    },
    /// `STATS` — human-readable service counters.
    Stats,
    /// `METRICS [json|openmetrics]` — full observability snapshot.
    Metrics {
        /// Requested output format.
        format: MetricsFormat,
    },
    /// `TRACE on|off` — toggle span collection.
    Trace {
        /// `true` for `on`, `false` for `off`.
        enabled: bool,
    },
    /// `DUMP` — write the flight-recorder ring to disk.
    Dump,
    /// `HEALTH` — liveness/readiness probe.
    Health,
    /// `SHUTDOWN` — begin a graceful drain.
    Shutdown,
    /// `QUIT` — close this connection.
    Quit,
}

impl Request {
    /// Every verb of the protocol, exactly as written in the
    /// `docs/PROTOCOL.md` grammar. Pinned against the doc by
    /// `request_verbs_match_the_protocol_grammar`.
    pub const VERBS: [&'static str; 12] = [
        "INFO", "QUERY", "PREDICT", "LOGITS", "SWAP", "STATS", "METRICS", "TRACE", "HEALTH",
        "DUMP", "SHUTDOWN", "QUIT",
    ];

    /// The canonical (uppercase) verb of this request.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Info => "INFO",
            Request::Query { .. } => "QUERY",
            Request::Predict { .. } => "PREDICT",
            Request::Logits { .. } => "LOGITS",
            Request::Swap { .. } => "SWAP",
            Request::Stats => "STATS",
            Request::Metrics { .. } => "METRICS",
            Request::Trace { .. } => "TRACE",
            Request::Dump => "DUMP",
            Request::Health => "HEALTH",
            Request::Shutdown => "SHUTDOWN",
            Request::Quit => "QUIT",
        }
    }

    /// Whether this verb touches the pool — the set a degraded server
    /// (pool failed to load) refuses with `ERR not ready` while the
    /// observability/lifecycle verbs keep answering.
    pub fn is_data_verb(&self) -> bool {
        matches!(
            self,
            Request::Info
                | Request::Query { .. }
                | Request::Predict { .. }
                | Request::Logits { .. }
                | Request::Swap { .. }
        )
    }
}

/// Jitters a retry hint into `[base/2, 3*base/2]` so a cohort of shed
/// clients doesn't re-arrive in one synchronized wave. The range is
/// pinned by `jittered_retry_hint_stays_in_range`.
fn jittered_retry_after_ms(base: u64) -> u64 {
    static RNG: OnceLock<Mutex<poe_tensor::Prng>> = OnceLock::new();
    if base == 0 {
        return 0;
    }
    let mut rng = RNG
        .get_or_init(|| {
            let seed = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
                .unwrap_or(0x5EED);
            Mutex::new(poe_tensor::Prng::seed_from_u64(
                seed ^ std::process::id() as u64,
            ))
        })
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    base / 2 + rng.next_u64() % (base + 1)
}

/// Splits a router-originated `@<id> ` correlation prefix off a trimmed
/// request line: `(Some(id), rest)`, or `(None, line)` when there is no
/// well-formed prefix (a malformed one stays in place and reads as an
/// unknown verb).
pub fn strip_origin(line: &str) -> (Option<u64>, &str) {
    match line
        .strip_prefix('@')
        .and_then(|rest| rest.split_once(char::is_whitespace))
        .and_then(|(id, tail)| id.parse::<u64>().ok().map(|id| (id, tail.trim())))
    {
        Some((id, tail)) => (Some(id), tail),
        None => (None, line),
    }
}

/// Splits a request line into its verb token and (trimmed) argument
/// remainder. The line itself is trimmed first; a blank line yields an
/// empty verb. This is the one tokenization rule of the protocol:
/// everything after the first whitespace belongs to the verb's arguments.
pub fn split_verb(line: &str) -> (&str, &str) {
    let trimmed = line.trim();
    match trimmed.split_once(char::is_whitespace) {
        Some((verb, rest)) => (verb, rest.trim()),
        None => (trimmed, ""),
    }
}

/// The lowercase metrics slug for the line's verb (`"query"`,
/// `"predict"`, …), or `None` when the first token is not a known verb.
/// Used for per-verb request counters (`serve.requests.<slug>`), which
/// count attempts — a line that later fails argument parsing still counts
/// under its verb, so the counter names are derived from the raw token,
/// not from a successfully parsed [`Request`].
pub fn verb_slug(line: &str) -> Option<&'static str> {
    match split_verb(line).0.to_ascii_uppercase().as_str() {
        "INFO" => Some("info"),
        "QUERY" => Some("query"),
        "PREDICT" => Some("predict"),
        "LOGITS" => Some("logits"),
        "SWAP" => Some("swap"),
        "STATS" => Some("stats"),
        "METRICS" => Some("metrics"),
        "TRACE" => Some("trace"),
        "HEALTH" => Some("health"),
        "DUMP" => Some("dump"),
        "SHUTDOWN" => Some("shutdown"),
        "QUIT" => Some("quit"),
        _ => None,
    }
}

/// Parses one request line into its typed [`Request`] form.
///
/// Verbs match case-insensitively. Argument errors render exactly the
/// documented rows: task-list errors surface before feature errors
/// (`PREDICT 0,0 : x` is `ERR duplicate task 0`, not a feature error),
/// and a missing `:` separator is the verb's own syntax row. An unknown
/// verb echoes the client's token verbatim (original case).
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let (verb_raw, rest) = split_verb(line);
    if verb_raw.is_empty() {
        return Err(WireError::EmptyRequest);
    }
    match verb_raw.to_ascii_uppercase().as_str() {
        "INFO" => Ok(Request::Info),
        "QUERY" => Ok(Request::Query {
            tasks: parse_tasks(rest)?,
        }),
        "PREDICT" => {
            let (tasks, features) = split_task_features(rest, WireError::PredictSyntax)?;
            Ok(Request::Predict { tasks, features })
        }
        "LOGITS" => {
            let (tasks, features) = split_task_features(rest, WireError::LogitsSyntax)?;
            Ok(Request::Logits { tasks, features })
        }
        "SWAP" => {
            if rest.is_empty() {
                return Err(WireError::SwapSyntax);
            }
            match rest.parse::<usize>() {
                Ok(task) => Ok(Request::Swap { task }),
                Err(_) => Err(WireError::BadTaskId(rest.to_string())),
            }
        }
        "STATS" => Ok(Request::Stats),
        "METRICS" => match rest.to_ascii_lowercase().as_str() {
            "" | "json" => Ok(Request::Metrics {
                format: MetricsFormat::Json,
            }),
            "openmetrics" => Ok(Request::Metrics {
                format: MetricsFormat::OpenMetrics,
            }),
            _ => Err(WireError::MetricsSyntax),
        },
        "TRACE" => match rest.to_ascii_lowercase().as_str() {
            "on" => Ok(Request::Trace { enabled: true }),
            "off" => Ok(Request::Trace { enabled: false }),
            _ => Err(WireError::TraceSyntax),
        },
        "DUMP" => Ok(Request::Dump),
        "HEALTH" => Ok(Request::Health),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "QUIT" => Ok(Request::Quit),
        _ => Err(WireError::UnknownVerb(verb_raw.to_string())),
    }
}

/// Splits `tasks : features` for `PREDICT`/`LOGITS`: the task list is
/// validated here; the features stay a raw (trimmed) string so the router
/// can forward them without knowing the input dimension.
fn split_task_features(
    rest: &str,
    on_missing: WireError,
) -> Result<(Vec<usize>, String), WireError> {
    let Some((task_part, feat_part)) = rest.split_once(':') else {
        return Err(on_missing);
    };
    Ok((parse_tasks(task_part.trim())?, feat_part.trim().to_string()))
}

/// Parses a comma-separated task list: non-empty, every token a
/// non-negative integer, no duplicates, at most [`MAX_QUERY_TASKS`] ids
/// (the cap is checked before each parse so an over-long list of garbage
/// is still refused as too many tasks, not as a bad id past the cap).
pub fn parse_tasks(s: &str) -> Result<Vec<usize>, WireError> {
    if s.is_empty() {
        return Err(WireError::NoTasks);
    }
    let mut tasks: Vec<usize> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for p in s.split(',') {
        if tasks.len() == MAX_QUERY_TASKS {
            return Err(WireError::TooManyTasks {
                max: MAX_QUERY_TASKS,
            });
        }
        let id: usize = p
            .trim()
            .parse()
            .map_err(|_| WireError::BadTaskId(p.to_string()))?;
        if !seen.insert(id) {
            return Err(WireError::DuplicateTask(id));
        }
        tasks.push(id);
    }
    Ok(tasks)
}

/// Parses the feature text of a `PREDICT`/`LOGITS` against the pool's
/// input dimension: whitespace-separated finite floats, exactly
/// `input_dim` of them. The shard-side half of the feature grammar — the
/// router never calls this (it forwards the raw text).
pub fn parse_features(features: &str, input_dim: usize) -> Result<Vec<f32>, WireError> {
    let mut parsed = Vec::new();
    for tok in features.split_whitespace() {
        match tok.parse::<f32>() {
            Ok(v) if v.is_finite() => parsed.push(v),
            _ => return Err(WireError::BadFeature(tok.to_string())),
        }
    }
    if parsed.len() != input_dim {
        return Err(WireError::FeatureCount {
            expected: input_dim,
            got: parsed.len(),
        });
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the shed-hint jitter range `[base/2, 3*base/2]` and that the
    /// hint actually varies — a fixed constant re-stampedes the server.
    #[test]
    fn jittered_retry_hint_stays_in_range() {
        let draws: Vec<u64> = (0..200).map(|_| jittered_retry_after_ms(100)).collect();
        assert!(draws.iter().all(|&d| (50..=150).contains(&d)), "{draws:?}");
        let distinct: std::collections::HashSet<_> = draws.iter().collect();
        assert!(distinct.len() >= 3, "hint is not jittered: {draws:?}");
        assert_eq!(jittered_retry_after_ms(0), 0);
    }

    /// Every loop refusal renders as its documented rejection line.
    #[test]
    fn refusals_render_the_closing_rejections() {
        let line = |r| WireError::refusal(r, 64, 0).line();
        assert_eq!(line(Refusal::Busy), "ERR busy retry_after_ms=0");
        assert_eq!(
            line(Refusal::LineTooLong),
            "ERR line too long (max 64 bytes)"
        );
        assert_eq!(line(Refusal::IdleTimeout), "ERR idle timeout");
        assert_eq!(
            line(Refusal::ConnRequestLimit),
            "ERR connection request limit reached"
        );
        assert_eq!(
            line(Refusal::ShuttingDown),
            "ERR shutting down retry_after_ms=0"
        );
        for r in [
            Refusal::Busy,
            Refusal::LineTooLong,
            Refusal::IdleTimeout,
            Refusal::ConnRequestLimit,
            Refusal::ShuttingDown,
        ] {
            assert!(WireError::refusal(r, 64, 100).closes_connection(), "{r:?}");
        }
    }

    /// `docs/PROTOCOL.md` with its markdown-escaped backticks unescaped,
    /// so rendered error lines can be matched against table rows verbatim.
    fn protocol_doc() -> String {
        include_str!("../../../docs/PROTOCOL.md").replace("\\`", "`")
    }

    /// One sample of every variant: (constructed error, expected wire
    /// line, the `docs/PROTOCOL.md` table row it instantiates).
    fn samples() -> Vec<(WireError, &'static str, &'static str)> {
        vec![
            (
                WireError::EmptyRequest,
                "ERR empty request",
                "`ERR empty request`",
            ),
            (
                WireError::UnknownVerb("X".into()),
                "ERR unknown verb `X`",
                "`ERR unknown verb `X``",
            ),
            (
                WireError::NoTasks,
                "ERR no tasks given",
                "`ERR no tasks given`",
            ),
            (
                WireError::BadTaskId("X".into()),
                "ERR bad task id `X`",
                "`ERR bad task id `X``",
            ),
            (
                WireError::DuplicateTask(3),
                "ERR duplicate task 3",
                "`ERR duplicate task N`",
            ),
            (
                WireError::TooManyTasks { max: 4096 },
                "ERR too many tasks (max 4096)",
                "`ERR too many tasks (max 4096)`",
            ),
            (
                WireError::Query(QueryError::EmptyQuery),
                "ERR composite task is empty",
                "`ERR composite task is empty`",
            ),
            (
                WireError::Query(QueryError::UnknownTask(9)),
                "ERR unknown primitive task 9",
                "`ERR unknown primitive task N`",
            ),
            (
                WireError::Query(QueryError::DuplicateTask(2)),
                "ERR primitive task 2 listed twice",
                "`ERR primitive task N listed twice`",
            ),
            (
                WireError::Query(QueryError::MissingExpert(5)),
                "ERR no expert pooled for task 5",
                "`ERR no expert pooled for task N`",
            ),
            (
                WireError::Query(QueryError::ExpertLoad {
                    task: 4,
                    detail: "<detail>".into(),
                }),
                "ERR expert 4 failed to load: <detail>",
                "`ERR expert N failed to load: <detail>`",
            ),
            (
                WireError::SwapSyntax,
                "ERR SWAP needs a task id",
                "`ERR SWAP needs a task id`",
            ),
            (
                WireError::PredictSyntax,
                "ERR PREDICT needs `tasks : features`",
                "`ERR PREDICT needs `tasks : features``",
            ),
            (
                WireError::LogitsSyntax,
                "ERR LOGITS needs `tasks : features`",
                "`ERR LOGITS needs `tasks : features``",
            ),
            (
                WireError::BadFeature("X".into()),
                "ERR bad feature value `X`",
                "`ERR bad feature value `X``",
            ),
            (
                WireError::FeatureCount {
                    expected: 4,
                    got: 2,
                },
                "ERR expected 4 features, got 2",
                "`ERR expected N features, got M`",
            ),
            (
                WireError::TraceSyntax,
                "ERR TRACE needs `on` or `off`",
                "`ERR TRACE needs `on` or `off``",
            ),
            (
                WireError::MetricsSyntax,
                "ERR METRICS accepts `json` or `openmetrics`",
                "`ERR METRICS accepts `json` or `openmetrics``",
            ),
            (
                WireError::DumpFailed("<detail>".into()),
                "ERR dump failed: <detail>",
                "`ERR dump failed: <detail>`",
            ),
            (
                WireError::ShutdownNoServer,
                "ERR SHUTDOWN requires a running server",
                "`ERR SHUTDOWN requires a running server`",
            ),
            (
                WireError::NotReady("<detail>".into()),
                "ERR not ready: <detail>",
                "`ERR not ready: <detail>`",
            ),
            (
                WireError::Busy {
                    retry_after_ms: 100,
                },
                "ERR busy retry_after_ms=100",
                "`ERR busy retry_after_ms=<n>`",
            ),
            (
                WireError::LineTooLong { max_bytes: 64 },
                "ERR line too long (max 64 bytes)",
                "`ERR line too long (max N bytes)`",
            ),
            (
                WireError::IdleTimeout,
                "ERR idle timeout",
                "`ERR idle timeout`",
            ),
            (
                WireError::ConnRequestLimit,
                "ERR connection request limit reached",
                "`ERR connection request limit reached`",
            ),
            (
                WireError::ShuttingDown {
                    retry_after_ms: 100,
                },
                "ERR shutting down retry_after_ms=100",
                "`ERR shutting down retry_after_ms=<n>`",
            ),
            (
                WireError::ShardUnavailable {
                    shard: 2,
                    detail: "<detail>".into(),
                },
                "ERR shard 2 unavailable: <detail>",
                "`ERR shard N unavailable: <detail>`",
            ),
            (
                WireError::NoShardForTask(7),
                "ERR no shard for task 7",
                "`ERR no shard for task N`",
            ),
        ]
    }

    /// Every variant renders its documented form, and every rendered form
    /// has a matching row in `docs/PROTOCOL.md` — the doc and the enum
    /// cannot drift apart silently.
    #[test]
    fn every_variant_matches_a_protocol_row() {
        let doc = protocol_doc();
        for (err, rendered, doc_row) in samples() {
            assert_eq!(err.line(), rendered, "{err:?}");
            assert!(
                doc.contains(doc_row),
                "docs/PROTOCOL.md is missing the row {doc_row} for {err:?}"
            );
        }
    }

    #[test]
    fn close_family_matches_the_doc_table() {
        // Exactly the fault-tolerance table closes connections.
        let closing: Vec<WireError> = samples()
            .into_iter()
            .map(|(e, _, _)| e)
            .filter(WireError::closes_connection)
            .collect();
        assert_eq!(closing.len(), 5, "{closing:?}");
        assert!(!WireError::EmptyRequest.closes_connection());
        assert!(!WireError::Query(QueryError::EmptyQuery).closes_connection());
    }

    /// The router-facing rows keep the connection open: a degraded
    /// answer must not cost the client its session, so both
    /// `ERR shard N unavailable` and the `OK partial` success row (which
    /// is documented next to it) leave the connection usable.
    #[test]
    fn router_rows_do_not_close_the_connection() {
        assert!(!WireError::ShardUnavailable {
            shard: 0,
            detail: "x".into()
        }
        .closes_connection());
        assert!(!WireError::NoShardForTask(0).closes_connection());
        assert!(!WireError::LogitsSyntax.closes_connection());
        // `OK partial` is a success row, not a WireError; pin that the
        // doc documents it alongside the shard-unavailable row.
        let doc = protocol_doc();
        assert!(
            doc.contains("OK partial shards="),
            "docs/PROTOCOL.md must document the `OK partial` response row"
        );
    }

    #[test]
    fn query_errors_convert_losslessly() {
        let w: WireError = QueryError::MissingExpert(7).into();
        assert_eq!(w, WireError::Query(QueryError::MissingExpert(7)));
        assert_eq!(w.line(), "ERR no expert pooled for task 7");
    }

    /// One minimal valid request line per [`Request`] variant shape.
    fn request_samples() -> Vec<(&'static str, Request)> {
        vec![
            ("INFO", Request::Info),
            ("QUERY 1,3", Request::Query { tasks: vec![1, 3] }),
            (
                "PREDICT 1,3 : 0.25 -1.0",
                Request::Predict {
                    tasks: vec![1, 3],
                    features: "0.25 -1.0".into(),
                },
            ),
            (
                "LOGITS 0 : 1 2",
                Request::Logits {
                    tasks: vec![0],
                    features: "1 2".into(),
                },
            ),
            ("SWAP 2", Request::Swap { task: 2 }),
            ("STATS", Request::Stats),
            (
                "METRICS",
                Request::Metrics {
                    format: MetricsFormat::Json,
                },
            ),
            (
                "METRICS openmetrics",
                Request::Metrics {
                    format: MetricsFormat::OpenMetrics,
                },
            ),
            ("TRACE on", Request::Trace { enabled: true }),
            ("TRACE off", Request::Trace { enabled: false }),
            ("DUMP", Request::Dump),
            ("HEALTH", Request::Health),
            ("SHUTDOWN", Request::Shutdown),
            ("QUIT", Request::Quit),
        ]
    }

    /// The verbs named in the `docs/PROTOCOL.md` request-grammar rule
    /// (`verb = "INFO" | …`): every `"UPPERCASE"` token quoted in the
    /// grammar section.
    fn documented_verbs() -> std::collections::BTreeSet<String> {
        let doc = protocol_doc();
        let grammar = doc
            .split("## Request grammar")
            .nth(1)
            .expect("a Request grammar section")
            .split("## Verbs")
            .next()
            .unwrap();
        let mut verbs = std::collections::BTreeSet::new();
        for chunk in grammar.split('"').skip(1).step_by(2) {
            if !chunk.is_empty() && chunk.chars().all(|c| c.is_ascii_uppercase()) {
                verbs.insert(chunk.to_string());
            }
        }
        verbs
    }

    /// Both directions of the verb↔doc pin: every [`Request`] verb is in
    /// the documented grammar (and has a `### \`VERB\`` section), and
    /// every verb the grammar documents is a [`Request`] verb — the enum
    /// and the doc cannot drift apart silently.
    #[test]
    fn request_verbs_match_the_protocol_grammar() {
        let documented = documented_verbs();
        let implemented: std::collections::BTreeSet<String> =
            Request::VERBS.iter().map(|v| v.to_string()).collect();
        assert_eq!(documented, implemented);
        let doc = protocol_doc();
        for verb in Request::VERBS {
            assert!(
                doc.contains(&format!("### `{verb}")),
                "docs/PROTOCOL.md is missing a verb section for {verb}"
            );
        }
    }

    /// Every documented verb parses (case-insensitively) to the variant
    /// that reports the same verb name back.
    #[test]
    fn every_documented_verb_parses() {
        for (line, want) in request_samples() {
            let got = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(got, want, "{line}");
            assert!(Request::VERBS.contains(&got.verb()));
            // Case-insensitive: the lowercase form parses identically.
            assert_eq!(parse_request(&line.to_lowercase()), Ok(want), "{line}");
        }
        // All twelve verbs are covered by the samples above.
        let covered: std::collections::BTreeSet<&str> = request_samples()
            .iter()
            .map(|(line, _)| split_verb(line).0)
            .collect();
        assert_eq!(covered.len(), Request::VERBS.len());
    }

    /// Argument errors surface in the documented order and shape.
    #[test]
    fn parse_request_renders_the_documented_errors() {
        let err = |line: &str| parse_request(line).unwrap_err();
        assert_eq!(err(""), WireError::EmptyRequest);
        assert_eq!(err("   "), WireError::EmptyRequest);
        assert_eq!(err("FROB 1"), WireError::UnknownVerb("FROB".into()));
        // Unknown verbs echo the client's token verbatim, original case.
        assert_eq!(err("frob 1"), WireError::UnknownVerb("frob".into()));
        assert_eq!(err("QUERY"), WireError::NoTasks);
        assert_eq!(err("QUERY 0,x"), WireError::BadTaskId("x".into()));
        assert_eq!(err("QUERY 0,1,0"), WireError::DuplicateTask(0));
        assert_eq!(err("PREDICT 0 1.0"), WireError::PredictSyntax);
        assert_eq!(err("LOGITS 0 1.0"), WireError::LogitsSyntax);
        // Task errors surface before any feature handling.
        assert_eq!(err("PREDICT 0,0 : x"), WireError::DuplicateTask(0));
        assert_eq!(err("SWAP"), WireError::SwapSyntax);
        assert_eq!(err("SWAP x"), WireError::BadTaskId("x".into()));
        assert_eq!(err("TRACE maybe"), WireError::TraceSyntax);
        assert_eq!(err("METRICS prometheus"), WireError::MetricsSyntax);
    }

    #[test]
    fn features_are_validated_shard_side() {
        assert_eq!(parse_features("1 2 3", 3), Ok(vec![1.0, 2.0, 3.0]));
        assert_eq!(
            parse_features("1 nan 3", 3),
            Err(WireError::BadFeature("nan".into()))
        );
        assert_eq!(
            parse_features("1 2", 3),
            Err(WireError::FeatureCount {
                expected: 3,
                got: 2
            })
        );
        // Feature-token errors win over the count mismatch.
        assert_eq!(
            parse_features("x", 3),
            Err(WireError::BadFeature("x".into()))
        );
    }

    #[test]
    fn verb_slug_names_known_verbs_only() {
        assert_eq!(verb_slug("QUERY 1,2"), Some("query"));
        assert_eq!(verb_slug("query 1,2"), Some("query"));
        assert_eq!(verb_slug("  METRICS openmetrics"), Some("metrics"));
        assert_eq!(verb_slug("FROB"), None);
        assert_eq!(verb_slug(""), None);
        for verb in Request::VERBS {
            assert_eq!(verb_slug(verb).unwrap(), verb.to_ascii_lowercase());
        }
    }

    #[test]
    fn data_verbs_are_the_degraded_refusal_set() {
        let data: Vec<&str> = request_samples()
            .iter()
            .filter(|(_, r)| r.is_data_verb())
            .map(|(l, _)| split_verb(l).0)
            .collect();
        assert_eq!(data, ["INFO", "QUERY", "PREDICT", "LOGITS", "SWAP"]);
    }
}
