//! The closed-loop load: each connection sends its next request line only
//! after the previous answer arrived, with no think time. Also the output
//! checks every recorded answer goes through.

use crate::plan::{Plan, Req, Stream};
use poe_core::service::QueryService;
use poe_data::ClassHierarchy;
use poe_tensor::Tensor;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Pre-rendered pieces of request lines, so a client thread only
/// concatenates.
pub struct Lines {
    sets: Vec<String>,
    rows: Vec<String>,
}

impl Lines {
    pub fn new(plan: &Plan, rows: &[Vec<f32>]) -> Lines {
        let join = |v: &mut dyn Iterator<Item = String>, sep: &str| v.collect::<Vec<_>>().join(sep);
        Lines {
            sets: plan
                .sets
                .iter()
                .map(|s| join(&mut s.iter().map(|t| t.to_string()), ","))
                .collect(),
            // `{}` prints the shortest decimal that parses back to the same
            // f32, so the server sees exactly the row the checker uses.
            rows: rows
                .iter()
                .map(|r| join(&mut r.iter().map(|x| format!("{x}")), " "))
                .collect(),
        }
    }

    pub fn render(&self, req: Req) -> String {
        match req {
            Req::Predict { set, row } => format!("PREDICT {} : {}", self.sets[set], self.rows[row]),
            Req::Query { set } => format!("QUERY {}", self.sets[set]),
            Req::Swap { task } => format!("SWAP {task}"),
        }
    }

    /// The raw feature text of `row` (what the router forwards).
    pub fn row(&self, row: usize) -> &str {
        &self.rows[row]
    }
}

/// One answered request.
pub struct Sample {
    pub req: Req,
    /// Send time, nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub rtt_ns: u64,
    pub response: String,
}

impl Sample {
    pub fn ok(&self) -> bool {
        self.response.starts_with("OK") && !self.response.starts_with("OK partial")
    }
}

/// One generator: a request stream and the endpoint it sends to. Every
/// [`phase`] opens a fresh connection for it, so per-connection server
/// state (which thread serves it, and where that thread runs) is drawn
/// anew each window.
pub struct Client<'a> {
    stream: Stream<'a>,
    lines: &'a Lines,
    addr: SocketAddr,
}

impl<'a> Client<'a> {
    pub fn new(addr: SocketAddr, plan: &'a Plan, lines: &'a Lines, conn: u64) -> Client<'a> {
        Client {
            stream: plan.stream(conn),
            lines,
            addr,
        }
    }

    /// Connects, then sends requests until `until`, returning the answered
    /// ones.
    fn run(&mut self, until: Instant, epoch: Instant) -> Result<Vec<Sample>, String> {
        let mut writer =
            TcpStream::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        let mut out = Vec::new();
        while Instant::now() < until {
            let req = self.stream.next().expect("streams never end");
            let mut line = self.lines.render(req);
            line.push('\n');
            let mut response = String::new();
            let start = Instant::now();
            writer
                .write_all(line.as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            let n = reader
                .read_line(&mut response)
                .map_err(|e| format!("receive: {e}"))?;
            let rtt_ns = start.elapsed().as_nanos() as u64;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            response.truncate(response.trim_end().len());
            out.push(Sample {
                req,
                start_ns: start.duration_since(epoch).as_nanos() as u64,
                rtt_ns,
                response,
            });
        }
        Ok(out)
    }
}

/// Runs every client on its own thread and connection for `length`;
/// returns their samples concatenated, client by client.
pub fn phase(
    clients: &mut [Client<'_>],
    length: Duration,
    epoch: Instant,
) -> Result<Vec<Sample>, String> {
    let until = Instant::now() + length;
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| s.spawn(move || c.run(until, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect::<Vec<_>>()
    });
    let mut all = Vec::new();
    for log in logs {
        all.extend(log?);
    }
    Ok(all)
}

/// A measured stretch of load: its samples, split into windows that each
/// ran on fresh generator threads.
pub struct Measured {
    pub samples: Vec<Sample>,
    windows: Vec<std::ops::Range<usize>>,
    pub seconds: f64,
}

impl Measured {
    pub fn windows(&self) -> impl Iterator<Item = &[Sample]> {
        self.windows.iter().map(|r| &self.samples[r.clone()])
    }
}

/// Runs the clients for `length`, in windows of about `window` each.
pub fn measure(
    clients: &mut [Client<'_>],
    length: Duration,
    window: Duration,
    epoch: Instant,
) -> Result<Measured, String> {
    let n = ((length.as_secs_f64() / window.as_secs_f64()).round() as u32).max(1);
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut windows = Vec::new();
    for _ in 0..n {
        let from = samples.len();
        samples.extend(phase(clients, length / n, epoch)?);
        windows.push(from..samples.len());
    }
    Ok(Measured {
        samples,
        windows,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Round trips (µs) of `n` sequential `INFO` requests on a fresh, otherwise
/// idle connection.
pub fn info_rtt_us(addr: SocketAddr, n: usize) -> Result<Vec<f64>, String> {
    let mut w = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    w.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
    let mut out = Vec::with_capacity(n);
    let mut resp = String::new();
    for _ in 0..n {
        resp.clear();
        let start = Instant::now();
        w.write_all(b"INFO\n").map_err(|e| e.to_string())?;
        r.read_line(&mut resp).map_err(|e| e.to_string())?;
        out.push(start.elapsed().as_nanos() as f64 / 1e3);
        if !resp.starts_with("OK tasks=") {
            return Err(format!("INFO answered {:?}", resp.trim_end()));
        }
    }
    Ok(out)
}

/// Value of `key=` in a response line.
fn field<'s>(line: &'s str, key: &str) -> Option<&'s str> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
}

fn ids(s: &str) -> Option<Vec<usize>> {
    s.split(',').map(|t| t.parse().ok()).collect()
}

/// Half a unit in the last rendered digit of `confidence=` plus the 1e-5
/// agreement the batched and unbatched paths guarantee.
const CONFIDENCE_TOLERANCE: f64 = 0.5e-4 + 1e-5;

/// Checks every answer against the in-process reference:
/// * every answer is `OK` (an `OK partial` counts as a failure);
/// * each `PREDICT` names the class and task `QueryService::predict_batch`
///   gives for the same row, with the confidence within tolerance;
/// * each `QUERY` layout is `ClassHierarchy::composite_classes` in request
///   order;
/// * each `SWAP` names its task.
pub fn check(
    samples: &[Sample],
    plan: &Plan,
    reference: &QueryService,
    h: &ClassHierarchy,
    rows: &[Vec<f32>],
) -> Result<(), String> {
    if let Some(bad) = samples.iter().find(|s| !s.ok()) {
        return Err(format!("{:?} answered {:?}", bad.req, bad.response));
    }
    // Reference predictions, one batched call per task set; sets in sorted
    // key order so the reference cache serves repeats.
    let mut wanted: BTreeMap<(Vec<usize>, usize), BTreeMap<usize, usize>> = BTreeMap::new();
    for s in samples {
        if let Req::Predict { set, row } = s.req {
            let mut key = plan.sets[set].clone();
            key.sort_unstable();
            let rows_of = wanted.entry((key, set)).or_default();
            let next = rows_of.len();
            rows_of.entry(row).or_insert(next);
        }
    }
    let dim = rows.first().map_or(0, Vec::len);
    let mut expected = BTreeMap::new();
    for ((_, set), rows_of) in &wanted {
        let mut data = vec![0.0f32; rows_of.len() * dim];
        for (&row, &i) in rows_of {
            data[i * dim..(i + 1) * dim].copy_from_slice(&rows[row]);
        }
        let x = Tensor::from_vec(data, [rows_of.len(), dim]);
        let preds = reference
            .predict_batch(&plan.sets[*set], &x)
            .map_err(|e| format!("reference predict_batch: {e}"))?;
        for (&row, &i) in rows_of {
            expected.insert((*set, row), preds[i]);
        }
    }
    for s in samples {
        let r = &s.response;
        let ok = match s.req {
            Req::Predict { set, row } => {
                let p = expected[&(set, row)];
                let conf: Option<f64> = field(r, "confidence=").and_then(|c| c.parse().ok());
                field(r, "class=") == Some(p.class.to_string().as_str())
                    && field(r, "task=") == Some(p.task_index.to_string().as_str())
                    && conf.is_some_and(|c| (c - p.confidence as f64).abs() <= CONFIDENCE_TOLERANCE)
            }
            Req::Query { set } => {
                field(r, "classes=").and_then(ids) == Some(crate::setup::layout(h, &plan.sets[set]))
            }
            Req::Swap { task } => r.starts_with(&format!("OK swap task={task} version=")),
        };
        if !ok {
            return Err(format!(
                "{:?} (tasks {:?}) answered {r:?}, which does not match the reference",
                s.req,
                match s.req {
                    Req::Predict { set, .. } | Req::Query { set } => plan.sets[set].clone(),
                    Req::Swap { task } => vec![task],
                }
            ));
        }
    }
    Ok(())
}
