//! Deterministic workload plans.
//!
//! A [`Plan`] is the *entire* request schedule of a load-generation run,
//! expanded from a seed before any socket is opened: which task sets each
//! tenant connection asks for (Zipf-popular over a fixed catalog), which
//! verb, and the per-profile pacing delays. Timing under load varies run
//! to run; the schedule never does — `Plan::build` with the same
//! [`PlanConfig`] is bit-identical, which is what makes a committed
//! `BENCH_loadgen.json` a refreshable baseline rather than a one-off.

use crate::zipf::Zipf;
use poe_tensor::Prng;

/// Per-tenant service-level objective, evaluated over one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// The tenant's p99 latency bound, milliseconds.
    pub p99_ms: f64,
    /// Highest tolerated `errors / attempts` ratio.
    pub max_error_rate: f64,
}

impl Default for Slo {
    fn default() -> Self {
        Slo {
            p99_ms: 250.0,
            max_error_rate: 0.01,
        }
    }
}

/// How a tenant's connections pace and shape their requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Profile {
    /// Fixed think time between requests — the baseline interactive user.
    Steady {
        /// Pause before each request, milliseconds.
        think_ms: u64,
    },
    /// Back-to-back bursts separated by idle gaps — batchy clients.
    Bursty {
        /// Requests per burst.
        burst: usize,
        /// Idle gap before each burst, milliseconds.
        idle_ms: u64,
    },
    /// Wide task sets — the consolidation-heavy shape that stresses
    /// assembly and the consolidation cache.
    Fanout {
        /// Upper bound on tasks per request (clamped to the pool size).
        max_tasks: usize,
    },
    /// Delays *reading* its responses — a low-bandwidth client that must
    /// not be able to skew other tenants' latencies.
    SlowReader {
        /// Pause between sending a request and reading the response,
        /// milliseconds.
        delay_ms: u64,
    },
}

impl Profile {
    /// The profile's canonical name (also the default tenant name).
    pub fn name(&self) -> &'static str {
        match self {
            Profile::Steady { .. } => "steady",
            Profile::Bursty { .. } => "bursty",
            Profile::Fanout { .. } => "fanout",
            Profile::SlowReader { .. } => "slowreader",
        }
    }
}

/// One tenant: a named profile with a connection count and an SLO.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (report row: `loadgen/<name>`).
    pub name: String,
    /// Pacing/shape profile.
    pub profile: Profile,
    /// Concurrent closed-loop connections.
    pub connections: usize,
    /// Pass/fail targets for this tenant.
    pub slo: Slo,
}

/// Builds the default spec for a profile name (`steady`, `bursty`,
/// `fanout`, `slowreader`) with `connections` connections.
pub fn tenant_spec(kind: &str, connections: usize) -> Result<TenantSpec, String> {
    let (profile, slo) = match kind {
        "steady" => (Profile::Steady { think_ms: 5 }, Slo::default()),
        "bursty" => (
            Profile::Bursty {
                burst: 8,
                idle_ms: 40,
            },
            Slo::default(),
        ),
        "fanout" => (Profile::Fanout { max_tasks: 8 }, Slo::default()),
        // The slow reader's own latency includes its self-inflicted read
        // delay, so its p99 bound is deliberately looser.
        "slowreader" => (
            Profile::SlowReader { delay_ms: 20 },
            Slo {
                p99_ms: 500.0,
                ..Slo::default()
            },
        ),
        other => return Err(format!("unknown tenant profile `{other}`")),
    };
    Ok(TenantSpec {
        name: kind.to_string(),
        profile,
        connections,
        slo,
    })
}

/// Parses a tenant mix spec: `steady=2;bursty=2;fanout=2;slowreader=1`
/// (profile name `=` connection count, `;`-separated).
pub fn parse_tenants(spec: &str) -> Result<Vec<TenantSpec>, String> {
    let mut out = Vec::new();
    for part in spec.split(';').filter(|p| !p.trim().is_empty()) {
        let (kind, conns) = part
            .split_once('=')
            .ok_or_else(|| format!("tenant spec `{part}` is not `profile=connections`"))?;
        let connections: usize = conns
            .trim()
            .parse()
            .map_err(|_| format!("bad connection count in `{part}`"))?;
        if connections == 0 {
            return Err(format!("tenant `{kind}` has zero connections"));
        }
        let tenant = tenant_spec(kind.trim(), connections)?;
        if out.iter().any(|t: &TenantSpec| t.name == tenant.name) {
            return Err(format!("duplicate tenant `{}`", tenant.name));
        }
        out.push(tenant);
    }
    if out.is_empty() {
        return Err("empty tenant spec".into());
    }
    Ok(out)
}

/// Everything that determines a plan. Same config → same [`Plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanConfig {
    /// Master seed; every schedule decision forks from it.
    pub seed: u64,
    /// The tenant mix.
    pub tenants: Vec<TenantSpec>,
    /// Number of primitive tasks in the pool (probe the server's `INFO`).
    pub num_tasks: usize,
    /// Distinct task *sets* in the popularity catalog.
    pub catalog_size: usize,
    /// Zipf exponent over catalog ranks (0 = uniform).
    pub zipf_s: f64,
    /// Schedule length per connection; the runner cycles it until the
    /// run deadline.
    pub requests_per_conn: usize,
}

/// Request verbs the generator issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `QUERY t1,t2,…` — consolidation only.
    Query,
    /// `PREDICT t1,t2,… : f1 … fd` — consolidation + one inference.
    Predict,
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Primitive-task indices, in request order (no duplicates).
    pub tasks: Vec<usize>,
    /// Which verb to send.
    pub verb: Verb,
    /// Closed-loop think time before sending, milliseconds.
    pub pre_delay_ms: u64,
    /// Slow-reader delay between send and read, milliseconds.
    pub read_delay_ms: u64,
    /// Seed for the request's feature vector (`PREDICT` only; the input
    /// dimension is known only after probing the server, so features are
    /// expanded from this seed at send time).
    pub feature_seed: u64,
}

/// One connection's schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnPlan {
    /// Owning tenant's name.
    pub tenant: String,
    /// The request schedule, cycled until the run deadline.
    pub requests: Vec<Request>,
}

/// A fully expanded run schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The seed the plan was built from.
    pub seed: u64,
    /// The tenant mix the plan was built for (carries the SLOs).
    pub tenants: Vec<TenantSpec>,
    /// Per-connection schedules, tenants in spec order.
    pub conns: Vec<ConnPlan>,
}

impl Plan {
    /// Expands `cfg` into the full request schedule. Deterministic: the
    /// same config yields an identical plan.
    ///
    /// # Panics
    /// When `cfg.num_tasks`, `cfg.catalog_size`, `cfg.requests_per_conn`,
    /// or the tenant list is empty/zero.
    pub fn build(cfg: &PlanConfig) -> Plan {
        assert!(cfg.num_tasks > 0, "plan needs a non-empty task universe");
        assert!(cfg.catalog_size > 0, "plan needs a non-empty catalog");
        assert!(cfg.requests_per_conn > 0, "plan needs requests per conn");
        assert!(!cfg.tenants.is_empty(), "plan needs at least one tenant");
        let mut root = Prng::seed_from_u64(cfg.seed);
        // The popularity catalog: rank → a permutation of the task
        // universe. A request takes a profile-dependent prefix, so hot
        // ranks are hot *task sets* regardless of requested width.
        let mut catalog_rng = root.fork(0x0CA7_A106);
        let catalog: Vec<Vec<usize>> = (0..cfg.catalog_size)
            .map(|_| catalog_rng.permutation(cfg.num_tasks))
            .collect();
        let zipf = Zipf::new(cfg.catalog_size, cfg.zipf_s);
        let mut conns = Vec::new();
        for (ti, tenant) in cfg.tenants.iter().enumerate() {
            for c in 0..tenant.connections {
                let mut rng = root.fork(((ti as u64) << 32) | c as u64 | 0x1000_0000_0000);
                let requests = (0..cfg.requests_per_conn)
                    .map(|i| {
                        let rank = zipf.sample(&mut rng);
                        let width = match tenant.profile {
                            Profile::Fanout { max_tasks } => max_tasks.min(cfg.num_tasks),
                            _ => 1 + rng.below(2.min(cfg.num_tasks)),
                        };
                        let tasks = catalog[rank][..width.max(1)].to_vec();
                        // ~1 in 8 requests is a bare QUERY (consolidation
                        // without inference); the rest exercise PREDICT.
                        let verb = if rng.below(8) == 0 {
                            Verb::Query
                        } else {
                            Verb::Predict
                        };
                        let (pre_delay_ms, read_delay_ms) = match tenant.profile {
                            Profile::Steady { think_ms } => (think_ms, 0),
                            Profile::Bursty { burst, idle_ms } => {
                                (if i % burst.max(1) == 0 { idle_ms } else { 0 }, 0)
                            }
                            Profile::Fanout { .. } => (5, 0),
                            Profile::SlowReader { delay_ms } => (0, delay_ms),
                        };
                        Request {
                            tasks,
                            verb,
                            pre_delay_ms,
                            read_delay_ms,
                            feature_seed: rng.next_u64(),
                        }
                    })
                    .collect();
                conns.push(ConnPlan {
                    tenant: tenant.name.clone(),
                    requests,
                });
            }
        }
        Plan {
            seed: cfg.seed,
            tenants: cfg.tenants.clone(),
            conns,
        }
    }

    /// Total scheduled requests across all connections (one cycle).
    pub fn scheduled_requests(&self) -> usize {
        self.conns.iter().map(|c| c.requests.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> PlanConfig {
        PlanConfig {
            seed: 0xFEED,
            tenants: parse_tenants("steady=2;bursty=1;fanout=2;slowreader=1").unwrap(),
            num_tasks: 6,
            catalog_size: 16,
            zipf_s: 1.1,
            requests_per_conn: 64,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = config();
        assert_eq!(Plan::build(&cfg), Plan::build(&cfg));
        let mut other = cfg.clone();
        other.seed ^= 1;
        assert_ne!(Plan::build(&cfg), Plan::build(&other));
    }

    #[test]
    fn schedules_respect_profiles() {
        let plan = Plan::build(&config());
        assert_eq!(plan.conns.len(), 6);
        for conn in &plan.conns {
            assert_eq!(conn.requests.len(), 64);
            for req in &conn.requests {
                assert!(!req.tasks.is_empty());
                assert!(req.tasks.iter().all(|&t| t < 6));
                let mut sorted = req.tasks.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), req.tasks.len(), "duplicate tasks");
                match conn.tenant.as_str() {
                    "fanout" => assert_eq!(req.tasks.len(), 6, "clamped to pool"),
                    "slowreader" => assert!(req.read_delay_ms > 0),
                    _ => assert!(req.tasks.len() <= 2),
                }
            }
        }
        // Bursty schedules have both idle gaps and back-to-back sends.
        let bursty = plan.conns.iter().find(|c| c.tenant == "bursty").unwrap();
        assert!(bursty.requests.iter().any(|r| r.pre_delay_ms > 0));
        assert!(bursty.requests.iter().any(|r| r.pre_delay_ms == 0));
        // The verb mix includes both QUERY and PREDICT.
        let verbs: Vec<Verb> = plan
            .conns
            .iter()
            .flat_map(|c| c.requests.iter().map(|r| r.verb))
            .collect();
        assert!(verbs.contains(&Verb::Query));
        assert!(verbs.contains(&Verb::Predict));
    }

    #[test]
    fn popular_ranks_repeat_across_connections() {
        // Zipf popularity must produce repeated task sets (cache-hot
        // traffic), not all-unique ones.
        let plan = Plan::build(&config());
        let mut sets: Vec<Vec<usize>> = plan
            .conns
            .iter()
            .flat_map(|c| {
                c.requests.iter().map(|r| {
                    let mut t = r.tasks.clone();
                    t.sort_unstable();
                    t
                })
            })
            .collect();
        let total = sets.len();
        sets.sort();
        sets.dedup();
        assert!(sets.len() < total / 2, "{} unique of {total}", sets.len());
    }

    #[test]
    fn tenant_spec_parsing_rejects_garbage() {
        assert!(parse_tenants("").is_err());
        assert!(parse_tenants("steady").is_err());
        assert!(parse_tenants("steady=0").is_err());
        assert!(parse_tenants("steady=1;steady=2").is_err());
        assert!(parse_tenants("warp=1").is_err());
        let ok = parse_tenants("steady=1; fanout=2").unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[1].connections, 2);
    }
}
