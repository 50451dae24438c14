//! # poe-chaos
//!
//! A deterministic fault-injection harness for the Pool of Experts
//! workspace. Production code calls the cheap hook functions
//! ([`fail_io`], [`partial_write`], [`stall`], [`maybe_panic`]) at
//! well-known **sites** (the [`sites`] constants); by default every hook
//! is a single relaxed atomic load and returns "no fault". Faults fire
//! only when a [`ChaosPlan`] is active, either:
//!
//! * **programmatically** — tests call [`ChaosPlan::install`] and hold
//!   the returned [`ChaosGuard`] (which also serializes chaos tests
//!   process-wide, since the plan is global state), or
//! * **from the environment** — `POE_CHAOS` holds a plan spec
//!   (see [`ChaosPlan::parse`]) and `POE_CHAOS_SEED` the PRNG seed, so a
//!   whole binary can run under fault injection without recompiling.
//!
//! Determinism: all probabilistic decisions draw from one xoshiro256++
//! stream ([`poe_tensor::Prng`]) seeded from the plan. With a fixed seed
//! and a serial test, every run injects the same faults; rules with
//! probability `1.0` are deterministic regardless of draw order.
//!
//! ```
//! use poe_chaos::{ChaosPlan, Fault, FaultKind, sites};
//!
//! let guard = ChaosPlan::new(42)
//!     .with(Fault::always(sites::STORE_WRITE_IO, FaultKind::Io))
//!     .install();
//! assert!(poe_chaos::fail_io(sites::STORE_WRITE_IO).is_some());
//! assert!(poe_chaos::fail_io(sites::STORE_READ_IO).is_none());
//! drop(guard); // chaos off again
//! assert!(poe_chaos::fail_io(sites::STORE_WRITE_IO).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use poe_tensor::Prng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Well-known injection sites. Hooks and plans refer to sites by these
/// strings; using the constants keeps producer and consumer in sync.
pub mod sites {
    /// I/O error while writing a model/store file (before the atomic
    /// rename — the previous file version must survive).
    pub const STORE_WRITE_IO: &str = "store.write.io";
    /// Partial write (torn temp file) followed by an I/O error — the
    /// crash-during-save scenario.
    pub const STORE_WRITE_PARTIAL: &str = "store.write.partial";
    /// I/O error while reading a model/store file.
    pub const STORE_READ_IO: &str = "store.read.io";
    /// Panic injected just after a server records a request line's
    /// `request.start` (on the event loop or a dispatch worker), so the
    /// flight recorder pins the panic to that request.
    pub const SERVE_WORKER_PANIC: &str = "serve.worker.panic";
    /// Stall injected where a dispatch worker picks up a request line,
    /// before it starts answering it: a slow request that holds its
    /// worker and stays in flight until it is answered. Lines the event
    /// loop answers inline never reach it.
    pub const SERVE_WORKER_STALL: &str = "serve.worker.stall";
    /// Panic injected into a matmul shard running on the compute pool —
    /// the dispatcher must recompute the lost shard inline instead of
    /// propagating the panic to the caller.
    pub const TENSOR_MATMUL_SHARD_PANIC: &str = "tensor.matmul.shard.panic";
    /// I/O error while seeking/reading one expert payload out of a POEM
    /// v4 segment file — the lazy-load path; the query against that
    /// expert must fail typed, and the pool must keep serving everything
    /// already resident.
    pub const STORE_SEGMENT_READ_IO: &str = "store.segment.read.io";
    /// Panic injected mid-swap: after the replacement expert was reloaded
    /// from the store but before it is installed. The old version must
    /// keep serving and no lock may be poisoned.
    pub const POOL_SWAP_PANIC: &str = "pool.swap.panic";
    /// I/O error while the router's shard client establishes a TCP
    /// connection to a backend — the connect-refused/flaky-NIC case.
    pub const ROUTER_CONNECT_IO: &str = "router.connect.io";
    /// Stall injected before the router reads a backend's response line —
    /// a slow replica; hedged reads exist to beat this.
    pub const ROUTER_READ_STALL: &str = "router.read.stall";
    /// Network partition between router and one backend, modelled as an
    /// I/O error at connect time that persists until the rule's hit cap
    /// runs out — the scenario that must trip the circuit breaker.
    pub const ROUTER_SHARD_PARTITION: &str = "router.shard.partition";
    /// Panic injected inside one per-shard scatter worker. The gather
    /// side must contain it and degrade to a partial response instead of
    /// failing the whole query.
    pub const ROUTER_SCATTER_PANIC: &str = "router.scatter.panic";
    /// I/O error injected into the epoll loop's `epoll_wait` — the loop
    /// must count it and keep ticking, never exit.
    pub const NET_EPOLL_WAIT_IO: &str = "net.epoll.wait.io";
    /// I/O error injected into the epoll loop's `accept` burst — the
    /// listener must survive transient accept failures (EMFILE et al.).
    pub const NET_EPOLL_ACCEPT_IO: &str = "net.epoll.accept.io";
    /// I/O error injected into the epoll loop's non-blocking connection
    /// write path — the connection is closed, the loop keeps serving.
    pub const NET_EPOLL_WRITE_IO: &str = "net.epoll.write.io";
    /// Stall injected at the top of an epoll loop tick — models a slow
    /// event-loop thread (GC-pause analog); connections must survive and
    /// drain deadlines must still be honoured.
    pub const NET_EPOLL_TICK_STALL: &str = "net.epoll.tick.stall";
    /// I/O error injected into the load generator's client-side socket
    /// write — a flaky client must surface as that tenant's error count
    /// in the loadgen report, never as a panic or as skew in other
    /// tenants' percentiles.
    pub const LOADGEN_CLIENT_IO: &str = "loadgen.client.io";
}

/// Arms the fault hooks that live *below* this crate in the dependency
/// graph. `poe-tensor` cannot call [`maybe_panic`] directly (it would be
/// a dependency cycle — this crate uses its PRNG), so its matmul
/// dispatcher exposes a hook seam that we point at the
/// [`sites::TENSOR_MATMUL_SHARD_PANIC`] site here. Called automatically
/// whenever a plan is installed (programmatically or from `POE_CHAOS`);
/// the hook is a no-op while no plan is active.
pub fn arm_tensor_hooks() {
    poe_tensor::matmul::set_shard_fault_hook(|| {
        maybe_panic(sites::TENSOR_MATMUL_SHARD_PANIC);
    });
}

/// What a triggered fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Return an injected `std::io::Error`.
    Io,
    /// Write only this fraction (`0.0..=1.0`) of the payload, then fail.
    Partial(f32),
    /// Sleep this many milliseconds before proceeding.
    StallMs(u64),
    /// Panic (the caller's thread unwinds).
    Panic,
}

/// One injection rule: at `site`, with probability `prob` per hook call,
/// perform `kind`, at most `max_hits` times (`None` = unlimited).
#[derive(Debug, Clone)]
pub struct Fault {
    /// The injection site (one of [`sites`]).
    pub site: String,
    /// What happens when the fault fires.
    pub kind: FaultKind,
    /// Per-call firing probability in `[0, 1]`.
    pub prob: f32,
    /// Cap on total firings (`None` = every matching call).
    pub max_hits: Option<u64>,
}

impl Fault {
    /// A rule that fires on every hook call at `site`.
    pub fn always(site: &str, kind: FaultKind) -> Self {
        Fault {
            site: site.to_string(),
            kind,
            prob: 1.0,
            max_hits: None,
        }
    }

    /// A rule that fires on the first `n` hook calls at `site`, then
    /// never again — e.g. "panic exactly once".
    pub fn times(site: &str, kind: FaultKind, n: u64) -> Self {
        Fault {
            max_hits: Some(n),
            ..Fault::always(site, kind)
        }
    }

    /// A rule that fires with probability `prob` per hook call.
    pub fn with_prob(site: &str, kind: FaultKind, prob: f32) -> Self {
        Fault {
            prob: prob.clamp(0.0, 1.0),
            ..Fault::always(site, kind)
        }
    }
}

/// A seeded set of fault rules. Build with [`ChaosPlan::new`] + `with`,
/// or parse from an environment spec with [`ChaosPlan::parse`]; activate
/// with [`ChaosPlan::install`].
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Seed for the decision PRNG.
    pub seed: u64,
    /// The injection rules (first matching site wins).
    pub faults: Vec<Fault>,
}

impl ChaosPlan {
    /// An empty plan with the given decision seed.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a rule.
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Parses a plan spec, the `POE_CHAOS` format: `;`-separated rules,
    /// each `site=prob[@param][xN]`. The fault kind is implied by the
    /// site's suffix (`.io` → [`FaultKind::Io`], `.partial` →
    /// `Partial(param)` (default 0.5), `.stall` → `StallMs(param)`
    /// (default 100), `.panic` → [`FaultKind::Panic`], `.partition` →
    /// [`FaultKind::Io`] — a partition is an I/O error that the router
    /// sees at connect time); `xN` caps the rule at N firings.
    ///
    /// ```
    /// let p = poe_chaos::ChaosPlan::parse(7, "store.write.partial=1.0@0.25;serve.worker.panic=0.5x2").unwrap();
    /// assert_eq!(p.faults.len(), 2);
    /// ```
    pub fn parse(seed: u64, spec: &str) -> Result<Self, String> {
        let mut plan = ChaosPlan::new(seed);
        for rule in spec.split(';').filter(|r| !r.trim().is_empty()) {
            let (site, rest) = rule
                .split_once('=')
                .ok_or_else(|| format!("chaos rule `{rule}` is missing `=prob`"))?;
            let site = site.trim();
            let (rest, max_hits) = match rest.rsplit_once('x') {
                Some((head, n)) => {
                    let n: u64 = n
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad hit cap in chaos rule `{rule}`"))?;
                    (head, Some(n))
                }
                None => (rest, None),
            };
            let (prob, param) = match rest.split_once('@') {
                Some((p, v)) => (p, Some(v)),
                None => (rest, None),
            };
            let prob: f32 = prob
                .trim()
                .parse()
                .map_err(|_| format!("bad probability in chaos rule `{rule}`"))?;
            let kind = if site.ends_with(".io") || site.ends_with(".partition") {
                FaultKind::Io
            } else if site.ends_with(".partial") {
                let f = match param {
                    Some(v) => v
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad fraction in chaos rule `{rule}`"))?,
                    None => 0.5,
                };
                FaultKind::Partial(f)
            } else if site.ends_with(".stall") {
                let ms = match param {
                    Some(v) => v
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad stall ms in chaos rule `{rule}`"))?,
                    None => 100,
                };
                FaultKind::StallMs(ms)
            } else if site.ends_with(".panic") {
                FaultKind::Panic
            } else {
                return Err(format!(
                    "chaos site `{site}` has no kind suffix (.io/.partial/.stall/.panic/.partition)"
                ));
            };
            plan.faults.push(Fault {
                site: site.to_string(),
                kind,
                prob: prob.clamp(0.0, 1.0),
                max_hits,
            });
        }
        Ok(plan)
    }

    /// Activates this plan globally and returns a guard that deactivates
    /// it (restoring any previously active plan) on drop. The guard holds
    /// a process-wide lock, so chaos tests serialize instead of
    /// corrupting each other's fault schedules.
    pub fn install(self) -> ChaosGuard {
        arm_tensor_hooks();
        let lock = test_lock().lock().unwrap_or_else(PoisonError::into_inner);
        let prev = swap_active(Some(self));
        ChaosGuard { prev, _lock: lock }
    }
}

/// Deactivates the installed [`ChaosPlan`] (restoring the previous one,
/// typically the environment's) when dropped. See [`ChaosPlan::install`].
#[must_use = "dropping the guard immediately disables the chaos plan"]
pub struct ChaosGuard {
    prev: Option<ChaosPlan>,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        swap_active(self.prev.take());
    }
}

/// The seed chaos runs should use: `POE_CHAOS_SEED` if set, else a fixed
/// default — so CI pins one stream (`POE_CHAOS_SEED=42`) and every local
/// run is reproducible without configuration.
pub fn seed_from_env() -> u64 {
    std::env::var("POE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

struct ActivePlan {
    plan: ChaosPlan,
    rng: Prng,
    fired: BTreeMap<String, u64>,
}

struct ChaosState {
    enabled: AtomicBool,
    active: Mutex<Option<ActivePlan>>,
    hits: Mutex<BTreeMap<String, u64>>,
}

fn state() -> &'static ChaosState {
    static STATE: OnceLock<ChaosState> = OnceLock::new();
    STATE.get_or_init(|| {
        let env_plan = std::env::var("POE_CHAOS")
            .ok()
            .filter(|s| !s.trim().is_empty())
            .map(|spec| match ChaosPlan::parse(seed_from_env(), &spec) {
                Ok(p) => p,
                Err(e) => panic!("invalid POE_CHAOS spec: {e}"),
            });
        let enabled = env_plan.is_some();
        if enabled {
            arm_tensor_hooks();
        }
        ChaosState {
            enabled: AtomicBool::new(enabled),
            active: Mutex::new(env_plan.map(ActivePlan::new)),
            hits: Mutex::new(BTreeMap::new()),
        }
    })
}

fn test_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

impl ActivePlan {
    fn new(plan: ChaosPlan) -> Self {
        let rng = Prng::seed_from_u64(plan.seed);
        ActivePlan {
            plan,
            rng,
            fired: BTreeMap::new(),
        }
    }
}

fn swap_active(plan: Option<ChaosPlan>) -> Option<ChaosPlan> {
    let st = state();
    let mut active = st.active.lock().unwrap_or_else(PoisonError::into_inner);
    st.enabled.store(plan.is_some(), Ordering::Release);
    let prev = active.take().map(|a| a.plan);
    *active = plan.map(ActivePlan::new);
    prev
}

/// Whether any chaos plan is active. One relaxed atomic load — this is
/// the entire cost of every hook below when chaos is off.
#[inline]
pub fn enabled() -> bool {
    state().enabled.load(Ordering::Acquire)
}

/// How many faults have fired at `site` since the process started.
/// Tests use this to assert the injection actually happened.
pub fn hits(site: &str) -> u64 {
    state()
        .hits
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(site)
        .copied()
        .unwrap_or(0)
}

/// Draws a fault decision for `site` against the active plan.
fn decide(site: &str) -> Option<FaultKind> {
    let st = state();
    let mut active = st.active.lock().unwrap_or_else(PoisonError::into_inner);
    let a = active.as_mut()?;
    let rule = a.plan.faults.iter().find(|f| f.site == site)?;
    let fired = a.fired.entry(site.to_string()).or_insert(0);
    if let Some(cap) = rule.max_hits {
        if *fired >= cap {
            return None;
        }
    }
    if rule.prob < 1.0 && a.rng.uniform() >= rule.prob {
        return None;
    }
    *fired += 1;
    let kind = rule.kind;
    drop(active);
    *st.hits
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(site.to_string())
        .or_insert(0) += 1;
    // Injections leave a trail in the process black box: a post-mortem
    // dump must show *why* a worker panicked or a write failed.
    poe_obs::FlightRecorder::global().record("chaos.inject", format!("site={site} kind={kind:?}"));
    Some(kind)
}

/// Hook: returns an injected I/O error if an `Io` fault fires at `site`.
#[inline]
pub fn fail_io(site: &str) -> Option<std::io::Error> {
    if !enabled() {
        return None;
    }
    match decide(site) {
        Some(FaultKind::Io) => Some(std::io::Error::other(format!(
            "chaos: injected i/o error at {site}"
        ))),
        _ => None,
    }
}

/// Hook: returns `Some(truncated_len)` if a `Partial` fault fires at
/// `site` — the caller should write only that prefix of its `len`-byte
/// payload and then fail, simulating a crash mid-write.
#[inline]
pub fn partial_write(site: &str, len: usize) -> Option<usize> {
    if !enabled() {
        return None;
    }
    match decide(site) {
        Some(FaultKind::Partial(f)) => Some(((len as f32 * f.clamp(0.0, 1.0)) as usize).min(len)),
        _ => None,
    }
}

/// Hook: sleeps if a `StallMs` fault fires at `site` (simulates a stalled
/// read/slow disk/scheduling hiccup).
#[inline]
pub fn stall(site: &str) {
    if !enabled() {
        return;
    }
    if let Some(FaultKind::StallMs(ms)) = decide(site) {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Hook: panics if a `Panic` fault fires at `site`.
#[inline]
pub fn maybe_panic(site: &str) {
    if !enabled() {
        return;
    }
    if let Some(FaultKind::Panic) = decide(site) {
        panic!("chaos: injected panic at {site}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_are_noops_without_a_plan() {
        // No guard installed (and POE_CHAOS unset in the test env).
        let _lock = test_lock().lock().unwrap_or_else(PoisonError::into_inner);
        assert!(fail_io(sites::STORE_WRITE_IO).is_none());
        assert!(partial_write(sites::STORE_WRITE_PARTIAL, 100).is_none());
        maybe_panic(sites::SERVE_WORKER_PANIC); // must not panic
        stall(sites::NET_EPOLL_TICK_STALL); // must not sleep
    }

    #[test]
    fn always_rules_fire_and_guard_restores() {
        let guard = ChaosPlan::new(1)
            .with(Fault::always(sites::STORE_READ_IO, FaultKind::Io))
            .install();
        // Read under the guard's lock: another test of this binary fires
        // the same site.
        let before = hits(sites::STORE_READ_IO);
        assert!(enabled());
        assert!(fail_io(sites::STORE_READ_IO).is_some());
        assert!(fail_io(sites::STORE_READ_IO).is_some());
        assert_eq!(hits(sites::STORE_READ_IO), before + 2);
        drop(guard);
        assert!(fail_io(sites::STORE_READ_IO).is_none());
    }

    #[test]
    fn hit_caps_limit_firings() {
        let _guard = ChaosPlan::new(2)
            .with(Fault::times(sites::NET_EPOLL_WRITE_IO, FaultKind::Io, 2))
            .install();
        assert!(fail_io(sites::NET_EPOLL_WRITE_IO).is_some());
        assert!(fail_io(sites::NET_EPOLL_WRITE_IO).is_some());
        assert!(fail_io(sites::NET_EPOLL_WRITE_IO).is_none());
    }

    #[test]
    fn probabilities_are_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let _guard = ChaosPlan::new(seed)
                .with(Fault::with_prob(sites::STORE_WRITE_IO, FaultKind::Io, 0.5))
                .install();
            (0..32)
                .map(|_| fail_io(sites::STORE_WRITE_IO).is_some())
                .collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must give the same fault schedule");
        assert_ne!(a, c, "different seeds should differ (32 draws)");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }

    #[test]
    fn injections_leave_a_flight_recorder_trail() {
        let rec = poe_obs::FlightRecorder::global();
        let before = rec.recorded();
        let _guard = ChaosPlan::new(9)
            .with(Fault::always(sites::STORE_READ_IO, FaultKind::Io))
            .install();
        assert!(fail_io(sites::STORE_READ_IO).is_some());
        assert!(rec.recorded() > before);
        let trail: Vec<_> = rec
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == "chaos.inject" && e.detail.contains(sites::STORE_READ_IO))
            .collect();
        assert!(!trail.is_empty(), "injection must be visible in a dump");
        assert!(trail[0].detail.contains("kind=Io"), "{:?}", trail[0]);
    }

    #[test]
    fn partial_write_scales_length() {
        let _guard = ChaosPlan::new(3)
            .with(Fault::always(
                sites::STORE_WRITE_PARTIAL,
                FaultKind::Partial(0.25),
            ))
            .install();
        assert_eq!(partial_write(sites::STORE_WRITE_PARTIAL, 100), Some(25));
    }

    #[test]
    fn spec_parsing_round_trips() {
        let p = ChaosPlan::parse(
            42,
            "store.write.io=1.0; net.epoll.tick.stall=0.5@250 ;serve.worker.panic=1.0x3;router.shard.partition=1.0x8",
        )
        .unwrap();
        assert_eq!(p.faults.len(), 4);
        assert_eq!(p.faults[0].kind, FaultKind::Io);
        assert_eq!(p.faults[1].kind, FaultKind::StallMs(250));
        assert_eq!(p.faults[1].prob, 0.5);
        assert_eq!(p.faults[2].kind, FaultKind::Panic);
        assert_eq!(p.faults[2].max_hits, Some(3));
        assert_eq!(
            p.faults[3].kind,
            FaultKind::Io,
            "a partition is an io fault"
        );
        assert_eq!(p.faults[3].max_hits, Some(8));
        assert!(ChaosPlan::parse(0, "noequals").is_err());
        assert!(ChaosPlan::parse(0, "site.unknown=1.0").is_err());
        assert!(ChaosPlan::parse(0, "store.write.io=notafloat").is_err());
    }
}
