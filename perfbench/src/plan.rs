//! Seeded request plans: which task sets, verbs and feature rows each
//! workload sends.
//!
//! A plan is a pure function of the workload and the seed. The benchmark
//! owns its generator (SplitMix64) so a change to the program's own random
//! numbers cannot change the requests it is measured with.

use std::collections::HashSet;

/// The workloads, by their permanent names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small, Zipf-popular task sets that fit the consolidation cache.
    Interactive,
    /// Wide, uniformly drawn task sets that mostly miss the cache.
    Catalog,
    /// The preprocessing phase, then interactive traffic on its pool.
    Preprocess,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Interactive,
        Workload::Catalog,
        Workload::Preprocess,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::Catalog => "catalog",
            Workload::Preprocess => "preprocess",
        }
    }
}

/// SplitMix64: small, fast, and fixed forever by this file.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct values of `0..n` in random order.
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k);
        all
    }
}

/// One request of a plan. Task sets are indices into [`Plan::sets`];
/// feature rows are indices into the test split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    Predict { set: usize, row: usize },
    Query { set: usize },
    Swap { task: usize },
}

#[derive(Debug, Clone)]
enum Popularity {
    /// Cumulative Zipf weights over catalog ranks.
    Zipf(Vec<f64>),
    Uniform,
}

/// A workload's request mix over its catalog of task sets.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Task sets in request order (the order defines the logit layout);
    /// distinct as sets.
    pub sets: Vec<Vec<usize>>,
    popularity: Popularity,
    predict_share: f64,
    swap_share: f64,
    num_tasks: usize,
    rows: usize,
    seed: u64,
}

impl Plan {
    /// The plan of `workload` over a pool of `num_tasks` primitive tasks,
    /// drawing feature rows from `0..rows`.
    pub fn new(workload: Workload, num_tasks: usize, rows: usize, seed: u64) -> Plan {
        // (set sizes, catalog size, Zipf exponent, PREDICT share, SWAP share)
        let (sizes, catalog, zipf, predict_share, swap_share) = match workload {
            Workload::Interactive | Workload::Preprocess => (1..=2, 32, Some(1.1), 7.0 / 8.0, 0.0),
            Workload::Catalog => (4..=6, 1024, None, 0.5, 1.0 / 256.0),
        };
        let mut rng = Rng::new(seed ^ 0x5EED_CA7A_1000);
        let mut seen = HashSet::new();
        let mut sets = Vec::with_capacity(catalog);
        while sets.len() < catalog {
            let k = sizes.start() + rng.below(sizes.end() - sizes.start() + 1);
            let set = rng.distinct(num_tasks, k);
            let mut key = set.clone();
            key.sort_unstable();
            if seen.insert(key) {
                sets.push(set);
            }
        }
        let popularity = match zipf {
            Some(s) => {
                let mut acc = 0.0;
                let mut cdf: Vec<f64> = (1..=catalog)
                    .map(|rank| {
                        acc += 1.0 / (rank as f64).powf(s);
                        acc
                    })
                    .collect();
                cdf.iter_mut().for_each(|c| *c /= acc);
                Popularity::Zipf(cdf)
            }
            None => Popularity::Uniform,
        };
        Plan {
            sets,
            popularity,
            predict_share,
            swap_share,
            num_tasks,
            rows,
            seed,
        }
    }

    /// The endless request stream of connection `conn`.
    pub fn stream(&self, conn: u64) -> Stream<'_> {
        Stream {
            plan: self,
            rng: Rng::new(self.seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (conn + 1) << 32),
        }
    }
}

/// A connection's request stream; never ends.
pub struct Stream<'a> {
    plan: &'a Plan,
    rng: Rng,
}

impl Iterator for Stream<'_> {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        let p = self.plan;
        if p.swap_share > 0.0 && self.rng.unit() < p.swap_share {
            return Some(Req::Swap {
                task: self.rng.below(p.num_tasks),
            });
        }
        let set = match &p.popularity {
            Popularity::Zipf(cdf) => {
                let u = self.rng.unit();
                cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
            }
            Popularity::Uniform => self.rng.below(p.sets.len()),
        };
        Some(if self.rng.unit() < p.predict_share {
            Req::Predict {
                set,
                row: self.rng.below(p.rows),
            }
        } else {
            Req::Query { set }
        })
    }
}

/// Replays `conns` streams round-robin through an LRU consolidation cache
/// of `capacity` sorted task sets (`SWAP` clears it, as a hot swap
/// invalidates the real cache) and returns the hit ratio after the first
/// `warmup` requests.
#[cfg(test)]
pub fn simulate_cache(
    plan: &Plan,
    conns: u64,
    requests: usize,
    warmup: usize,
    capacity: usize,
) -> f64 {
    let mut streams: Vec<Stream<'_>> = (0..conns).map(|c| plan.stream(c)).collect();
    let mut lru: Vec<Vec<usize>> = Vec::new();
    let (mut hits, mut lookups) = (0usize, 0usize);
    for i in 0..requests {
        let n = streams.len();
        let req = streams[i % n].next().expect("streams never end");
        let set = match req {
            Req::Swap { .. } => {
                lru.clear();
                continue;
            }
            Req::Predict { set, .. } | Req::Query { set } => set,
        };
        let mut key = plan.sets[set].clone();
        key.sort_unstable();
        let hit = match lru.iter().position(|k| *k == key) {
            Some(pos) => {
                lru.remove(pos);
                true
            }
            None => false,
        };
        lru.insert(0, key);
        lru.truncate(capacity);
        if i >= warmup {
            lookups += 1;
            hits += usize::from(hit);
        }
    }
    hits as f64 / lookups.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use poe_core::service::DEFAULT_CACHE_CAPACITY;

    fn first(plan: &Plan, conn: u64, n: usize) -> Vec<Req> {
        plan.stream(conn).take(n).collect()
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_other_stream() {
        for w in Workload::ALL {
            let a = Plan::new(w, 12, 540, 7);
            let b = Plan::new(w, 12, 540, 7);
            let c = Plan::new(w, 12, 540, 8);
            assert_eq!(a.sets, b.sets, "{}", w.name());
            assert_eq!(first(&a, 0, 2000), first(&b, 0, 2000), "{}", w.name());
            assert_eq!(first(&a, 1, 2000), first(&b, 1, 2000), "{}", w.name());
            assert_ne!(first(&a, 0, 2000), first(&a, 1, 2000), "{}", w.name());
            assert_ne!(first(&a, 0, 2000), first(&c, 0, 2000), "{}", w.name());
        }
    }

    #[test]
    fn catalogs_hold_distinct_sets_of_the_stated_sizes() {
        for (w, sizes, n) in [
            (Workload::Interactive, 1..=2, 32),
            (Workload::Catalog, 4..=6, 1024),
        ] {
            let plan = Plan::new(w, 12, 540, 3);
            assert_eq!(plan.sets.len(), n);
            let keys: HashSet<Vec<usize>> = plan
                .sets
                .iter()
                .map(|s| {
                    assert!(sizes.contains(&s.len()));
                    assert!(s.iter().all(|&t| t < 12));
                    let mut k = s.clone();
                    k.sort_unstable();
                    k.dedup();
                    assert_eq!(k.len(), s.len(), "duplicate task in {s:?}");
                    k
                })
                .collect();
            assert_eq!(keys.len(), n, "{}: catalog sets repeat", w.name());
        }
    }

    #[test]
    fn verb_mix_matches_the_plan() {
        let count = |plan: &Plan| {
            let mut c = [0usize; 3];
            for r in plan.stream(0).take(200_000) {
                c[match r {
                    Req::Predict { .. } => 0,
                    Req::Query { .. } => 1,
                    Req::Swap { .. } => 2,
                }] += 1;
            }
            c.map(|n| n as f64 / 200_000.0)
        };
        let i = count(&Plan::new(Workload::Interactive, 12, 540, 1));
        assert!((i[0] - 0.875).abs() < 0.01 && i[2] == 0.0, "{i:?}");
        let c = count(&Plan::new(Workload::Catalog, 12, 540, 1));
        assert!((c[0] - c[1]).abs() < 0.01, "{c:?}");
        assert!((c[2] - 1.0 / 256.0).abs() < 0.001, "{c:?}");
    }

    #[test]
    fn interactive_fits_the_cache_and_catalog_rarely_hits_it() {
        let cap = DEFAULT_CACHE_CAPACITY;
        for seed in [1, 2, 3] {
            let i = simulate_cache(
                &Plan::new(Workload::Interactive, 12, 540, seed),
                2,
                60_000,
                20_000,
                cap,
            );
            assert!(i > 0.999, "interactive hit ratio {i}");
            let p = simulate_cache(
                &Plan::new(Workload::Preprocess, 34, 3000, seed),
                2,
                60_000,
                20_000,
                cap,
            );
            assert!(p > 0.999, "preprocess serving hit ratio {p}");
            let c = simulate_cache(
                &Plan::new(Workload::Catalog, 12, 540, seed),
                2,
                60_000,
                20_000,
                cap,
            );
            assert!(c < 0.10, "catalog hit ratio {c}");
        }
    }

    #[test]
    fn router_replay_touches_one_shard_and_both_shards() {
        // The interactive lines the router replay sends, split as the
        // replay's two shards split the 12 tasks.
        let map = poe_router::ShardMap::parse("0-5=127.0.0.1:1;6-11=127.0.0.1:2").unwrap();
        let plan = Plan::new(Workload::Interactive, 12, 540, 5);
        let (mut one, mut both) = (0, 0);
        for r in plan.stream(0).take(20_000) {
            if let Req::Predict { set, .. } | Req::Query { set } = r {
                match map.split(&plan.sets[set]).unwrap().len() {
                    1 => one += 1,
                    2 => both += 1,
                    n => panic!("{n} shards"),
                }
            }
        }
        assert!(one > 2_000 && both > 2_000, "one={one} both={both}");
    }
}
