//! The serve-mix request generator: seeded draws of benchmark × machine
//! × energy model × W for `POST /v1/select` and `POST /v1/sim`. The seed
//! reaches the server only through these bodies.
//!
//! The traffic model is a synthetic one: every request is an independent
//! uniform draw of bench × memory latency × idle factor × W, sent to
//! `/v1/select` with probability 3/4 and to `/v1/sim` with 1/4. No
//! recorded request log exists to derive it from. The four request
//! classes follow from that draw alone: a *repeat* draws a (path, body)
//! drawn before, a *cold* request is the first for its (bench, memory
//! latency) and prepares the program, and the rest are warm selections
//! and simulations.
//!
//! The generator is stratified so the work does not move with the seed:
//! each class count is the draw's expected value (see [`Shape`]), spread
//! over the (bench, memory latency) pairs in a fixed pattern, since the
//! benchmarks differ in cost by 5×. The seed picks only each request's W
//! and idle factor, the order of the warm requests, and which earlier
//! body each repeat copies. So the latency percentiles sit inside the
//! same class for every seed: the median among warm selections, p98
//! among cold prepares.

use preexec_json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The W grid requests draw from: nine evenly spaced points on [0, 1].
pub const W_GRID: [f64; 9] = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0];
/// Main-memory latencies requests draw from, in cycles.
pub const MEM_LATENCIES: [u64; 2] = [200, 300];
/// Idle-power fractions requests draw from.
pub const IDLE_FACTORS: [f64; 2] = [0.05, 0.10];
/// Requests per repetition.
pub const REQUESTS: usize = 300;
/// Share of requests sent to `/v1/sim`; the rest go to `/v1/select`.
pub const SIM_SHARE: f64 = 0.25;

/// What serving a request costs, known from the request sequence alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// An exact repeat of an earlier body: answered from the response
    /// cache, or joined onto the computation still in flight.
    Repeat,
    /// The first request for its (benchmark, memory latency): the engine
    /// prepares the program from scratch.
    Cold,
    /// A selection on an already-prepared program.
    Select,
    /// A selection plus a timing simulation on a prepared program.
    Sim,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 4] = [Class::Repeat, Class::Select, Class::Sim, Class::Cold];

    /// Metric-name stem (`serve.<name>.p50_ms`).
    pub fn name(self) -> &'static str {
        match self {
            Class::Repeat => "repeat",
            Class::Cold => "cold",
            Class::Select => "select",
            Class::Sim => "sim",
        }
    }
}

/// One generated request.
#[derive(Clone, Debug, PartialEq)]
pub struct MixRequest {
    /// `/v1/select` or `/v1/sim`.
    pub path: &'static str,
    /// The JSON body.
    pub body: String,
    /// Its cost class.
    pub class: Class,
}

/// Request counts of one path, as the expected values of the
/// independent draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathCounts {
    /// Cold requests (first for their pair) on this path.
    pub cold: usize,
    /// Other distinct bodies.
    pub warm: usize,
    /// Repeats of a body sent before on this path.
    pub repeat: usize,
}

/// The class counts of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// `/v1/select` requests.
    pub select: PathCounts,
    /// `/v1/sim` requests.
    pub sim: PathCounts,
}

impl Shape {
    /// Expected counts of `requests` independent draws over `benches`
    /// benchmarks. A path with share `p` gets `n = p × requests` draws over
    /// `k` equally likely bodies, of which `k (1 − (1 − 1/k)^n)` are
    /// distinct on average; the rest are repeats. Every (bench, memory
    /// latency) pair is drawn at least once (at 300 requests and 20
    /// pairs, all but with probability 4e-6), and its first request goes
    /// to `/v1/sim` with probability `SIM_SHARE`.
    pub fn expected(requests: usize, benches: usize) -> Shape {
        let pairs = benches * MEM_LATENCIES.len();
        let bodies = (pairs * IDLE_FACTORS.len() * W_GRID.len()) as f64;
        let counts = |share: f64, cold: usize| {
            let n = share * requests as f64;
            let distinct = bodies * (1.0 - (1.0 - 1.0 / bodies).powf(n));
            PathCounts {
                cold,
                warm: distinct.round() as usize - cold,
                repeat: (n - distinct).round() as usize,
            }
        };
        let cold_sims = (SIM_SHARE * pairs as f64).round() as usize;
        Shape {
            select: counts(1.0 - SIM_SHARE, pairs - cold_sims),
            sim: counts(SIM_SHARE, cold_sims),
        }
    }
}

/// The generator for `seed`: the in-tree `rand` stand-in, keyed by the
/// seed alone.
fn rng_for(seed: u64) -> StdRng {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    StdRng::from_seed(bytes)
}

/// Shuffles `items` in place (Fisher–Yates).
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i as u64 + 1) as usize);
    }
}

/// A body: (bench, memory latency, W, idle factor).
type Body<'a> = (&'a str, u64, f64, f64);

fn request(path: &'static str, class: Class, b: Body) -> MixRequest {
    let body = Json::object()
        .with("bench", b.0)
        .with("target", "weighted")
        .with("weight", b.2)
        .with("mem_latency", b.1)
        .with("idle_factor", b.3)
        .to_string();
    MixRequest { path, body, class }
}

/// Of `n` requests spread evenly over `pairs` pairs in a fixed pattern,
/// how many pair `i` gets.
fn spread(n: usize, pairs: usize, i: usize) -> usize {
    (i + 1) * n / pairs - i * n / pairs
}

/// The mix over `benches`, drawn from `seed`, with the counts of
/// [`Shape::expected`]. One cold request per (memory latency, benchmark)
/// pair comes first, in pair order; every fourth is a `/v1/sim`. Then the
/// warm requests, spread evenly over the pairs, each pair's bodies on a
/// path distinct, shuffled and interleaved with the repeats, each of
/// which copies a uniformly chosen earlier body of its path.
pub fn generate(seed: u64, benches: &[String]) -> Vec<MixRequest> {
    let mut rng = rng_for(seed);
    let shape = Shape::expected(REQUESTS, benches.len());
    // Each path with the class of its warm requests.
    let paths = [
        ("/v1/select", Class::Select, shape.select),
        ("/v1/sim", Class::Sim, shape.sim),
    ];
    // Latency-major, so the cold simulations cover both latencies.
    let pairs: Vec<(&str, u64)> = MEM_LATENCIES
        .iter()
        .flat_map(|&m| benches.iter().map(move |b| (b.as_str(), m)))
        .collect();
    let draws: Vec<(f64, f64)> = W_GRID
        .iter()
        .flat_map(|&w| IDLE_FACTORS.iter().map(move |&i| (w, i)))
        .collect();

    // Cold requests keep a fixed pair order: which programs are prepared
    // side by side sets the peak memory, and that should not move with
    // the seed.
    let mut out: Vec<MixRequest> = Vec::with_capacity(REQUESTS);
    let mut warm = Vec::new();
    for (i, &(bench, mem)) in pairs.iter().enumerate() {
        let cold_sim = spread(shape.sim.cold, pairs.len(), i) == 1;
        for &(path, class, counts) in &paths {
            // The pair's bodies on this path, in seeded order: its cold
            // one first, if it has one here.
            let mut bodies = draws.clone();
            shuffle(&mut rng, &mut bodies);
            let mut bodies = bodies.into_iter().map(|(w, idle)| (bench, mem, w, idle));
            if cold_sim == (class == Class::Sim) {
                let body = bodies.next().expect("18 draws per pair and path");
                out.push(request(path, Class::Cold, body));
            }
            let n = spread(counts.warm, pairs.len(), i);
            warm.extend(bodies.take(n).map(|b| request(path, class, b)));
        }
    }
    shuffle(&mut rng, &mut warm);

    // Interleave the repeats: `Some(path)` slots repeat a body of `path`.
    let mut slots: Vec<Option<&'static str>> = std::iter::repeat_n(None, warm.len())
        .chain(
            paths
                .iter()
                .flat_map(|&(path, _, c)| std::iter::repeat_n(Some(path), c.repeat)),
        )
        .collect();
    shuffle(&mut rng, &mut slots);
    let mut warm = warm.into_iter();
    for slot in slots {
        let next = match slot {
            None => warm.next().expect("one warm request per slot"),
            Some(path) => {
                let earlier: Vec<&MixRequest> = out
                    .iter()
                    .filter(|r| r.path == path && r.class != Class::Repeat)
                    .collect();
                let pick = earlier[rng.gen_range(0..earlier.len() as u64) as usize];
                MixRequest {
                    class: Class::Repeat,
                    ..pick.clone()
                }
            }
        };
        out.push(next);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benches() -> Vec<String> {
        crate::workloads::suite_and_gen(7)
    }

    #[test]
    fn same_seed_same_bodies_other_seed_other_bodies() {
        let a = generate(7, &benches());
        let b = generate(7, &benches());
        let c = generate(11, &benches());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), REQUESTS);
    }

    #[test]
    fn bodies_satisfy_the_strict_request_dto() {
        for r in generate(3, &benches()) {
            let json = preexec_json::parse(&r.body).unwrap();
            let eval = preexec_json::dto::EvalRequest::from_json(&json).unwrap();
            assert_eq!(eval.target, "weighted");
            assert!(W_GRID.contains(&eval.weight.unwrap()));
        }
    }

    #[test]
    fn the_counts_are_the_expected_values_of_the_three_to_one_draw() {
        // 225 selects over 360 bodies: 167.4 distinct on average, 57.6
        // repeats; 75 sims: 67.7 distinct, 7.3 repeats. 5 of the 20 first
        // requests per pair are sims.
        let shape = Shape::expected(300, 10);
        assert_eq!(
            shape.select,
            PathCounts {
                cold: 15,
                warm: 152,
                repeat: 58
            }
        );
        assert_eq!(
            shape.sim,
            PathCounts {
                cold: 5,
                warm: 63,
                repeat: 7
            }
        );
    }

    /// The path, class and (bench, memory latency) of every request that
    /// is not a repeat, sorted: its work, all but W and idle factor.
    fn work(reqs: &[MixRequest]) -> Vec<String> {
        let mut keys: Vec<String> = reqs
            .iter()
            .filter(|r| r.class != Class::Repeat)
            .map(|r| {
                let json = preexec_json::parse(&r.body).unwrap();
                let field = |k: &str| json.get(k).unwrap().to_string();
                let (bench, mem) = (field("bench"), field("mem_latency"));
                format!("{} {:?} {bench} {mem}", r.path, r.class)
            })
            .collect();
        keys.sort();
        keys
    }

    #[test]
    fn the_shape_is_the_same_for_every_seed() {
        let shape = Shape::expected(REQUESTS, 10);
        let first = generate(1, &benches());
        for seed in [1, 7, 11, 12345] {
            let reqs = generate(seed, &benches());
            assert_eq!(work(&reqs), work(&first), "seed {seed}");
            let count = |path: &str, c: Class| {
                reqs.iter()
                    .filter(|r| r.path == path && r.class == c)
                    .count()
            };
            for (path, warm, counts) in [
                ("/v1/select", Class::Select, shape.select),
                ("/v1/sim", Class::Sim, shape.sim),
            ] {
                assert_eq!(count(path, Class::Cold), counts.cold);
                assert_eq!(count(path, warm), counts.warm);
                assert_eq!(count(path, Class::Repeat), counts.repeat);
            }
            assert_eq!(count("/v1/sim", Class::Select), 0);
            assert_eq!(count("/v1/select", Class::Sim), 0);
            // Colds come first, one per pair; every repeat copies an
            // earlier body; no other body occurs twice.
            assert!(reqs[..20].iter().all(|r| r.class == Class::Cold));
            let mut seen = std::collections::HashSet::new();
            for r in &reqs {
                let fresh = seen.insert((r.path, r.body.clone()));
                assert_eq!(fresh, r.class != Class::Repeat, "{r:?}");
            }
        }
    }
}
