//! Seeded workload inputs. Every input is a pure function of the
//! workload seed and an input id, so a run can regenerate any input it
//! submitted (for verification) without keeping it in memory, and the
//! same seed always replays the same request stream.

use ss_core::{Engine, EngineConfig};
use ss_server::JobSpec;
use ss_telemetry::mix64;
use ss_testdata::{generate_test_set, CubeProfile, TestSet, WorkloadRegistry};

/// Engine knobs of every workload: the golden corpus's `L=24 S=4 k=6`.
pub const WINDOW: usize = 24;
/// Segment size `S`.
pub const SEGMENT: usize = 4;
/// State Skip speedup `k`.
pub const SPEEDUP: u64 = 6;

/// Cube-count scale of the cold-mix and churn-fleet profiles (the
/// golden corpus scale).
pub const GOLDEN_SCALE: f64 = 0.1;
/// Cube-count scale of the warm-repeat registry profiles.
pub const WARM_SCALE: f64 = 0.25;
/// Inputs per cold-mix profile in the fixed accounting list.
pub const COLD_LIST_ROUNDS: u64 = 8;
/// Distinct keys in the churn-fleet popularity population.
pub const CHURN_KEYS: u64 = 64;
/// Zipf exponent of churn-fleet key popularity.
pub const CHURN_ZIPF: f64 = 1.0;
/// Share of churn-fleet draws that are never-seen keys.
pub const CHURN_FRESH_SHARE: f64 = 0.05;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed held out of tuning, for stating claims.
pub const HELD_OUT_SEED: u64 = 1001;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Never-seen test sets over `mini` and the five paper profiles.
    ColdMix,
    /// The nine registry workloads resubmitted after a prefill.
    WarmRepeat,
    /// A replicated two-shard fleet under skewed key popularity.
    ChurnFleet,
}

impl Workload {
    /// Every workload the runner knows.
    pub const ALL: [Workload; 3] = [
        Workload::ColdMix,
        Workload::WarmRepeat,
        Workload::ChurnFleet,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order. cold-mix is
    /// left out: its timings spread by up to 0.33 of their median
    /// over ten seeds on a shared 2-core box, beyond any allowed
    /// bound, so it serves encoder A/B runs and the self-tests only.
    pub const BENCHMARKED: [Workload; 2] = [Workload::WarmRepeat, Workload::ChurnFleet];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMix => "cold-mix",
            Workload::WarmRepeat => "warm-repeat",
            Workload::ChurnFleet => "churn-fleet",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (its `why` in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdMix => {
                "never-seen test sets over six profiles: every tier misses, so synthesize and encode do the work"
            }
            Workload::WarmRepeat => {
                "the nine registry workloads resubmitted after a prefill: every job is a memory hit, so codec, protocol and embed show"
            }
            Workload::ChurnFleet => {
                "two replicated shards, skewed keys plus fresh ones, memory below the working set: evictions, disk hits and replication"
            }
        }
    }

    /// Client threads driving the workload.
    pub fn clients(self) -> usize {
        match self {
            Workload::ColdMix | Workload::WarmRepeat => 2,
            Workload::ChurnFleet => 1,
        }
    }

    /// Server processes (shards) hosting the workload.
    pub fn shards(self) -> usize {
        match self {
            Workload::ChurnFleet => 2,
            _ => 1,
        }
    }
}

/// One submittable input and the engine it is served with.
#[derive(Debug, Clone)]
pub struct Input {
    /// Profile or registry name (what per-profile metrics group by).
    pub label: &'static str,
    /// The cube set.
    pub set: TestSet,
    /// Engine configuration (LFSR size pinned for profiles).
    pub config: EngineConfig,
    /// The wire submission.
    pub spec: JobSpec,
}

impl Input {
    fn new(label: &'static str, set: TestSet, lfsr_size: Option<usize>) -> Input {
        let mut builder = Engine::builder()
            .window(WINDOW)
            .segment(SEGMENT)
            .speedup(SPEEDUP);
        if let Some(n) = lfsr_size {
            builder = builder.lfsr_size(n);
        }
        let config = *builder.build().expect("benchmark knobs are valid").config();
        let spec = JobSpec::new(&set, &config);
        Input {
            label,
            set,
            config,
            spec,
        }
    }
}

/// The six cold-mix profiles: `mini` at full size, the paper profiles
/// at the golden scale.
pub fn cold_profiles() -> Vec<CubeProfile> {
    let mut profiles = vec![CubeProfile::mini()];
    profiles.extend(
        CubeProfile::paper_circuits()
            .iter()
            .map(|p| p.scaled(GOLDEN_SCALE)),
    );
    profiles
}

/// SplitMix64 stream: the benchmark's only randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded from `seed` and a purpose tag.
    pub fn new(seed: u64, tag: u64) -> Rng {
        Rng(mix64(seed ^ mix64(tag)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Generator seed of input `id` under workload seed `seed`.
fn input_seed(seed: u64, id: u64) -> u64 {
    mix64(seed ^ mix64(id ^ 0x6532_6562_656e_6368))
}

/// Cold-mix input `id`: rounds of six, one per profile in a seeded
/// order, so every profile has equal weight in every prefix of whole
/// rounds and no two ids share a test set.
pub fn cold_input(seed: u64, id: u64) -> Input {
    let profile = cold_profile(seed, id);
    let set = generate_test_set(&profile, input_seed(seed, id));
    Input::new(profile.name, set, Some(profile.lfsr_size))
}

/// The profile of cold-mix input `id`, without generating its set.
pub fn cold_profile(seed: u64, id: u64) -> CubeProfile {
    let mut profiles = cold_profiles();
    let round = id / profiles.len() as u64;
    let mut order: Vec<usize> = (0..profiles.len()).collect();
    Rng::new(seed, round ^ 0xc01d).shuffle(&mut order);
    let pick = order[(id % profiles.len() as u64) as usize];
    profiles.swap_remove(pick)
}

/// Ids of the cold-mix fixed accounting list.
pub fn cold_list() -> std::ops::Range<u64> {
    0..COLD_LIST_ROUNDS * cold_profiles().len() as u64
}

/// A registry workload as served by warm-repeat (`scale` for profile
/// entries; file entries always full size).
pub fn registry_input(index: usize, scale: f64) -> Input {
    let w = &WorkloadRegistry::all()[index];
    match w.profile() {
        Some(profile) => Input::new(w.name, w.test_set_scaled(scale), Some(profile.lfsr_size)),
        None => Input::new(w.name, w.test_set(), None),
    }
}

/// The nine warm-repeat inputs, in registry order.
pub fn warm_inputs() -> Vec<Input> {
    (0..WorkloadRegistry::all().len())
        .map(|i| registry_input(i, WARM_SCALE))
        .collect()
}

/// Warm-repeat submission order of one client: seeded permutations of
/// the registry, one per round, for `rounds` rounds.
pub fn warm_order(seed: u64, client: usize, rounds: usize) -> Vec<usize> {
    let n = WorkloadRegistry::all().len();
    let mut rng = Rng::new(seed, 0x3a53 ^ client as u64);
    let mut order = Vec::with_capacity(rounds * n);
    for _ in 0..rounds {
        let mut round: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut round);
        order.extend(round);
    }
    order
}

/// Churn-fleet input `id`: ids below [`CHURN_KEYS`] are the popular
/// population, higher ids are never-seen keys.
pub fn churn_input(seed: u64, id: u64) -> Input {
    let profile = CubeProfile::s9234().scaled(GOLDEN_SCALE);
    let set = generate_test_set(&profile, input_seed(seed ^ 0xc4a2, id));
    Input::new(profile.name, set, Some(profile.lfsr_size))
}

/// Churn-fleet draw sequence: each draw is a population key with Zipf
/// popularity, or (with [`CHURN_FRESH_SHARE`]) the next never-seen key.
pub struct ChurnDraws {
    rng: Rng,
    cumulative: Vec<f64>,
    next_fresh: u64,
}

impl ChurnDraws {
    /// The draw stream of workload seed `seed`.
    pub fn new(seed: u64) -> ChurnDraws {
        let mut total = 0.0;
        let cumulative = (0..CHURN_KEYS)
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(CHURN_ZIPF);
                total
            })
            .collect();
        ChurnDraws {
            rng: Rng::new(seed, 0xd4a3),
            cumulative,
            next_fresh: CHURN_KEYS,
        }
    }
}

impl Iterator for ChurnDraws {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.rng.unit() < CHURN_FRESH_SHARE {
            self.next_fresh += 1;
            return Some(self.next_fresh - 1);
        }
        let total = *self.cumulative.last().expect("non-empty population");
        let x = self.rng.unit() * total;
        Some(self.cumulative.partition_point(|&c| c <= x) as u64)
    }
}
