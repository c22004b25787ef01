//! Workload definitions and their seeded inputs.
//!
//! Everything here is a pure function of `(workload, seed)` and is computed
//! before any timing starts. The program under test only ever sees the
//! snapshot file written from [`Workload::graph`] and the client requests
//! built from [`UpdatePlan`].
//!
//! The cold path's inputs, the graph and the node ids, are the same for every
//! seed; the seed drives the update stream and the lookups. Across seeds
//! 100–109, `random_regular(2000, 48, seed)` under scattered ids took 1,786 to
//! 2,820 rounds and sent 21 to 88 million messages, and `grid_torus(500, 250)`
//! took 66 to 90 rounds, so seeded cold inputs would make `time_to_coloring_s` and
//! `local_rounds` measure the seed rather than the program.

use distgraph::{generators, EdgeId, Graph, UpdateBatch};
use distsim::faults::splitmix64;

/// Deletes (and, from the second update on, inserts) per update.
pub const OPS_PER_UPDATE: usize = 8;
/// Lookups issued after every update.
pub const LOOKUPS_PER_UPDATE: usize = 20;
/// Seed of `dense_regular`'s graph and of the scattered node ids the cold
/// path colors under. On `dense_regular` it gives 2,243 rounds and 49.8
/// million messages, near the middle of the range over seeds.
pub const COLD_SEED: u64 = 104;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `random_regular(2000, 48, COLD_SEED)`: small n, the full Theorem 1.1
    /// recursion; per-round fixed cost dominates.
    DenseRegular,
    /// `grid_torus(250, 200)`: shallow recursion (Linial + greedy finish
    /// only); most of the run is closed-loop serving, whose ticks walk the
    /// whole graph.
    ServeChurn,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::DenseRegular, Workload::ServeChurn];

    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseRegular => "dense_regular",
            Workload::ServeChurn => "serve_churn",
        }
    }

    /// The graph the workload's snapshot holds.
    pub fn graph(self) -> Graph {
        match self {
            Workload::DenseRegular => generators::random_regular(2000, 48, COLD_SEED)
                .expect("2000·48 is even and 48 < 2000"),
            Workload::ServeChurn => generators::grid_torus(250, 200),
        }
    }

    /// Share of the measured seconds spent on the cold-start path; the rest
    /// goes to serving.
    pub fn cold_share(self) -> f64 {
        match self {
            Workload::DenseRegular => 0.6,
            Workload::ServeChurn => 0.3,
        }
    }

    /// Whether `setup_s` times a daemon boot (snapshot → tenant → first
    /// answered handshake) rather than a snapshot load.
    pub fn setup_is_boot(self) -> bool {
        self == Workload::ServeChurn
    }
}

/// The seeded stream of closed-loop updates and lookups for one graph.
///
/// Update `i` deletes [`OPS_PER_UPDATE`] original edges and re-inserts the
/// endpoint pairs update `i − 1` deleted. Deletes walk a seeded permutation
/// of the lower half of the original stable ids, so each original edge is
/// deleted at most once; a re-inserted pair is never live or pending when it
/// is submitted. So every operation is admitted and no node's degree ever
/// exceeds its original degree: Δ is constant and no repair falls back to a
/// full recolor. Lookups target the upper half of the original ids, which
/// are never deleted, so every lookup must hit.
#[derive(Debug, Clone)]
pub struct UpdatePlan {
    seed: u64,
    /// Endpoints of every original edge, by stable id.
    endpoints: Vec<(u32, u32)>,
    /// Size of the deletable id range `[0, half)`.
    half: u64,
    /// Multiplier of the permutation `k ↦ (stride·k + offset) mod half`.
    stride: u64,
    offset: u64,
}

impl UpdatePlan {
    /// Builds the plan over `graph`'s original edges.
    pub fn new(graph: &Graph, seed: u64) -> Self {
        let endpoints: Vec<(u32, u32)> = graph
            .edges()
            .map(|e| {
                let (u, v) = graph.endpoints(e);
                (u.index() as u32, v.index() as u32)
            })
            .collect();
        let half = (endpoints.len() / 2).max(1) as u64;
        let mut stride = (splitmix64(seed ^ 0x5eed_0001) % half) | 1;
        while gcd(stride, half) != 1 {
            stride += 2;
        }
        UpdatePlan {
            seed,
            endpoints,
            half,
            stride,
            offset: splitmix64(seed ^ 0x5eed_0002) % half,
        }
    }

    /// Number of original edges.
    pub fn m(&self) -> usize {
        self.endpoints.len()
    }

    /// How many updates the plan can issue before it runs out of deletable
    /// edges.
    pub fn capacity(&self) -> usize {
        self.half as usize / OPS_PER_UPDATE
    }

    fn deleted(&self, update: usize) -> impl Iterator<Item = u64> + '_ {
        (0..OPS_PER_UPDATE).map(move |j| {
            let k = (update * OPS_PER_UPDATE + j) as u64;
            (self.stride.wrapping_mul(k) % self.half + self.offset) % self.half
        })
    }

    /// Update `i` as wire arguments: stable ids to delete and endpoint pairs
    /// to insert.
    ///
    /// # Panics
    ///
    /// If `i >= self.capacity()`.
    pub fn update(&self, i: usize) -> (Vec<u64>, Vec<(u32, u32)>) {
        assert!(i < self.capacity(), "update {i} exceeds the plan capacity");
        let delete = self.deleted(i).collect();
        let insert = match i {
            0 => Vec::new(),
            _ => self
                .deleted(i - 1)
                .map(|sid| self.endpoints[sid as usize])
                .collect(),
        };
        (delete, insert)
    }

    /// Update `i` as the batch the daemon's tick applies.
    pub fn batch(&self, i: usize) -> UpdateBatch {
        let (delete, insert) = self.update(i);
        UpdateBatch {
            delete: delete
                .into_iter()
                .map(|d| EdgeId::new(d as usize))
                .collect(),
            insert: insert
                .into_iter()
                .map(|(u, v)| (u as usize, v as usize))
                .collect(),
        }
    }

    /// The stable ids looked up after update `i`.
    pub fn lookups(&self, i: usize) -> [u64; LOOKUPS_PER_UPDATE] {
        let m = self.endpoints.len() as u64;
        let live = m - self.half;
        std::array::from_fn(|j| {
            let z = splitmix64(self.seed ^ ((i * LOOKUPS_PER_UPDATE + j) as u64) << 8);
            self.half + z % live
        })
    }

    /// Whether `(u, v)` are the endpoints of original edge `stable`, in
    /// either order.
    pub fn endpoints_match(&self, stable: u64, u: u64, v: u64) -> bool {
        let (a, b) = self.endpoints[stable as usize];
        let (a, b) = (u64::from(a), u64::from(b));
        (a, b) == (u, v) || (a, b) == (v, u)
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}
