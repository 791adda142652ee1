//! The workloads: their datasets, their op scripts and their write pools,
//! all made from the workload seed. `BENCHMARK.json` runs mixed-gowalla
//! and max-corridor; search-dblp is run by hand (see README.md).
//!
//! Each dataset is a fixed-shape graph (a `kr_datagen` preset at scale 1,
//! or the geo corridor) whose vertex ids are rotated by a seeded offset.
//! The rotation makes every seed a different input — other ids, other
//! snapshot bytes, other tie-breaks — while keeping the graph's shape and
//! memory locality, so one seed costs about what another does. (A fresh
//! generator seed per run changes the graph itself, and with it a query's
//! cost by 10× or more, which no run-to-run bound could absorb.)
//!
//! Writes only ever toggle pairs from a fixed seeded pool, so the graph at
//! any op is the initial graph with the pool pairs that are currently
//! "on" added. The bitmask of those pairs (the *pool state*) therefore
//! names the graph an op ran against.

use crate::stats::Rng;
use kr_datagen::DatasetPreset;
use kr_graph::{Graph, VertexId};
use kr_similarity::{
    top_permille_threshold, AttributeTable, Metric, SimilarityOracle, TableOracle, Threshold,
};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SearchDblp,
    MixedGowalla,
    MaxCorridor,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SearchDblp,
        Workload::MixedGowalla,
        Workload::MaxCorridor,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchDblp => "search-dblp",
            Workload::MixedGowalla => "mixed-gowalla",
            Workload::MaxCorridor => "max-corridor",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The first ops of every run: the counts over them must repeat
    /// exactly on a fixed seed, and a sample of their queries is checked
    /// from scratch. A run lasts at least this many ops.
    pub fn prefix_ops(self) -> usize {
        match self {
            // One round: every key cold, the first one warm twice more.
            Workload::SearchDblp => 5 * (2 + self.write_adds()),
            Workload::MixedGowalla => 400,
            // One round: every key once, cold.
            Workload::MaxCorridor => 3 * (2 + self.write_adds()),
        }
    }

    /// Single-edge adds after each query on the read-mostly workloads
    /// (then one batch removes them): enough writes for a steady update
    /// series, too few to move query throughput.
    fn write_adds(self) -> usize {
        match self {
            Workload::SearchDblp => 8,
            Workload::MixedGowalla => 0,
            Workload::MaxCorridor => 16,
        }
    }

    /// Pool pairs of the read-mostly workloads: one round's adds, so every
    /// round adds each pair once (see [`Plan::next_pair`]).
    fn round_pool(self, queries_per_round: usize) -> usize {
        queries_per_round * self.write_adds()
    }

    /// Query ops in the prefix whose answers are also computed from
    /// scratch (a seeded sample, checked off the clock).
    pub fn scratch_checks(self) -> usize {
        match self {
            Workload::SearchDblp => 2,
            Workload::MixedGowalla => 24,
            Workload::MaxCorridor => 1,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    Enumerate,
    Maximum,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Query {
        kind: QueryKind,
        k: u32,
        r: f64,
        threads: usize,
    },
    /// Flip the pool pairs of the bitmask `pairs` in one write batch: add
    /// them when `add`, remove them otherwise. The script tracks the pool
    /// state, so every toggle is effective.
    Toggle { pairs: u64, add: bool },
}

impl Op {
    pub fn is_query(&self) -> bool {
        matches!(self, Op::Query { .. })
    }
}

/// A generated dataset, as written to the snapshot the server opens.
pub struct Dataset {
    /// Name the server registers the snapshot under.
    pub name: &'static str,
    pub graph: Graph,
    pub attributes: AttributeTable,
    pub metric: Metric,
    /// `original_ids[v]`: the id `v` had before the seeded rotation.
    pub original_ids: Vec<u64>,
}

impl Dataset {
    fn new(name: &'static str, graph: Graph, attributes: AttributeTable, metric: Metric) -> Self {
        let original_ids = (0..graph.num_vertices() as u64).collect();
        Dataset {
            name,
            graph,
            attributes,
            metric,
            original_ids,
        }
    }

    /// A `kr_datagen` preset at scale 1, with its own generator seed.
    fn preset(name: &'static str, preset: DatasetPreset) -> Self {
        let data = preset.generate_scaled(1.0);
        Dataset::new(name, data.graph, data.attributes, data.metric)
    }
    /// The query threshold for a raw `r`, as the server reads it.
    pub fn threshold(&self, r: f64) -> Threshold {
        if self.metric.is_distance() {
            Threshold::MaxDistance(r)
        } else {
            Threshold::MinSimilarity(r)
        }
    }

    /// An oracle for raw metric values (its threshold admits every pair).
    fn oracle(&self) -> TableOracle {
        let all = if self.metric.is_distance() {
            Threshold::MaxDistance(f64::MAX)
        } else {
            Threshold::MinSimilarity(0.0)
        };
        TableOracle::new(self.attributes.clone(), self.metric, all)
    }

    /// This dataset relabelled by `v -> (v + offset) mod n`.
    fn rotated(self, offset: usize) -> Dataset {
        let n = self.graph.num_vertices();
        let map = |v: VertexId| ((v as usize + offset) % n) as VertexId;
        let edges: Vec<(VertexId, VertexId)> =
            self.graph.edges().map(|(u, v)| (map(u), map(v))).collect();
        fn permute<T: Clone>(rows: Vec<T>, offset: usize) -> Vec<T> {
            let n = rows.len();
            let mut out = rows.clone();
            for (v, row) in rows.into_iter().enumerate() {
                out[(v + offset) % n] = row;
            }
            out
        }
        let attributes = match self.attributes {
            AttributeTable::Keywords(rows) => AttributeTable::Keywords(permute(rows, offset)),
            AttributeTable::Points(rows) => AttributeTable::Points(permute(rows, offset)),
            AttributeTable::Vectors(rows) => AttributeTable::Vectors(permute(rows, offset)),
        };
        Dataset {
            name: self.name,
            graph: Graph::from_edges(n, &edges),
            attributes,
            metric: self.metric,
            original_ids: permute(self.original_ids, offset),
        }
    }

    /// The graph with the pool pairs of `state` added.
    pub fn graph_at(&self, pool: &[(VertexId, VertexId)], state: u64) -> Graph {
        let mut edges: Vec<(VertexId, VertexId)> = self.graph.edges().collect();
        edges.extend(
            pool.iter()
                .enumerate()
                .filter(|(i, _)| state >> i & 1 == 1)
                .map(|(_, &e)| e),
        );
        Graph::from_edges(self.graph.num_vertices(), &edges)
    }
}

/// The geo corridor of the bench_smoke `geo-corridor` point: `clusters`
/// circulant rings of `size` vertices (each wired to its 3 nearest ring
/// successors), 6.0 apart on a line with 4 bridge edges between
/// consecutive rings. At r ≈ 7 only adjacent rings are similar, so the
/// single giant component holds ~1M dissimilar pairs and is served by the
/// lazy dissimilarity view.
fn corridor(clusters: usize, size: usize) -> (Graph, AttributeTable) {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut pts = Vec::new();
    for c in 0..clusters {
        let base = (c * size) as VertexId;
        for i in 0..size as VertexId {
            for d in 1..=3u32 {
                edges.push((base + i, base + (i + d) % size as VertexId));
            }
        }
        if c + 1 < clusters {
            let next = ((c + 1) * size) as VertexId;
            for i in 0..4u32 {
                edges.push((base + i, next + i));
            }
        }
        for i in 0..size {
            let ang = i as f64 / size as f64 * std::f64::consts::TAU;
            pts.push((c as f64 * 6.0 + ang.cos(), ang.sin()));
        }
    }
    (
        Graph::from_edges(clusters * size, &edges),
        AttributeTable::points(pts),
    )
}

/// Everything one run needs: the dataset, the write pool and the script.
pub struct Plan {
    pub workload: Workload,
    pub dataset: Dataset,
    /// Pairs the writes toggle; none is an edge of the initial graph.
    pub pool: Vec<(VertexId, VertexId)>,
    /// The query keys `(k, r)`; the first one's `r` also serves the
    /// warm-up query.
    pub keys: Vec<(u32, f64)>,
    rng: Rng,
    state: u64,
    pending: VecDeque<Op>,
    /// Pool pairs still to be written this pass (see [`Plan::next_pair`]).
    deck: Vec<usize>,
}

/// Seed of every write pool (see [`Plan::new`]).
const POOL_SEED: u64 = 0x9001;

/// Draws `count` distinct non-edges `(u, v)`, `u < v`, that satisfy
/// `want`, each endpoint chosen with probability proportional to its
/// degree: the endpoint of a uniformly random edge. New edges in evolving
/// social networks attach to a vertex about in proportion to its degree
/// (Leskovec et al., "Microscopic evolution of social networks", KDD
/// 2008), so the pool holds the hubs' costly writes in the share real
/// traffic has them.
fn draw_pairs(
    rng: &mut Rng,
    graph: &Graph,
    count: usize,
    taken: &mut Vec<(VertexId, VertexId)>,
    mut want: impl FnMut(VertexId, VertexId) -> bool,
) {
    let ends: Vec<VertexId> = graph.edges().flat_map(|(u, v)| [u, v]).collect();
    let goal = taken.len() + count;
    while taken.len() < goal {
        let (a, b) = (ends[rng.below(ends.len())], ends[rng.below(ends.len())]);
        let (u, v) = (a.min(b), a.max(b));
        if u != v && !graph.has_edge(u, v) && !taken.contains(&(u, v)) && want(u, v) {
            taken.push((u, v));
        }
    }
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let base = match workload {
            Workload::SearchDblp => Dataset::preset("dblp", DatasetPreset::DblpLike),
            Workload::MixedGowalla => Dataset::preset("gowalla", DatasetPreset::GowallaLike),
            Workload::MaxCorridor => {
                let (graph, attributes) = corridor(26, 40);
                Dataset::new("corridor", graph, attributes, Metric::Euclidean)
            }
        };
        let oracle = base.oracle();
        // The pool is drawn before the rotation and from a fixed seed, so
        // every seed's writes touch pairs of the same shape (relabelled
        // with the rest of the graph) and cost the same.
        let mut pool_rng = Rng::new(POOL_SEED);
        let mut pool = Vec::new();
        let keys = match workload {
            Workload::SearchDblp => {
                // Keyword `r` on the wire is a raw min-similarity: resolve
                // the top-10‰ point the way bench_smoke does (exactly, at
                // this size, so the rotation does not move it).
                let n = base.graph.num_vertices();
                let r = top_permille_threshold(&oracle, n, 10.0, 3000, 0x5EED);
                // Dissimilar at every key: each write is repaired, so the
                // cache keeps serving hits.
                let pairs = workload.round_pool(5);
                draw_pairs(&mut pool_rng, &base.graph, pairs, &mut pool, |u, v| {
                    oracle.value(u, v) < r
                });
                vec![(3, r), (4, r), (5, r)]
            }
            Workload::MixedGowalla => {
                // A few pairs close enough to be similar at every radius
                // (their writes can invalidate), most too far apart to be
                // similar at any (their writes are repaired).
                draw_pairs(&mut pool_rng, &base.graph, 8, &mut pool, |u, v| {
                    oracle.value(u, v) <= 3.0
                });
                draw_pairs(&mut pool_rng, &base.graph, 24, &mut pool, |u, v| {
                    oracle.value(u, v) > 8.5
                });
                // Keys where search stays small: k = 3 and 4 get costly
                // (10–100 ms) at the wider radii, so those are left out.
                let mut keys = Vec::new();
                for k in 3..=6u32 {
                    for step in 0..=8 {
                        let r = 4.0 + 0.5 * f64::from(step);
                        if (k == 3 && r >= 6.0) || (k == 4 && r >= 7.5) {
                            continue;
                        }
                        keys.push((k, r));
                    }
                }
                keys
            }
            Workload::MaxCorridor => {
                let pairs = workload.round_pool(3);
                draw_pairs(&mut pool_rng, &base.graph, pairs, &mut pool, |u, v| {
                    oracle.value(u, v) > 9.0
                });
                vec![(3, 6.5), (3, 7.0), (3, 7.5)]
            }
        };
        assert!(pool.len() <= 64, "the pool state is a u64 bitmask");
        let mut rng = Rng::new(seed);
        let n = base.graph.num_vertices();
        let offset = 1 + rng.below(n - 1);
        let map = |v: VertexId| ((v as usize + offset) % n) as VertexId;
        let pool = pool
            .into_iter()
            .map(|(u, v)| (map(u).min(map(v)), map(u).max(map(v))))
            .collect();
        Plan {
            workload,
            dataset: base.rotated(offset),
            pool,
            keys,
            rng,
            state: 0,
            pending: VecDeque::new(),
            deck: Vec::new(),
        }
    }

    /// Next op of the script, with the pool state it runs against.
    pub fn next_op(&mut self) -> (Op, u64) {
        if self.pending.is_empty() {
            self.refill();
        }
        let op = self.pending.pop_front().expect("refill adds ops");
        let before = self.state;
        if let Op::Toggle { pairs, .. } = op {
            self.state ^= pairs;
        }
        (op, before)
    }

    /// Whether the script is at a round boundary: every op appended so far
    /// has been handed out. Runs end at one, so that every run is whole
    /// rounds and carries the same mix of keys and write pairs.
    pub fn at_round_end(&self) -> bool {
        self.pending.is_empty()
    }

    /// The pool pair the next write toggles. Writes go through the pool
    /// in passes, each a seeded shuffle of every pair, so every pair is
    /// written equally often (on the read-mostly workloads a pass is one
    /// round) and every run pays the same write-cost mix.
    fn next_pair(&mut self) -> usize {
        if self.deck.is_empty() {
            self.deck = (0..self.pool.len()).collect();
            self.rng.shuffle(&mut self.deck);
        }
        self.deck.pop().expect("the pool is not empty")
    }

    fn toggle(&mut self, pairs: u64, state: &mut u64) -> Op {
        let add = *state & pairs == 0;
        debug_assert!(add || *state & pairs == pairs, "pairs flip together");
        *state ^= pairs;
        Op::Toggle { pairs, add }
    }

    /// Appends one round of the script.
    fn refill(&mut self) {
        // The state as it will be once every pending op has run.
        let mut state = self.state;
        match self.workload {
            Workload::SearchDblp | Workload::MaxCorridor => {
                let (kind, threads) = if self.workload == Workload::SearchDblp {
                    (QueryKind::Enumerate, 1)
                } else {
                    (QueryKind::Maximum, 2)
                };
                let mut order = self.keys.clone();
                if self.workload == Workload::SearchDblp {
                    // bench_smoke's (k = 3, top-10‰) point three times a
                    // round: the median query is that key, whose search the
                    // chooser item targets. (With the keys at equal weight
                    // the median was the k = 4 key, whose time moved by a
                    // third between runs with the machine's load.)
                    order.extend([self.keys[0]; 2]);
                }
                self.rng.shuffle(&mut order);
                for (k, r) in order {
                    self.pending.push_back(Op::Query {
                        kind,
                        k,
                        r,
                        threads,
                    });
                    // Single-edge adds, then one batch that removes them
                    // all: real writes (version bump, index maintenance,
                    // cache repair) that leave the graph as it was, so
                    // every query sees the initial graph.
                    let mut added = 0u64;
                    for _ in 0..self.workload.write_adds() {
                        let pair = 1 << self.next_pair();
                        added |= pair;
                        let add = self.toggle(pair, &mut state);
                        self.pending.push_back(add);
                    }
                    let remove = self.toggle(added, &mut state);
                    self.pending.push_back(remove);
                }
            }
            Workload::MixedGowalla => {
                for _ in 0..3 {
                    let (k, r) = self.keys[self.rng.below(self.keys.len())];
                    let kind = if self.rng.below(3) < 2 {
                        QueryKind::Enumerate
                    } else {
                        QueryKind::Maximum
                    };
                    self.pending.push_back(Op::Query {
                        kind,
                        k,
                        r,
                        threads: 1,
                    });
                }
                let pair = 1 << self.next_pair();
                let op = self.toggle(pair, &mut state);
                self.pending.push_back(op);
            }
        }
    }
}
