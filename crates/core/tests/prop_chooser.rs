//! The Section 7.1 chooser must not depend on how its two-hop `Δ1`
//! estimate counts the dissimilar pairs inside a first-hop set.
//!
//! `Chooser::estimate` counts them with
//! `LocalComponent::count_dissimilar_in` (a popcount over the dense
//! dissimilarity matrix, or a mask-testing visit above
//! `kr_similarity::DENSE_MAX_N`). [`Reference`] below is the
//! streamed estimator it replaced: one dissimilar-row visit per first-hop
//! member, stamping the set. On random reachable search states
//! (expand / shrink / rollback walks) over eager and lazy components, and
//! over one lazy component just above the dense cap, both must agree bit
//! for bit, and `choose` must pick the same `(vertex, FirstBranch)` under
//! every `SearchOrder` as a chooser scoring with the reference.

use kr_core::order::{BranchEstimate, Chooser, FirstBranch, VertexEstimate};
use kr_core::search::{SearchState, Status};
use kr_core::{AlgoConfig, LocalComponent, SearchOrder};
use kr_graph::{Graph, VertexId};
use kr_similarity::{AttributeTable, DissimMode, Metric, TableOracle, Threshold, DENSE_MAX_N};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ORDERS: [SearchOrder; 6] = [
    SearchOrder::Random,
    SearchOrder::Degree,
    SearchOrder::Delta1,
    SearchOrder::Delta2,
    SearchOrder::Delta1ThenDelta2,
    SearchOrder::LambdaDelta,
];

/// The streamed two-hop estimator: first-hop members stamped, and the
/// within-set dissimilar pairs found by visiting each member's row.
struct Reference {
    drop: Vec<u32>,
    stamp: Vec<u32>,
    stamp_gen: u32,
}

impl Reference {
    fn new(n: usize) -> Self {
        Reference {
            drop: vec![0; n],
            stamp: vec![0; n],
            stamp_gen: 0,
        }
    }

    fn estimate(&mut self, st: &SearchState<'_>, v: VertexId) -> VertexEstimate {
        let dp_total = st.dp_c_total().max(1) as f64;
        let edges_total = st.edges_mc().max(1) as f64;
        let mut first_expand: Vec<VertexId> = Vec::new();
        st.comp.for_each_dissimilar(v, |w| {
            if st.status(w) == Status::Cand {
                first_expand.push(w);
            }
        });
        let (dp_e, ed_e) = self.two_hop(st, &first_expand);
        let (dp_s, ed_s) = self.two_hop(st, &[v]);
        VertexEstimate {
            expand: BranchEstimate {
                delta1: dp_e / dp_total,
                delta2: ed_e / edges_total,
            },
            shrink: BranchEstimate {
                delta1: dp_s / dp_total,
                delta2: ed_s / edges_total,
            },
        }
    }

    fn two_hop(&mut self, st: &SearchState<'_>, first: &[VertexId]) -> (f64, f64) {
        self.stamp_gen += 1;
        let gen = self.stamp_gen;
        let mut dp_removed = 0i64;
        let mut edges_removed = 0i64;
        for &d in first {
            self.stamp[d as usize] = gen;
        }
        for &d in first {
            dp_removed += st.dp_c(d) as i64;
            edges_removed += st.deg_mc(d) as i64;
            st.comp.for_each_dissimilar(d, |w| {
                if self.stamp[w as usize] == gen && w > d && st.status(w) == Status::Cand {
                    dp_removed -= 1;
                }
            });
            for &w in st.comp.neighbors(d) {
                if self.stamp[w as usize] == gen && w > d {
                    edges_removed -= 1;
                }
            }
        }
        let mut touched: Vec<VertexId> = Vec::new();
        for &d in first {
            for &w in st.comp.neighbors(d) {
                let wi = w as usize;
                if self.stamp[wi] != gen && st.status(w) == Status::Cand {
                    if self.drop[wi] == 0 {
                        touched.push(w);
                    }
                    self.drop[wi] += 1;
                }
            }
        }
        for &w in &touched {
            let wi = w as usize;
            if st.deg_mc(w).saturating_sub(self.drop[wi]) < st.k {
                dp_removed += st.dp_c(w) as i64;
                edges_removed += st.deg_mc(w) as i64;
            }
            self.drop[wi] = 0;
        }
        (dp_removed.max(0) as f64, edges_removed.max(0) as f64)
    }

    /// `Chooser::choose` with every score taken from the reference
    /// estimator (same candidate filter, RNG stream and tie-breaks).
    fn choose(
        &mut self,
        cfg: &AlgoConfig,
        rng: &mut StdRng,
        st: &SearchState<'_>,
        include_sf: bool,
    ) -> Option<(VertexId, FirstBranch)> {
        let candidates: Vec<VertexId> = (0..st.comp.len() as VertexId)
            .filter(|&v| st.status(v) == Status::Cand && (include_sf || st.dp_c(v) > 0))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let scored = |this: &mut Self, score: &dyn Fn(&VertexEstimate) -> (f64, f64)| {
            let mut best: Option<(VertexId, (f64, f64))> = None;
            for &v in &candidates {
                let s = score(&this.estimate(st, v));
                let better = match best {
                    None => true,
                    Some((_, bs)) => {
                        s.0 > bs.0 + 1e-12 || ((s.0 - bs.0).abs() <= 1e-12 && s.1 > bs.1)
                    }
                };
                if better {
                    best = Some((v, s));
                }
            }
            best.map(|(v, _)| (v, FirstBranch::Expand))
        };
        match cfg.order {
            SearchOrder::Random => Some((
                candidates[rng.random_range(0..candidates.len())],
                FirstBranch::Expand,
            )),
            SearchOrder::Degree => candidates
                .iter()
                .copied()
                .max_by_key(|&v| st.deg_mc(v))
                .map(|v| (v, FirstBranch::Expand)),
            SearchOrder::Delta1 => scored(self, &|e| (e.expand.delta1 + e.shrink.delta1, 0.0)),
            SearchOrder::Delta2 => scored(self, &|e| (-(e.expand.delta2 + e.shrink.delta2), 0.0)),
            SearchOrder::Delta1ThenDelta2 => scored(self, &|e| {
                (
                    e.expand.delta1 + e.shrink.delta1,
                    -(e.expand.delta2 + e.shrink.delta2),
                )
            }),
            SearchOrder::LambdaDelta => {
                let mut best: Option<(VertexId, f64, FirstBranch)> = None;
                for &v in &candidates {
                    let est = self.estimate(st, v);
                    let se = cfg.lambda * est.expand.delta1 - est.expand.delta2;
                    let ss = cfg.lambda * est.shrink.delta1 - est.shrink.delta2;
                    let (score, first) = if se >= ss {
                        (se, FirstBranch::Expand)
                    } else {
                        (ss, FirstBranch::Shrink)
                    };
                    if best.is_none_or(|(_, bs, _)| score > bs) {
                        best = Some((v, score, first));
                    }
                }
                best.map(|(v, _, f)| (v, f))
            }
        }
    }
}

fn bits(e: &VertexEstimate) -> [u64; 4] {
    [
        e.expand.delta1.to_bits(),
        e.expand.delta2.to_bits(),
        e.shrink.delta1.to_bits(),
        e.shrink.delta2.to_bits(),
    ]
}

/// One chooser per order, each paired with a reference chooser on an
/// identically seeded RNG.
struct Pairs {
    cfgs: Vec<AlgoConfig>,
    fast: Vec<Chooser>,
    slow: Vec<(Reference, StdRng)>,
}

impl Pairs {
    fn new(n: usize) -> Self {
        let cfgs: Vec<AlgoConfig> = ORDERS
            .iter()
            .map(|&o| AlgoConfig::adv_max().with_order(o))
            .collect();
        Pairs {
            fast: cfgs.iter().map(|c| Chooser::new(c, n)).collect(),
            slow: cfgs
                .iter()
                .map(|c| (Reference::new(n), StdRng::seed_from_u64(c.seed)))
                .collect(),
            cfgs,
        }
    }

    /// Asserts estimate equality for every candidate, and choice
    /// equality under every order, at `st`.
    fn check(&mut self, st: &SearchState<'_>, include_sf: bool) {
        let (fast, (slow, _)) = (&mut self.fast[0], &mut self.slow[0]);
        for v in st.members(Status::Cand) {
            assert_eq!(
                bits(&fast.estimate(st, v)),
                bits(&slow.estimate(st, v)),
                "estimate of {v}"
            );
        }
        for ((cfg, fast), (slow, rng)) in self.cfgs.iter().zip(&mut self.fast).zip(&mut self.slow) {
            assert_eq!(
                fast.choose(st, include_sf),
                slow.choose(cfg, rng, st, include_sf),
                "{:?}, include_sf {include_sf}",
                cfg.order
            );
        }
    }
}

/// Replays `ops` (op, pick) from the pruned root, checking after every
/// step: 0 expands, 1 shrinks (a pick among the candidates), 2 rolls
/// back one level. Checks alternate between choosing among all
/// candidates and only those with a dissimilar partner (Theorem 4).
fn walk(comp: &LocalComponent, ops: &[(u8, u32)]) {
    let mut pairs = Pairs::new(comp.len());
    let mut st = SearchState::new(comp);
    if !st.prune_root() {
        return;
    }
    pairs.check(&st, true);
    let mut marks: Vec<usize> = Vec::new();
    for (step, &(op, pick)) in ops.iter().enumerate() {
        let cands = st.members(Status::Cand);
        match op {
            0 | 1 if !cands.is_empty() => {
                let u = cands[pick as usize % cands.len()];
                marks.push(st.mark());
                let ok = if op == 0 { st.expand(u) } else { st.shrink(u) };
                if !ok {
                    st.rollback(marks.pop().expect("mark pushed"));
                }
            }
            2 => match marks.pop() {
                Some(m) => st.rollback(m),
                None => continue,
            },
            _ => continue,
        }
        pairs.check(&st, step % 2 == 1);
    }
}

fn component(
    n: usize,
    edges: &[(VertexId, VertexId)],
    coords: &[(f64, f64)],
    r: f64,
    k: u32,
    mode: DissimMode,
) -> LocalComponent {
    let edges: Vec<(VertexId, VertexId)> = edges
        .iter()
        .map(|&(u, v)| (u % n as VertexId, v % n as VertexId))
        .filter(|&(u, v)| u != v)
        .collect();
    let oracle = TableOracle::new(
        AttributeTable::points(coords[..n].to_vec()),
        Metric::Euclidean,
        Threshold::MaxDistance(r),
    );
    let members: Vec<VertexId> = (0..n as VertexId).collect();
    LocalComponent::build(&Graph::from_edges(n, &edges), &oracle, &members, k, mode)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn estimates_and_choices_match_the_streamed_reference(
        n in 3usize..=100,
        edges in proptest::collection::vec((0u32..100, 0u32..100), 0..=300),
        coords in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 100),
        r in 1.0f64..9.0,
        k in 1u32..=3,
        ops in proptest::collection::vec((0u8..3, 0u32..100), 1..12),
    ) {
        for mode in [DissimMode::Eager, DissimMode::Lazy] {
            let comp = component(n, &edges, &coords, r, k, mode);
            prop_assert_eq!(comp.is_dissimilarity_lazy(), mode == DissimMode::Lazy);
            walk(&comp, &ops);
        }
    }
}

/// Above [`DENSE_MAX_N`] the count visits partners instead: a lazy
/// component of `DENSE_MAX_N + 40` vertices whose only k-core is a
/// 16-vertex cluster (every other vertex is isolated, far away, and
/// pruned at the root), so the walk stays cheap while every count runs
/// the fallback.
#[test]
fn fallback_above_the_dense_cap_matches_the_reference() {
    let n = DENSE_MAX_N + 40;
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let cluster: Vec<VertexId> = (0..16).map(|i| (i * 257 % n) as VertexId).collect();
    let mut edges = Vec::new();
    for (i, &u) in cluster.iter().enumerate() {
        for &v in &cluster[i + 1..] {
            if rng.random_range(0..3) > 0 {
                edges.push((u, v));
            }
        }
    }
    let mut coords: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random_range(0.0..2000.0), rng.random_range(0.0..2000.0)))
        .collect();
    for &v in &cluster {
        coords[v as usize] = (rng.random_range(0.0..10.0), rng.random_range(0.0..10.0));
    }
    let comp = component(n, &edges, &coords, 6.0, 3, DissimMode::Lazy);
    assert!(comp.is_dissimilarity_lazy());
    let dis = comp.dissimilarity();
    let (bytes, entries) = (comp.memory_bytes(), dis.materialized_entries());
    let ops: Vec<(u8, u32)> = (0..8)
        .map(|_| (rng.random_range(0..3), rng.random_range(0..16)))
        .collect();
    walk(&comp, &ops);
    // Only the rows `expand` sliced grew the component: no dense matrix.
    let rows_bytes = (dis.materialized_entries() - entries) * std::mem::size_of::<VertexId>();
    assert_eq!(comp.memory_bytes(), bytes + rows_bytes);
}
