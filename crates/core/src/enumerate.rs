//! Enumeration of all maximal (k,r)-cores.
//!
//! One engine drives NaiveEnum (Algorithms 1–2), BasicEnum (+Theorems 2–3),
//! BE+CR (+Theorem 4), BE+CR+ET (+Theorem 5) and AdvEnum (Algorithm 3,
//! +Theorem 6), selected by [`AlgoConfig`] toggles.
//!
//! ### Soundness note (disconnected leaves)
//!
//! Leaf solutions `M ∪ C` may be disconnected; each connected piece is a
//! valid (k,r)-core. The Theorem 6 maximal check consults only the
//! excluded set `E`, which is complete *for cores containing all of `M`*
//! (vertices dropped as dissimilar-to-M can never extend such a core). We
//! therefore emit, at a leaf, exactly the pieces containing all of `M`
//! when the maximal check is on; pieces missing part of `M` are reached
//! through their own canonical branch elsewhere in the tree. Configurations
//! without the maximal check emit every piece and rely on the
//! subset post-filter of Algorithm 1.

use crate::component::LocalComponent;
use crate::config::{AlgoConfig, CoreHook};
use crate::early_term::can_terminate;
use crate::maximal::check_maximal_with_order;
use crate::parallel::{branch, Search, Walk};
use crate::problem::ProblemInstance;
use crate::result::{CoreSink, KrCore};
use crate::search::{SearchState, SearchStats, Status};
use kr_graph::VertexId;

/// Result of an enumeration run.
#[derive(Debug, Clone)]
pub struct EnumResult {
    /// All maximal (k,r)-cores (global vertex ids, each sorted), sorted
    /// lexicographically.
    pub cores: Vec<KrCore>,
    /// Search statistics summed over components.
    pub stats: SearchStats,
    /// False when the node limit was hit (results incomplete).
    pub completed: bool,
}

impl EnumResult {
    /// Sizes of the cores: `(count, max, average)`.
    pub fn size_summary(&self) -> (usize, usize, f64) {
        let count = self.cores.len();
        let max = self.cores.iter().map(|c| c.len()).max().unwrap_or(0);
        let avg = if count == 0 {
            0.0
        } else {
            self.cores.iter().map(|c| c.len()).sum::<usize>() as f64 / count as f64
        };
        (count, max, avg)
    }
}

/// Enumerates all maximal (k,r)-cores of `problem` under `cfg`.
///
/// With [`AlgoConfig::threads`] ≠ 1 (and candidate pruning on — NaiveEnum
/// has no safe split points) the search tree is split across a
/// work-stealing pool ([`crate::parallel`]), which returns the identical
/// core family. Node-limited runs stay inline: a per-worker node budget
/// would change what "limit reached" means and break that equivalence.
pub fn enumerate_maximal(problem: &ProblemInstance, cfg: &AlgoConfig) -> EnumResult {
    crate::parallel::solve(problem, cfg, crate::parallel::enumerate_on)
}

/// [`enumerate_maximal`] over components preprocessed earlier (e.g. by
/// [`ProblemInstance::preprocess`] or pulled from a serving-layer cache):
/// Algorithm 1's initial stage is skipped entirely. The components must
/// stem from the same `(k, r)` the query runs with — preprocessing bakes
/// both the k-core peel and the dissimilarity lists into the arena.
pub fn enumerate_maximal_prepared(comps: &[LocalComponent], cfg: &AlgoConfig) -> EnumResult {
    crate::parallel::enumerate_on(comps, cfg, crate::parallel::pool_for(cfg).as_ref())
}

/// [`enumerate_maximal_prepared`] on a caller-provided pool — the
/// serving layer builds **one** pool per query and threads it through
/// the preprocessing it may have to run on a cache miss
/// ([`ProblemInstance::preprocess_on`]) and this search. The pool is
/// ignored when the run is inline (`threads == 1`, a one-worker pool,
/// NaiveEnum, or a node-limited run).
pub fn enumerate_maximal_prepared_on(
    comps: &[LocalComponent],
    cfg: &AlgoConfig,
    pool: &rayon::ThreadPool,
) -> EnumResult {
    crate::parallel::enumerate_on(comps, cfg, Some(pool))
}

/// Pushes `core` into the dedup sink and, when it is new, streams it to
/// `hook`.
pub(crate) fn push_core(sink: &mut CoreSink, core: KrCore, hook: Option<&CoreHook>) {
    match hook {
        Some(hook) => {
            if sink.push(core.clone()) {
                hook.emit(&core);
            }
        }
        None => {
            sink.push(core);
        }
    }
}

/// Per-component enumeration driver: Algorithm 3's walk, run inline, as
/// a split run's frontier generator, or as a pool task (see
/// [`crate::parallel`]).
pub(crate) struct Driver<'a> {
    pub(crate) walk: Walk<'a>,
    pub(crate) sink: CoreSink,
    /// Leaf pieces already resolved (emitted or rejected as non-maximal):
    /// the same piece reappears at many leaves, and its maximality verdict
    /// cannot change — the candidate universe only depends on the piece.
    checked: std::collections::HashSet<Vec<VertexId>>,
    /// Streaming hook, armed by [`Self::with_streaming`] for inline runs.
    /// Split runs leave it off — cross-task duplicates are only resolved
    /// in the merge phase, which streams instead.
    stream: Option<CoreHook>,
}

impl<'a> Driver<'a> {
    pub(crate) fn new(walk: Walk<'a>) -> Self {
        Driver {
            walk,
            sink: CoreSink::new(),
            checked: std::collections::HashSet::new(),
            stream: None,
        }
    }

    /// Arms the [`AlgoConfig::on_core`] hook on this driver. Only honored
    /// with the Theorem 6 maximal check, where every pushed core is
    /// already final (see [`crate::config::CoreHook`]).
    pub(crate) fn with_streaming(mut self) -> Self {
        if self.walk.cfg.maximal_check {
            self.stream = self.walk.cfg.on_core.clone();
        }
        self
    }

    fn push_core(&mut self, core: KrCore) {
        push_core(&mut self.sink, core, self.stream.as_ref());
    }

    /// Searches the component from its root.
    pub(crate) fn run(&mut self) {
        if self.walk.cfg.prune_candidates {
            crate::parallel::run(self, &[]);
        } else {
            let mut st = SearchState::new(self.walk.comp);
            self.naive_rec(&mut st);
        }
    }

    /// Algorithm 2: exhaustive expand/shrink with whole-set validation.
    fn naive_rec(&mut self, st: &mut SearchState<'a>) {
        self.walk.stats.nodes += 1;
        if self.walk.budget_exceeded() {
            return;
        }
        let (_, n_c, _) = st.sizes();
        if n_c == 0 {
            self.walk.stats.leaves += 1;
            self.emit_naive(st);
            return;
        }
        // Any candidate works for the naive tree; take the lowest id.
        let u = (0..self.walk.comp.len() as VertexId)
            .find(|&v| st.status(v) == Status::Cand)
            .expect("candidate exists");
        let m = st.mark();
        st.expand_naive(u);
        self.naive_rec(st);
        st.rollback(m);
        st.shrink_naive(u);
        self.naive_rec(st);
        st.rollback(m);
    }

    /// Algorithm 2 line 1: accept M only when the *whole* chosen set
    /// satisfies both constraints, then split into connected pieces.
    fn emit_naive(&mut self, st: &SearchState<'a>) {
        let m_members = st.members(Status::Chosen);
        if m_members.is_empty() {
            return;
        }
        let in_m: Vec<bool> = {
            let mut v = vec![false; self.walk.comp.len()];
            for &u in &m_members {
                v[u as usize] = true;
            }
            v
        };
        // degmin(M) >= k.
        for &u in &m_members {
            let d = self
                .walk
                .comp
                .neighbors(u)
                .iter()
                .filter(|&&w| in_m[w as usize])
                .count() as u32;
            if d < self.walk.comp.k {
                return;
            }
        }
        // DP(M) = 0.
        for &u in &m_members {
            if self.walk.comp.any_dissimilar_where(u, |w| in_m[w as usize]) {
                return;
            }
        }
        for piece in components_of(self.walk.comp, &m_members) {
            self.push_core(KrCore::new(self.walk.comp.globalize(&piece)));
        }
    }

    /// Emits the connected pieces of the leaf `M ∪ C` (Theorem 4 leaves are
    /// fully similarity-free, so every piece is a (k,r)-core).
    fn emit_leaf(&mut self, st: &SearchState<'a>) {
        let pieces = st.mc_components();
        let (n_m, _, _) = st.sizes();
        for piece in &pieces {
            if piece.len() <= self.walk.comp.k as usize {
                continue; // cannot satisfy deg >= k (defensive; invariant implies it)
            }
            let m_inside = piece
                .iter()
                .filter(|&&v| st.status(v) == Status::Chosen)
                .count() as u32;
            let contains_all_m = m_inside == n_m;
            if self.walk.cfg.maximal_check {
                // Sound only for pieces containing all of M (see module
                // docs); other pieces are found on their own branches.
                if !contains_all_m {
                    continue;
                }
                if self.checked.contains(piece) {
                    continue; // verdict already known from an earlier leaf
                }
                self.checked.insert(piece.clone());
                let mut candidates = st.members(Status::Excluded);
                // Co-leaf vertices outside this piece can also extend it.
                for other in &pieces {
                    if other.as_slice() != piece.as_slice() {
                        candidates.extend_from_slice(other);
                    }
                }
                self.walk.stats.maximal_checks += 1;
                if check_maximal_with_order(
                    self.walk.comp,
                    self.walk.comp.k,
                    piece,
                    &candidates,
                    self.walk.cfg.check_order,
                    self.walk.cfg.lambda,
                ) {
                    self.push_core(KrCore::new(self.walk.comp.globalize(piece)));
                }
            } else {
                self.push_core(KrCore::new(self.walk.comp.globalize(piece)));
            }
        }
    }
}

impl<'a> Search<'a> for Driver<'a> {
    fn walk(&mut self) -> &mut Walk<'a> {
        &mut self.walk
    }

    /// Algorithm 3 (AdvEnum) and its ablations.
    fn node(&mut self, st: &mut SearchState<'a>) {
        if !self.walk.enter(0) {
            return;
        }
        let cfg = self.walk.cfg;
        if cfg.retain_candidates {
            promote_free_candidates(st);
        }
        if cfg.early_termination && can_terminate(st) {
            self.walk.stats.early_terminations += 1;
            return;
        }
        let leaf = if cfg.retain_candidates {
            st.all_candidates_similarity_free()
        } else {
            st.sizes().1 == 0
        };
        if leaf {
            self.walk.stats.leaves += 1;
            self.emit_leaf(st);
            return;
        }
        let include_sf = !cfg.retain_candidates;
        let Some((u, _)) = self.walk.chooser.choose(st, include_sf) else {
            return;
        };
        branch(self, st, u, [true, false]);
    }
}

/// Remark 1 of the paper: a similarity-free candidate already adjacent to
/// `k` chosen vertices can be moved straight into `M` — every maximal
/// (k,r)-core below this node must contain it (it extends any core that
/// omits it). The move evicts `E` members dissimilar to the promoted
/// vertex and cannot fail structurally (no `M ∪ C` vertex is removed).
pub(crate) fn promote_free_candidates(st: &mut SearchState<'_>) {
    loop {
        let u = (0..st.comp.len() as VertexId)
            .find(|&v| st.status(v) == Status::Cand && st.dp_c(v) == 0 && st.deg_m(v) >= st.k);
        match u {
            Some(u) => {
                let ok = st.expand(u);
                debug_assert!(ok, "promotion cannot fail");
            }
            None => break,
        }
    }
}

/// Connected pieces of a vertex subset (local ids).
fn components_of(comp: &LocalComponent, subset: &[VertexId]) -> Vec<Vec<VertexId>> {
    let mut in_set = vec![false; comp.len()];
    for &v in subset {
        in_set[v as usize] = true;
    }
    let mut seen = vec![false; comp.len()];
    let mut out = Vec::new();
    for &s in subset {
        if seen[s as usize] {
            continue;
        }
        let mut piece = Vec::new();
        let mut stack = vec![s];
        seen[s as usize] = true;
        while let Some(v) = stack.pop() {
            piece.push(v);
            for &w in comp.neighbors(v) {
                if in_set[w as usize] && !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        piece.sort_unstable();
        out.push(piece);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kr_graph::Graph;
    use kr_similarity::{AttributeTable, Metric, Threshold};

    /// The motivating shape: two 4-cliques sharing vertex 3, left clique
    /// near the origin, right clique far away, vertex 3 in the middle but
    /// within range of both.
    fn bridged_cliques(r: f64) -> ProblemInstance {
        let mut edges = vec![];
        for group in [[0u32, 1, 2, 3], [3u32, 4, 5, 6]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((group[i], group[j]));
                }
            }
        }
        let g = Graph::from_edges(7, &edges);
        let pts = vec![
            (0.0, 0.0),
            (1.0, 0.0),
            (0.0, 1.0),
            (5.0, 0.0), // shared vertex, close enough to both sides
            (10.0, 0.0),
            (11.0, 0.0),
            (10.0, 1.0),
        ];
        ProblemInstance::new(
            g,
            AttributeTable::points(pts),
            Metric::Euclidean,
            Threshold::MaxDistance(r),
            2,
        )
    }

    fn all_configs() -> Vec<(&'static str, AlgoConfig)> {
        vec![
            ("naive", AlgoConfig::naive_enum()),
            ("basic", AlgoConfig::basic_enum()),
            ("be_cr", AlgoConfig::be_cr()),
            ("be_cr_et", AlgoConfig::be_cr_et()),
            ("adv", AlgoConfig::adv_enum()),
        ]
    }

    #[test]
    fn two_overlapping_cores_found_by_all_configs() {
        // r = 7: each clique is internally similar (left diameter ~1.4 plus
        // vertex 3 at distance ~5; right likewise), but cross-side pairs
        // (distance ~10) are dissimilar.
        let p = bridged_cliques(7.0);
        for (name, cfg) in all_configs() {
            let res = enumerate_maximal(&p, &cfg);
            assert!(res.completed);
            assert_eq!(res.cores.len(), 2, "{name}: {:?}", res.cores);
            assert!(res.cores.contains(&KrCore::new(vec![0, 1, 2, 3])), "{name}");
            assert!(res.cores.contains(&KrCore::new(vec![3, 4, 5, 6])), "{name}");
        }
    }

    #[test]
    fn single_core_when_r_large() {
        let p = bridged_cliques(100.0);
        for (name, cfg) in all_configs() {
            let res = enumerate_maximal(&p, &cfg);
            assert_eq!(res.cores.len(), 1, "{name}");
            assert_eq!(res.cores[0].len(), 7, "{name}");
        }
    }

    #[test]
    fn nothing_when_r_tiny() {
        let p = bridged_cliques(0.5);
        for (name, cfg) in all_configs() {
            let res = enumerate_maximal(&p, &cfg);
            // Every 4-clique loses its bridge vertex... with r=0.5 even the
            // near triangle (distances 1, 1, ~1.4) is dissimilar: no cores.
            assert!(res.cores.is_empty(), "{name}: {:?}", res.cores);
        }
    }

    #[test]
    fn verified_against_definitions() {
        let p = bridged_cliques(7.0);
        let res = enumerate_maximal(&p, &AlgoConfig::adv_enum());
        crate::verify::verify_maximal_family(&p, &res.cores).unwrap();
        for c in &res.cores {
            assert!(crate::verify::is_maximal_kr_core(&p, c));
        }
    }

    #[test]
    fn node_limit_aborts() {
        let p = bridged_cliques(7.0);
        let cfg = AlgoConfig::naive_enum().with_node_limit(3);
        let res = enumerate_maximal(&p, &cfg);
        assert!(!res.completed);
    }

    #[test]
    fn pre_cancelled_flag_aborts_immediately() {
        let p = bridged_cliques(7.0);
        for (name, cfg) in all_configs() {
            let flag = crate::config::CancelFlag::new();
            flag.cancel();
            let res = enumerate_maximal(&p, &cfg.with_cancel(flag));
            assert!(!res.completed, "{name}");
        }
    }

    #[test]
    fn cancel_from_streaming_hook_stops_the_sweep() {
        // The serving layer's abort path in miniature: the hook observes
        // the first streamed core and cancels; the run must end incomplete
        // without streaming the second core.
        let p = bridged_cliques(7.0);
        let flag = crate::config::CancelFlag::new();
        let streamed = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (f, tap) = (flag.clone(), streamed.clone());
        let cfg =
            AlgoConfig::adv_enum()
                .with_cancel(flag)
                .with_on_core(crate::config::CoreHook::new(move |_: &KrCore| {
                    tap.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    f.cancel();
                }));
        let res = enumerate_maximal(&p, &cfg);
        assert!(!res.completed);
        assert_eq!(streamed.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn prepared_matches_and_streams_each_core_once() {
        let p = bridged_cliques(7.0);
        let comps = p.preprocess();
        let streamed = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let tap = streamed.clone();
        let cfg =
            AlgoConfig::adv_enum().with_on_core(crate::config::CoreHook::new(move |c: &KrCore| {
                tap.lock().unwrap().push(c.clone())
            }));
        let res = enumerate_maximal_prepared(&comps, &cfg);
        assert_eq!(
            res.cores,
            enumerate_maximal(&p, &AlgoConfig::adv_enum()).cores
        );
        let mut streamed = streamed.lock().unwrap().clone();
        streamed.sort_by(|a, b| a.vertices.cmp(&b.vertices));
        assert_eq!(streamed, res.cores, "hook must fire once per core");
    }

    #[test]
    fn hook_ignored_without_maximal_check() {
        // BasicEnum's cores are only known maximal after the subset
        // post-filter, so the hook must stay silent.
        let p = bridged_cliques(7.0);
        let count = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let tap = count.clone();
        let cfg = AlgoConfig::basic_enum().with_on_core(crate::config::CoreHook::new(
            move |_: &KrCore| {
                tap.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            },
        ));
        let res = enumerate_maximal(&p, &cfg);
        assert_eq!(res.cores.len(), 2);
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn size_summary() {
        let p = bridged_cliques(7.0);
        let res = enumerate_maximal(&p, &AlgoConfig::adv_enum());
        let (count, max, avg) = res.size_summary();
        assert_eq!(count, 2);
        assert_eq!(max, 4);
        assert!((avg - 4.0).abs() < 1e-9);
    }
}
