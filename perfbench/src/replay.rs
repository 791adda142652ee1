//! The traced half: the same op stream replayed in-process, with no
//! sockets, by calling each layer's public function directly.
//!
//! Each op walks the steps `kr_server`'s session takes for it — parse the
//! request line, resolve the dataset, look the `(k, r)` entry up in a
//! `ComponentCache` (on a miss: decomposition-index candidates, problem,
//! preprocess), search, encode the response frames; or, for a write,
//! `apply_batch` and the cache's invalidate-and-repair pass — and wraps
//! each call in a span. The session's keep-or-drop rule for cached entries
//! is private, so the replay runs a copy of it (`keep_entry`) to keep its
//! cache in step with the server's; that copy is benchmark code, its span
//! is not a layer, and its time lands in `session.unaccounted_ms` along
//! with the rest of what the replay cannot reach (wire I/O, session
//! dispatch, per-query pool construction).

use crate::drive::{request, Answer, Reply, WARMUP_K};
use crate::trace::{Tracer, SETUP_OP};
use crate::workload::{Op, QueryKind};
use kr_core::search::SearchStats;
use kr_core::{
    enumerate_maximal_prepared, enumerate_maximal_prepared_on, find_maximum_prepared,
    find_maximum_prepared_on, AlgoConfig, CoreHook, KrCore, LocalComponent,
};
use kr_graph::VertexId;
use kr_server::cache::{r_band, R_BAND_WIDTH};
use kr_server::{
    CacheKey, CacheOutcome, ComponentCache, DatasetRegistry, DatasetView, Frame, GraphUpdate,
    HostedDataset, MutationOutcome, Request, ServerConfig,
};
use kr_similarity::{SimilarityOracle, TableOracle};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// What a cache miss cost, in counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Miss {
    pub candidate_vertices: u64,
    pub components: u64,
    pub oracle_evals: u64,
}

/// One replayed op.
pub struct Record {
    pub reply: Reply,
    pub search: Option<SearchStats>,
    /// Search start → first confirmed core.
    pub first_core_ns: Option<u64>,
    pub miss: Option<Miss>,
    /// Request line plus response frames, newlines included.
    pub bytes: u64,
}

/// Lazy dissimilarity view totals over the component sets the replay saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LazyTally {
    pub rows_materialized: u64,
    pub pairs_avoided: u64,
    pub peak_component_bytes: u64,
}

/// The server's ceiling on a query's wall-clock budget; the session sets
/// it on every query, so the replay does too.
fn time_limit_ms() -> u64 {
    ServerConfig::default()
        .max_time_limit_ms
        .expect("the default server has a time ceiling")
}

pub struct Replay<'p> {
    pub tracer: Tracer,
    registry: DatasetRegistry,
    cache: ComponentCache,
    name: String,
    pool: &'p [(VertexId, VertexId)],
    /// `(kind, k, r-band, pool state)` → answer of every query run so far.
    memo: HashMap<(QueryKind, u32, i64, u64), Answer>,
    /// Answer repeated queries from `memo` instead of running them.
    use_memo: bool,
    /// Component sets built with a lazy dissimilarity view: they grow as
    /// searches materialize rows, so they are tallied when asked.
    lazy: Vec<Arc<Vec<LocalComponent>>>,
    /// Largest eager component built so far (eager ones never grow).
    eager_peak_bytes: u64,
}

impl<'p> Replay<'p> {
    /// Registers `snapshot` under `name`, loads it and builds (or reads)
    /// its decomposition index in two setup spans, then runs the server's
    /// warm-up query (radius `warmup_r`) so both caches start alike.
    pub fn open(
        name: &str,
        snapshot: &str,
        pool: &'p [(VertexId, VertexId)],
        warmup_r: f64,
        spans: bool,
    ) -> Result<Replay<'p>, String> {
        let mut registry = DatasetRegistry::new();
        registry.register_file(name, snapshot)?;
        let tracer = Tracer::new(spans);
        let dataset = tracer.span(SETUP_OP, "datasets.load_ms", || registry.get(name, 1.0))?;
        tracer.span(SETUP_OP, "datasets.index_build_ms", || {
            dataset.decomposition()
        });
        let mut replay = Replay {
            tracer,
            registry,
            cache: ComponentCache::new(ServerConfig::default().cache_capacity),
            name: name.to_string(),
            pool,
            memo: HashMap::new(),
            use_memo: false,
            lazy: Vec::new(),
            eager_peak_bytes: 0,
        };
        let warmup = Op::Query {
            kind: QueryKind::Enumerate,
            k: WARMUP_K,
            r: warmup_r,
            threads: 1,
        };
        replay.run(SETUP_OP, &warmup, 0)?;
        Ok(replay)
    }

    /// Answers repeated `(query, pool state)` pairs from the memo from now
    /// on. The graph at an op is a function of its pool state, so the
    /// answer is too.
    pub fn memoize(&mut self) {
        self.use_memo = true;
    }

    pub fn lazy_tally(&self) -> LazyTally {
        let mut t = LazyTally {
            peak_component_bytes: self.eager_peak_bytes,
            ..LazyTally::default()
        };
        for c in self.lazy.iter().flat_map(|comps| comps.iter()) {
            t.peak_component_bytes = t.peak_component_bytes.max(c.memory_bytes() as u64);
            if c.is_dissimilarity_lazy() {
                let view = c.dissimilarity();
                t.rows_materialized += view.materialized_rows() as u64;
                t.pairs_avoided +=
                    2 * c.num_dissimilar_pairs as u64 - view.materialized_entries() as u64;
            }
        }
        t
    }

    /// Replays op number `id` against pool state `state`.
    pub fn run(&mut self, id: u32, op: &Op, state: u64) -> Result<Record, String> {
        let line = request(&self.name, self.pool, op, format!("q{id}")).to_line();
        let memo_key = match *op {
            Op::Query { kind, k, r, .. } => Some((kind, k, r_band(r), state)),
            Op::Toggle { .. } => None,
        };
        if let (true, Some(key)) = (self.use_memo, memo_key) {
            if let Some(&answer) = self.memo.get(&key) {
                let reply = Reply::Query {
                    answer,
                    completed: true,
                    hit: true,
                    nodes: 0,
                };
                return Ok(Record {
                    reply,
                    search: None,
                    first_core_ns: None,
                    miss: None,
                    bytes: 0,
                });
            }
        }
        let t = &self.tracer;
        let req = t
            .span(id, "protocol.request_parse_us", || Request::parse(&line))
            .map_err(|e| e.to_string())?;
        let record = match req {
            Request::Enumerate { id: rid, spec } | Request::Maximum { id: rid, spec } => {
                let kind = match op {
                    Op::Query { kind, .. } => *kind,
                    Op::Toggle { .. } => unreachable!("a query line"),
                };
                self.query(id, kind, rid, spec, line.len())?
            }
            Request::AddEdges {
                id: rid,
                dataset,
                scale,
                edges,
            } => {
                let updates = edges
                    .into_iter()
                    .map(|(u, v)| GraphUpdate::AddEdge(u, v))
                    .collect();
                self.mutate(id, rid, &dataset, scale, updates, line.len())?
            }
            Request::RemoveEdges {
                id: rid,
                dataset,
                scale,
                edges,
            } => {
                let updates = edges
                    .into_iter()
                    .map(|(u, v)| GraphUpdate::RemoveEdge(u, v))
                    .collect();
                self.mutate(id, rid, &dataset, scale, updates, line.len())?
            }
            other => return Err(format!("the script never sends {other:?}")),
        };
        if let (Some(key), Reply::Query { answer, .. }) = (memo_key, &record.reply) {
            self.memo.insert(key, *answer);
        }
        Ok(record)
    }

    fn query(
        &mut self,
        id: u32,
        kind: QueryKind,
        rid: String,
        spec: kr_server::QuerySpec,
        line_len: usize,
    ) -> Result<Record, String> {
        let t = &self.tracer;
        let dataset = t.span(id, "datasets.get_us", || {
            self.registry.get(&spec.dataset, spec.scale)
        })?;
        let key = CacheKey {
            dataset: dataset.key().to_string(),
            k: spec.k,
            r_band: r_band(spec.r),
        };
        let version = dataset.version();
        let threads = spec.threads;
        let pool = (threads != 1).then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool")
        });
        let mut miss = None;
        let (comps, outcome) = t.span(id, "cache.lookup_us", || {
            self.cache.get_or_build(&key, version, || {
                let index = t.span(id, "datasets.decomposition_us", || dataset.decomposition());
                let candidates = t.span(id, "decomp.candidates_us", || {
                    index.candidates(spec.k, dataset.threshold(spec.r))
                });
                let problem = t.span(id, "datasets.problem_us", || {
                    dataset.problem(spec.k, spec.r)
                });
                let comps = t.span(id, "preprocess.us", || match &pool {
                    None => problem.preprocess_with_candidates(&candidates.vertices),
                    Some(pool) => problem.preprocess_with_candidates_on(&candidates.vertices, pool),
                });
                miss = Some(Miss {
                    candidate_vertices: candidates.vertices.len() as u64,
                    components: comps.len() as u64,
                    oracle_evals: comps.iter().map(|c| c.oracle_evals).sum(),
                });
                comps
            })
        });
        if outcome.won {
            if comps.iter().any(LocalComponent::is_dissimilarity_lazy) {
                self.lazy.push(comps.clone());
            }
            let eager = comps.iter().filter(|c| !c.is_dissimilarity_lazy());
            let peak = eager.map(|c| c.memory_bytes() as u64).max().unwrap_or(0);
            self.eager_peak_bytes = self.eager_peak_bytes.max(peak);
        }

        let first: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
        let (cores, stats, completed, started) = match kind {
            QueryKind::Enumerate => {
                let hook_first = first.clone();
                let cfg = AlgoConfig::adv_enum()
                    .with_threads(threads)
                    .with_time_limit_ms(time_limit_ms())
                    .with_on_core(CoreHook::new(move |_: &KrCore| {
                        hook_first.get_or_init(Instant::now);
                    }));
                let started = Instant::now();
                let res = t.span(id, "search.enum_ms", || match &pool {
                    None => enumerate_maximal_prepared(&comps, &cfg),
                    Some(pool) => enumerate_maximal_prepared_on(&comps, &cfg, pool),
                });
                (res.cores, res.stats, res.completed, started)
            }
            QueryKind::Maximum => {
                let cfg = AlgoConfig::adv_max()
                    .with_threads(threads)
                    .with_time_limit_ms(time_limit_ms());
                let started = Instant::now();
                let res = t.span(id, "search.max_ms", || match &pool {
                    None => find_maximum_prepared(&comps, &cfg),
                    Some(pool) => find_maximum_prepared_on(&comps, &cfg, pool),
                });
                first.get_or_init(Instant::now);
                (
                    res.core.into_iter().collect::<Vec<_>>(),
                    res.stats,
                    res.completed,
                    started,
                )
            }
        };
        let first_core_ns = match (cores.is_empty(), first.get()) {
            (false, Some(at)) => Some(at.duration_since(started).as_nanos() as u64),
            _ => None,
        };

        let frames_len = t.span(id, "protocol.frame_encode_us", || {
            let trace = kr_obs::next_trace_id();
            let mut bytes = 0usize;
            for (index, core) in cores.iter().enumerate() {
                let frame = Frame::Core {
                    id: rid.clone(),
                    trace: trace.clone(),
                    index: index as u64,
                    vertices: core.vertices.clone(),
                };
                bytes += frame.to_line().len() + 1;
            }
            let done = Frame::Done {
                id: rid.clone(),
                trace,
                count: cores.len() as u64,
                completed,
                cache: if outcome.hit {
                    CacheOutcome::Hit
                } else {
                    CacheOutcome::Miss
                },
                elapsed_ms: 0,
                nodes: stats.nodes,
            };
            bytes + done.to_line().len() + 1
        });

        let mut cores: Vec<Vec<VertexId>> = cores.into_iter().map(|c| c.vertices).collect();
        Ok(Record {
            reply: Reply::Query {
                answer: Answer::of(&mut cores),
                completed,
                hit: outcome.hit,
                nodes: stats.nodes,
            },
            search: Some(stats),
            first_core_ns,
            miss,
            bytes: (line_len + 1 + frames_len) as u64,
        })
    }

    fn mutate(
        &mut self,
        id: u32,
        rid: String,
        dataset_name: &str,
        scale: f64,
        updates: Vec<GraphUpdate>,
        line_len: usize,
    ) -> Result<Record, String> {
        let t = &self.tracer;
        let dataset = t.span(id, "datasets.get_us", || {
            self.registry.get(dataset_name, scale)
        })?;
        let outcome = t.span(id, "datasets.apply_us", || dataset.apply_batch(&updates))?;
        let (repairs, invalidations) = if outcome.delta.is_empty() {
            (0, 0)
        } else {
            let view = dataset.view();
            t.span(id, "cache.repair_us", || {
                self.cache
                    .repair_after_mutation(dataset.key(), outcome.version, |key, comps| {
                        t.span(id, "session.repair_policy", || {
                            keep_entry(&dataset, &view, &outcome, key, comps)
                        })
                    })
            })
        };
        let bytes = t.span(id, "protocol.frame_encode_us", || {
            let frame = Frame::Mutated {
                id: rid,
                trace: kr_obs::next_trace_id(),
                applied: outcome.applied,
                ignored: outcome.ignored,
                version: outcome.version,
                core_updates: outcome.core_updates,
                repairs,
                invalidations,
                elapsed_ms: 0,
            };
            frame.to_line().len() + 1
        });
        Ok(Record {
            reply: Reply::Mutated {
                applied: outcome.applied,
                version: outcome.version,
                core_updates: outcome.core_updates,
                repairs,
                invalidations,
            },
            search: None,
            first_core_ns: None,
            miss: None,
            bytes: (line_len + 1 + bytes) as u64,
        })
    }
}

/// A copy of the session's keep-or-drop rule for one cached `(k, r)`
/// entry after a write (see `repair_cache` in the server's session): keep
/// it when no effective delta can have changed its component set.
fn keep_entry(
    dataset: &HostedDataset,
    view: &DatasetView,
    outcome: &MutationOutcome,
    key: &CacheKey,
    comps: &[LocalComponent],
) -> bool {
    let delta = &outcome.delta;
    if !delta.attr_changed.is_empty() {
        return false;
    }
    let Some(index) = &view.index else {
        return false;
    };
    let threshold = dataset.threshold(key.r_band as f64 * R_BAND_WIDTH);
    let oracle = TableOracle::from_shared(view.attributes.clone(), dataset.metric(), threshold);
    let in_comps = |w: VertexId| comps.iter().any(|c| c.local_to_global.contains(&w));
    for &(u, v) in &delta.removed {
        if oracle.is_similar(u, v) && in_comps(u) && in_comps(v) {
            return false;
        }
    }
    if !delta.inserted.is_empty() {
        let candidates =
            (outcome.core_updates == 0).then(|| index.candidates(key.k, threshold).vertices);
        for &(u, v) in &delta.inserted {
            if !oracle.is_similar(u, v) {
                continue;
            }
            match &candidates {
                Some(cand) if !cand.contains(&u) || !cand.contains(&v) => continue,
                _ => return false,
            }
        }
    }
    true
}
