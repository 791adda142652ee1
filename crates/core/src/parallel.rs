//! The search engine: one branch-and-bound walk per problem, run inline
//! or split across a work-stealing pool.
//!
//! Both searches walk a binary expand/shrink tree per
//! [`crate::component::LocalComponent`]. Each driver — the enumeration's
//! (Algorithm 3) and the maximum search's (Algorithm 5) — has exactly one
//! recursive walk, and an optional **split depth** decides how it runs:
//!
//! * `None` — the **inline** run. The walk searches every component to
//!   the leaves on the calling thread: no pool, no task list, no lock.
//!   This is the run for one worker ([`AlgoConfig::threads`] `== 1`), for
//!   NaiveEnum (it has no safe split points) and for node-limited runs (a
//!   per-worker node budget would change what "limit reached" means). The
//!   enumeration's streaming hook ([`AlgoConfig::on_core`]) fires from
//!   inside the walk, the moment a core is confirmed.
//! * `Some(d)` — the **split** run, on a rayon work-stealing pool:
//!   1. *Frontier generation* (on the calling thread, cheap — at most
//!      `2^d` shallow nodes per component): the same walk, except that a
//!      node at depth `d` is recorded as a task, identified by its
//!      decision prefix, instead of being searched. Nodes that close
//!      above the split depth (leaves, early terminations, bound prunes)
//!      are handled right there.
//!   2. *Subtask execution*: workers replay a task's prefix on a fresh
//!      [`crate::search::SearchState`] (replay is linear in the prefix
//!      length since every expand/shrink is trail-logged) and run the
//!      unsplit walk below it. Rayon's work stealing load-balances the
//!      wildly uneven subtree sizes.
//!   3. *Merge*: task results are combined in deterministic DFS order.
//!      The enumeration's streaming hook fires here, once per
//!      deduplicated core.
//!
//! ### Adaptive re-splitting
//!
//! A static top-`d` split can strand the pool: one subtask may own almost
//! the whole tree (skewed instances), leaving every other worker idle
//! while it grinds alone. Under [`Resplit::Adaptive`] (the default) a
//! running task polls a `DonationHost` at node entry; when the pool
//! reports starvation (live tasks < workers) the task *donates* the
//! shallowest not-yet-taken sibling branches of its current DFS path as
//! fresh subtasks — shallowest first, since those subtrees are the
//! largest — and skips them inline on unwind. A donated prefix replays
//! exactly like an initial one (same node-entry promotions), except that
//! its **final** decision is allowed to fail structurally: it is the one
//! branch the donor never attempted itself, and an infeasible sibling is
//! simply an empty subtree.
//!
//! Re-splitting preserves the equivalence argument below. Enumeration
//! merges by sink union, which is traversal-independent. Maximum search
//! walks record DFS-ordered `Event`s — improving finds plus a `Child`
//! marker where each split point or donated sibling left the walk — and
//! the merge folds them recursively, splicing a task's events in at its
//! marker: the fold visits finds in exactly the inline DFS order, so the
//! carried incumbent selects the identical winner. A donated task starts
//! from the donor's incumbent *at donation time* — a DFS-prefix subset of
//! what the inline run would know there, so it can only under-prune
//! (never skip the true winner); the fold's carried incumbent discards
//! any extra sub-incumbent finds that weaker pruning lets through.
//!
//! ### Result equivalence with the inline run
//!
//! *Enumeration* emits a set of cores that is a function of the problem
//! alone (every maximal core is found on every traversal order), so
//! concatenating task sinks, deduplicating, and sorting reproduces the
//! inline output exactly.
//!
//! *Maximum search* prunes with an incumbent, so naive sharing would
//! change which of several equally-sized maximum cores survives. Two rules
//! keep the returned core identical to the inline run's:
//!
//! * a task starts its local incumbent at the generator's best size
//!   **at task creation** (exactly the DFS-prefix knowledge the inline
//!   run would have had there) and prunes against it with
//!   `ub <= incumbent`, mirroring inline semantics;
//! * the cross-worker [`AtomicUsize`] incumbent — the split run's speed
//!   lever — is only consulted **strictly** (`ub < global`). A strict cut
//!   can never prune the subtree holding the DFS-first core of the final
//!   maximum size `S`: that subtree's bound is at least `S`, and the
//!   global incumbent never exceeds `S`.
//!
//! The merge then folds the events in DFS order carrying the incumbent
//! forward, which selects precisely the core the inline run returns.
//! (With [`SearchOrder::Random`] the chooser RNG stream differs between
//! the two runs, so tie-breaking — and only tie-breaking — may differ;
//! all shipped parallel presets use deterministic orders.)
//!
//! [`SearchOrder::Random`]: crate::config::SearchOrder::Random

use crate::component::LocalComponent;
use crate::config::{AlgoConfig, Resplit};
use crate::enumerate::{promote_free_candidates, push_core, Driver, EnumResult};
use crate::maximum::{MaxDriver, MaxResult};
use crate::order::Chooser;
use crate::problem::ProblemInstance;
use crate::result::{CoreSink, KrCore};
use crate::search::{Decision, SearchState, SearchStats};
use kr_graph::VertexId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A pool of `threads` workers (`0` = all available cores), or `None`
/// when that resolves to a single worker, which runs inline on the
/// calling thread. The one place the engine and the serving layer build
/// a pool.
pub fn thread_pool(threads: usize) -> Option<rayon::ThreadPool> {
    let threads = match threads {
        0 => rayon::current_num_threads(),
        n => n,
    };
    (threads > 1).then(|| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool")
    })
}

/// Whether a run of `cfg` may split: NaiveEnum has no safe split points,
/// and a node-limited run stays inline (a per-worker node budget would
/// change what "limit reached" means).
fn splits(cfg: &AlgoConfig) -> bool {
    cfg.threads != 1 && cfg.prune_candidates && cfg.node_limit.is_none()
}

/// The pool a run of `cfg` searches on; `None` for the inline run.
pub(crate) fn pool_for(cfg: &AlgoConfig) -> Option<rayon::ThreadPool> {
    if splits(cfg) {
        thread_pool(cfg.threads)
    } else {
        None
    }
}

/// Preprocesses `problem` and runs `search` over its components; a split
/// run uses one pool for both.
pub(crate) fn solve<R>(
    problem: &ProblemInstance,
    cfg: &AlgoConfig,
    search: fn(&[LocalComponent], &AlgoConfig, Option<&rayon::ThreadPool>) -> R,
) -> R {
    let pool = pool_for(cfg);
    let comps = match &pool {
        Some(pool) => problem.preprocess_on(pool),
        None => problem.preprocess(),
    };
    search(&comps, cfg, pool.as_ref())
}

/// Split depth: deep enough that the frontier (≤ `2^d` subtasks per
/// component) keeps every worker busy despite uneven subtree sizes.
fn split_depth(threads: usize) -> usize {
    let target = (threads * 8).max(2) - 1;
    (usize::BITS - target.leading_zeros()) as usize
}

/// The split depth of a run of `cfg` on `pool`, or `None` (no pool, one
/// worker, or a configuration that never splits) for the inline run.
fn split_on<'p>(
    cfg: &AlgoConfig,
    pool: Option<&'p rayon::ThreadPool>,
) -> Option<(&'p rayon::ThreadPool, usize)> {
    let pool = pool.filter(|p| splits(cfg) && p.current_num_threads() > 1)?;
    Some((pool, split_depth(pool.current_num_threads())))
}

/// Runs `f` over `items` on `pool`'s workers, returning the outputs in
/// item order. The association between an item and its output is by
/// index, so callers never correlate results positionally themselves.
pub(crate) fn ordered_pool_map<'env, T, U, F>(
    pool: &rayon::ThreadPool,
    items: &'env [T],
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&'env T) -> U + Sync,
{
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let obs = crate::obs::engine_obs();
    obs.pool_tasks.add(items.len() as u64);
    // The spawning thread runs `pool.scope`'s body itself; a task that
    // executes on any other thread crossed the pool's stealing deques.
    let spawner = std::thread::current().id();
    pool.scope(|s| {
        for (item, slot) in items.iter().zip(&slots) {
            let f = &f;
            s.spawn(move |_| {
                if std::thread::current().id() != spawner {
                    crate::obs::engine_obs().pool_tasks_stolen.inc();
                }
                *slot.lock().expect("slot lock") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("worker completed")
        })
        .collect()
}

/// One DFS-ordered event of a tracking walk (see [`Walk`]), folded by the
/// maximum search's merge.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// A node at the split depth, left for a pool task. The attached
    /// incumbent is the walk's best size at that point — exactly the
    /// DFS-prefix knowledge the inline run would have had there.
    Task {
        /// Decision path from the component root to the subtree.
        prefix: Vec<Decision>,
        /// Best size at task creation (ignored by enumeration).
        start_incumbent: usize,
    },
    /// A leaf piece that improved the walk's incumbent (maximum search).
    Found {
        /// Size of the piece.
        size: usize,
        /// Members (component-local ids).
        piece: Vec<VertexId>,
    },
    /// Where the named task's subtree left the walk — a numbered split
    /// point or a donated sibling; its events splice in here.
    Child(u64),
}

/// A pending second branch on a tracking walk's DFS path: the donation
/// currency of re-splitting.
struct DonationSlot {
    /// Length of the walk's decision path at the branch node (the
    /// sibling's prefix is `path[..depth]` plus `sibling`).
    depth: usize,
    /// The branch the walk has not yet taken at that node.
    sibling: Decision,
    /// Task id the sibling was donated as, if any; the walk then skips
    /// the branch on unwind and records an [`Event::Child`] instead.
    donated: Option<u64>,
}

/// Surface through which a running pool task re-splits.
trait DonationHost {
    /// How many fresh subtasks the pool could absorb right now. Zero
    /// means the pool is busy and donation would only add replay
    /// overhead.
    fn wanted(&self) -> usize;
    /// Spawns `prefix` as a fresh subtask and returns its task id.
    /// `start_incumbent` is the donor's best size at donation time
    /// (ignored by enumeration).
    fn donate(&self, prefix: Vec<Decision>, start_incumbent: usize) -> u64;
}

/// The state both drivers share: budget, counters, and the split and
/// donation bookkeeping of one walk over one component.
///
/// A walk *tracks* — keeps its DFS path, pending siblings and events —
/// when it splits (frontier generation) or runs as a pool task; the
/// inline walk tracks nothing.
pub(crate) struct Walk<'a> {
    pub(crate) comp: &'a LocalComponent,
    pub(crate) cfg: &'a AlgoConfig,
    pub(crate) chooser: Chooser,
    pub(crate) stats: SearchStats,
    /// Set when the node limit, deadline or cancel flag stopped the walk.
    pub(crate) aborted: bool,
    deadline: Option<Instant>,
    /// Depth at which a node becomes an [`Event::Task`] instead of being
    /// searched; `None` searches to the leaves.
    split: Option<usize>,
    /// Re-split host, set on pool tasks.
    host: Option<&'a dyn DonationHost>,
    /// Decision path from the component root to the current node
    /// (prefix decisions included for pool tasks).
    path: Vec<Decision>,
    /// One entry per ancestor whose second branch is still pending —
    /// the frontier a re-split donates from.
    slots: Vec<DonationSlot>,
    /// DFS-ordered events.
    pub(crate) events: Vec<Event>,
}

impl<'a> Walk<'a> {
    fn new(
        comp: &'a LocalComponent,
        cfg: &'a AlgoConfig,
        deadline: Option<Instant>,
        split: Option<usize>,
        host: Option<&'a dyn DonationHost>,
    ) -> Self {
        Walk {
            comp,
            cfg,
            chooser: Chooser::new(cfg, comp.len()),
            stats: SearchStats::default(),
            aborted: false,
            deadline,
            split,
            host,
            path: Vec::new(),
            slots: Vec::new(),
            events: Vec::new(),
        }
    }

    pub(crate) fn tracking(&self) -> bool {
        self.split.is_some() || self.host.is_some()
    }

    /// Node entry, shared by both drivers: records a task at the split
    /// depth, counts the node, checks the budget, and lets a pool task
    /// donate pending siblings. `false` closes the node. `incumbent` is
    /// the best size a task started here would inherit (0 for
    /// enumeration).
    pub(crate) fn enter(&mut self, incumbent: usize) -> bool {
        if self.split == Some(self.path.len()) {
            self.events.push(Event::Task {
                prefix: self.path.clone(),
                start_incumbent: incumbent,
            });
            return false;
        }
        self.stats.nodes += 1;
        if self.budget_exceeded() {
            return false;
        }
        self.maybe_donate(incumbent);
        true
    }

    /// The one budget check: node limit, deadline, cancel flag.
    pub(crate) fn budget_exceeded(&mut self) -> bool {
        let cfg = self.cfg;
        if cfg
            .node_limit
            .is_some_and(|limit| self.stats.nodes >= limit)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
            || cfg.cancel.as_ref().is_some_and(|c| c.is_cancelled())
        {
            self.aborted = true;
        }
        self.aborted
    }

    /// Re-split check: donate the shallowest pending siblings of the
    /// current DFS path while the host still wants tasks. Shallowest
    /// first — those subtrees are the largest, so one donation feeds an
    /// idle worker for longest.
    fn maybe_donate(&mut self, start_incumbent: usize) {
        let Some(host) = self.host else { return };
        let mut want = host.wanted();
        if want == 0 {
            return;
        }
        let mut donated = 0u64;
        for slot in self.slots.iter_mut() {
            if want == 0 {
                break;
            }
            if slot.donated.is_some() {
                continue;
            }
            let mut prefix = self.path[..slot.depth].to_vec();
            prefix.push(slot.sibling);
            slot.donated = Some(host.donate(prefix, start_incumbent));
            donated += 1;
            want -= 1;
        }
        if donated > 0 {
            self.stats.resplits += 1;
            self.stats.resplit_subtasks += donated;
            let obs = crate::obs::engine_obs();
            obs.resplits.inc();
            obs.resplit_subtasks.add(donated);
        }
    }
}

/// A search driver: one recursive walk over one component.
pub(crate) trait Search<'a> {
    fn walk(&mut self) -> &mut Walk<'a>;
    /// Visits one search node, entering it through [`Walk::enter`] and
    /// descending through [`branch`].
    fn node(&mut self, st: &mut SearchState<'a>);
}

fn apply(st: &mut SearchState<'_>, u: VertexId, expand: bool) -> bool {
    if expand {
        st.expand(u)
    } else {
        st.shrink(u)
    }
}

/// Searches the node `prefix` names (the component root when empty).
/// Replay applies the same node-entry promotions the walk applied, so the
/// reconstructed state is bit-identical to the walk's state at that node.
pub(crate) fn run<'a, S: Search<'a>>(search: &mut S, prefix: &[Decision]) {
    let walk = search.walk();
    let mut st = SearchState::new(walk.comp);
    if !st.prune_root() {
        return;
    }
    for (i, &(u, expand)) in prefix.iter().enumerate() {
        if walk.cfg.retain_candidates {
            promote_free_candidates(&mut st);
        }
        if !apply(&mut st, u, expand) {
            // Only the *final* decision of a donated prefix may fail: it
            // is the one branch the donor never attempted itself, and an
            // infeasible sibling is an empty subtree.
            debug_assert_eq!(i + 1, prefix.len(), "prefix replay failed early");
            return;
        }
    }
    walk.path = prefix.to_vec();
    search.node(&mut st);
}

/// Searches both children of a node that branched on `u`, `order[0]`
/// first (`true` = expand). A tracking walk keeps the DFS path and the
/// pending second branch as a donation slot; a sibling donated meanwhile
/// is skipped here and an [`Event::Child`] marks its place.
pub(crate) fn branch<'a, S: Search<'a>>(
    search: &mut S,
    st: &mut SearchState<'a>,
    u: VertexId,
    order: [bool; 2],
) {
    let track = search.walk().tracking();
    let m = st.mark();
    let mut donated = None;
    if apply(st, u, order[0]) {
        if track {
            let walk = search.walk();
            walk.slots.push(DonationSlot {
                depth: walk.path.len(),
                sibling: (u, order[1]),
                donated: None,
            });
            walk.path.push((u, order[0]));
        }
        search.node(st);
        if track {
            let walk = search.walk();
            walk.path.pop();
            donated = walk.slots.pop().expect("slot pushed above").donated;
        }
    }
    st.rollback(m);
    if let Some(tid) = donated {
        search.walk().events.push(Event::Child(tid));
        return;
    }
    if apply(st, u, order[1]) {
        if track {
            search.walk().path.push((u, order[1]));
        }
        search.node(st);
        if track {
            search.walk().path.pop();
        }
    }
    st.rollback(m);
}

/// Starvation signal and task-id allocator shared by every task of one
/// split run (initial and donated alike).
struct ResplitShared {
    /// Tasks spawned and not yet finished.
    live: AtomicUsize,
    workers: usize,
    /// Next task id; initial tasks own `0..initial`, donations allocate
    /// from `initial` upward.
    next_tid: AtomicUsize,
    mode: Resplit,
}

impl ResplitShared {
    fn wanted(&self) -> usize {
        match self.mode {
            Resplit::Off => 0,
            Resplit::Forced => 1,
            // Fewer live tasks than workers ⇒ at least that many workers
            // have nothing left to steal.
            Resplit::Adaptive => self
                .workers
                .saturating_sub(self.live.load(Ordering::Relaxed)),
        }
    }
}

/// Which search the pool tasks run.
#[derive(Clone, Copy)]
enum Goal<'env> {
    Enumerate,
    /// Maximum search, sharing its incumbent size through an atomic.
    Maximum(&'env AtomicUsize),
}

/// What one pool task leaves for the merge.
struct Outcome {
    /// Confirmed cores (enumeration).
    sink: CoreSink,
    /// DFS-ordered events (maximum search).
    events: Vec<Event>,
    stats: SearchStats,
    aborted: bool,
}

/// Everything a pool task needs, bundled copyably so donated tasks can
/// be spawned recursively from inside a running one.
#[derive(Clone, Copy)]
struct TaskCtx<'env> {
    comps: &'env [LocalComponent],
    cfg: &'env AlgoConfig,
    deadline: Option<Instant>,
    goal: Goal<'env>,
    shared: &'env ResplitShared,
    outcomes: &'env Mutex<BTreeMap<u64, Outcome>>,
    spawner: std::thread::ThreadId,
}

/// Spawns one pool task (initial or donated) onto the scope.
fn spawn_task<'scope, 'env: 'scope>(
    s: &rayon::Scope<'scope>,
    ctx: TaskCtx<'env>,
    tid: u64,
    ci: usize,
    prefix: Vec<Decision>,
    start_incumbent: usize,
) {
    ctx.shared.live.fetch_add(1, Ordering::SeqCst);
    crate::obs::engine_obs().pool_tasks.inc();
    s.spawn(move |s| {
        if std::thread::current().id() != ctx.spawner {
            crate::obs::engine_obs().pool_tasks_stolen.inc();
        }
        let host = Host { s, ctx, ci };
        let walk = Walk::new(&ctx.comps[ci], ctx.cfg, ctx.deadline, None, Some(&host));
        let (sink, walk) = match ctx.goal {
            Goal::Enumerate => {
                let mut driver = Driver::new(walk);
                run(&mut driver, &prefix);
                (driver.sink, driver.walk)
            }
            Goal::Maximum(global) => {
                let mut driver = MaxDriver::new(walk, start_incumbent, Some(global));
                run(&mut driver, &prefix);
                (CoreSink::new(), driver.walk)
            }
        };
        let outcome = Outcome {
            sink,
            events: walk.events,
            stats: walk.stats,
            aborted: walk.aborted,
        };
        ctx.outcomes
            .lock()
            .expect("outcomes lock")
            .insert(tid, outcome);
        ctx.shared.live.fetch_sub(1, Ordering::SeqCst);
    });
}

struct Host<'a, 'scope, 'env> {
    s: &'a rayon::Scope<'scope>,
    ctx: TaskCtx<'env>,
    ci: usize,
}

impl<'a, 'scope, 'env: 'scope> DonationHost for Host<'a, 'scope, 'env> {
    fn wanted(&self) -> usize {
        self.ctx.shared.wanted()
    }

    fn donate(&self, prefix: Vec<Decision>, start_incumbent: usize) -> u64 {
        let tid = self.ctx.shared.next_tid.fetch_add(1, Ordering::Relaxed) as u64;
        spawn_task(self.s, self.ctx, tid, self.ci, prefix, start_incumbent);
        tid
    }
}

/// Runs the split points `tasks` (component index, prefix, start
/// incumbent) on `pool` and returns every task's outcome by id: initial
/// tasks own `0..tasks.len()`, donated ones are numbered from there.
fn run_tasks(
    comps: &[LocalComponent],
    cfg: &AlgoConfig,
    deadline: Option<Instant>,
    pool: &rayon::ThreadPool,
    goal: Goal<'_>,
    tasks: Vec<(usize, Vec<Decision>, usize)>,
) -> BTreeMap<u64, Outcome> {
    crate::obs::engine_obs()
        .subtasks_split
        .add(tasks.len() as u64);
    let shared = ResplitShared {
        live: AtomicUsize::new(0),
        workers: pool.current_num_threads(),
        next_tid: AtomicUsize::new(tasks.len()),
        mode: cfg.resplit,
    };
    let outcomes = Mutex::new(BTreeMap::new());
    let ctx = TaskCtx {
        comps,
        cfg,
        deadline,
        goal,
        shared: &shared,
        outcomes: &outcomes,
        spawner: std::thread::current().id(),
    };
    pool.scope(|s| {
        for (tid, (ci, prefix, start_incumbent)) in tasks.into_iter().enumerate() {
            spawn_task(s, ctx, tid as u64, ci, prefix, start_incumbent);
        }
    });
    outcomes.into_inner().expect("outcomes lock")
}

fn deadline_of(cfg: &AlgoConfig) -> Option<Instant> {
    cfg.time_limit_ms
        .map(|ms| Instant::now() + std::time::Duration::from_millis(ms))
}

fn merge_stats(into: &mut SearchStats, from: SearchStats) {
    into.nodes += from.nodes;
    into.leaves += from.leaves;
    into.early_terminations += from.early_terminations;
    into.bound_prunes += from.bound_prunes;
    into.maximal_checks += from.maximal_checks;
    into.resplits += from.resplits;
    into.resplit_subtasks += from.resplit_subtasks;
}

/// [`crate::enumerate_maximal`] over preprocessed components, inline or
/// split across `pool` (see the module docs for which).
pub(crate) fn enumerate_on(
    comps: &[LocalComponent],
    cfg: &AlgoConfig,
    pool: Option<&rayon::ThreadPool>,
) -> EnumResult {
    let split = split_on(cfg, pool);
    let deadline = deadline_of(cfg);
    // Walk every component from its root: to the leaves inline (streaming
    // as it goes), or down to the split depth.
    let mut runs = Vec::with_capacity(comps.len());
    let mut tasks = Vec::new();
    for (ci, comp) in comps.iter().enumerate() {
        let walk = Walk::new(comp, cfg, deadline, split.map(|(_, d)| d), None);
        let mut driver = Driver::new(walk);
        if split.is_none() {
            driver = driver.with_streaming();
        }
        driver.run();
        for event in driver.walk.events {
            if let Event::Task { prefix, .. } = event {
                tasks.push((ci, prefix, 0));
            }
        }
        runs.push((driver.sink, driver.walk.stats, driver.walk.aborted));
    }
    // A running task that sees the pool starving re-splits (per
    // `cfg.resplit`). The sink union below is traversal-independent, so
    // donated results merge exactly like initial ones.
    if let Some((pool, _)) = split {
        let outcomes = run_tasks(comps, cfg, deadline, pool, Goal::Enumerate, tasks);
        runs.extend(outcomes.into_values().map(|o| (o.sink, o.stats, o.aborted)));
    }

    // Merge. Cross-task duplicates are possible (the same leaf piece is
    // reachable in several subtrees); the sink dedups them. With the
    // maximal check on, every deduplicated core is final, so a split run
    // streams here — exactly once per core.
    let stream = cfg
        .on_core
        .as_ref()
        .filter(|_| split.is_some() && cfg.maximal_check);
    let mut sink = CoreSink::new();
    let mut stats = SearchStats::default();
    let mut completed = true;
    for (run_sink, run_stats, aborted) in runs {
        for core in run_sink.into_cores() {
            push_core(&mut sink, core, stream);
        }
        merge_stats(&mut stats, run_stats);
        completed &= !aborted;
    }
    // Algorithm 1 lines 6–8: naive maximal post-filter, needed whenever
    // the Theorem 6 check was not active.
    let mut cores = if cfg.maximal_check {
        sink.into_cores()
    } else {
        sink.into_maximal()
    };
    cores.sort_by(|a, b| a.vertices.cmp(&b.vertices));
    EnumResult {
        cores,
        stats,
        completed,
    }
}

/// [`crate::find_maximum`] over preprocessed components, inline or split
/// across `pool` (see the module docs for which, and for why both return
/// the same core).
pub(crate) fn find_maximum_on(
    comps: &[LocalComponent],
    cfg: &AlgoConfig,
    pool: Option<&rayon::ThreadPool>,
) -> MaxResult {
    let split = split_on(cfg, pool);
    let deadline = deadline_of(cfg);
    // Walk the components in order, carrying the incumbent across them.
    // Components are ordered so that the one holding the highest-degree
    // vertex is searched first (Section 6.1); a later component whose
    // total size cannot beat the incumbent is skipped outright. A split
    // run's incumbent here is DFS-prefix knowledge only, so a component
    // skipped here would be skipped inline too.
    let mut result = MaxResult {
        core: None,
        stats: SearchStats::default(),
        completed: true,
    };
    let mut incumbent = 0usize;
    let mut plan: Vec<(usize, Vec<Event>)> = Vec::new();
    let mut tasks = Vec::new();
    for (ci, comp) in comps.iter().enumerate() {
        if comp.len() <= incumbent {
            result.stats.bound_prunes += 1;
            continue;
        }
        let walk = Walk::new(comp, cfg, deadline, split.map(|(_, d)| d), None);
        let mut driver = MaxDriver::new(walk, incumbent, None);
        run(&mut driver, &[]);
        incumbent = driver.best_len;
        merge_stats(&mut result.stats, driver.walk.stats);
        result.completed &= !driver.walk.aborted;
        if split.is_none() {
            if !driver.best_local.is_empty() {
                result.core = Some(KrCore::new(comp.globalize(&driver.best_local)));
            }
            continue;
        }
        // Number every split point as a task, leaving a `Child` marker at
        // its DFS position for the merge.
        let events = driver.walk.events.into_iter().map(|event| match event {
            Event::Task {
                prefix,
                start_incumbent,
            } => {
                tasks.push((ci, prefix, start_incumbent));
                Event::Child(tasks.len() as u64 - 1)
            }
            other => other,
        });
        plan.push((ci, events.collect()));
    }
    let Some((pool, _)) = split else {
        return result;
    };

    // Tasks share the incumbent through an atomic and may re-split (per
    // `cfg.resplit`); every task deposits its DFS-ordered events under
    // its id.
    let global = AtomicUsize::new(incumbent);
    let mut outcomes = run_tasks(comps, cfg, deadline, pool, Goal::Maximum(&global), tasks);
    for (ci, events) in plan {
        fold(&comps[ci], events, &mut outcomes, &mut result);
    }
    debug_assert!(
        outcomes.is_empty(),
        "every task is reachable from a generator's events"
    );
    result
}

/// Folds DFS-ordered events into `result`, carrying its core as the
/// incumbent and splicing a task's events in at its `Child` marker —
/// exactly where the inline walk would have searched that subtree — so
/// the fold sees finds in inline DFS order.
fn fold(
    comp: &LocalComponent,
    events: Vec<Event>,
    outcomes: &mut BTreeMap<u64, Outcome>,
    result: &mut MaxResult,
) {
    for event in events {
        match event {
            Event::Found { size, piece } => {
                if size > result.core.as_ref().map_or(0, KrCore::len) && !piece.is_empty() {
                    result.core = Some(KrCore::new(comp.globalize(&piece)));
                }
            }
            Event::Child(tid) => {
                let outcome = outcomes.remove(&tid).expect("each task merged once");
                merge_stats(&mut result.stats, outcome.stats);
                result.completed &= !outcome.aborted;
                fold(comp, outcome.events, outcomes, result);
            }
            Event::Task { .. } => unreachable!("split points are numbered before the merge"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_maximal;
    use crate::maximum::find_maximum;
    use kr_graph::Graph;
    use kr_similarity::{AttributeTable, Metric, Threshold};

    /// Three bridged cliques, mixed similarity (same shape the sequential
    /// engines are tested on).
    fn instance(r: f64) -> ProblemInstance {
        let mut edges = vec![];
        for group in [[0u32, 1, 2, 3], [3u32, 4, 5, 6], [3u32, 7, 8, 9]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((group[i], group[j]));
                }
            }
        }
        for v in [3u32, 7, 8, 9] {
            edges.push((v, 10));
        }
        let g = Graph::from_edges(11, &edges);
        let pts = vec![
            (0.0, 0.0),
            (1.0, 0.0),
            (0.0, 1.0),
            (5.0, 0.0),
            (10.0, 0.0),
            (11.0, 0.0),
            (10.0, 1.0),
            (5.0, 4.0),
            (6.0, 4.0),
            (5.0, 5.0),
            (6.0, 5.0),
        ];
        ProblemInstance::new(
            g,
            AttributeTable::points(pts),
            Metric::Euclidean,
            Threshold::MaxDistance(r),
            2,
        )
    }

    #[test]
    fn parallel_enum_identical_to_sequential() {
        for r in [0.5, 7.0, 9.0, 100.0] {
            let p = instance(r);
            let seq = enumerate_maximal(&p, &AlgoConfig::adv_enum());
            for threads in [2, 4, 8] {
                let par =
                    enumerate_maximal(&p, &AlgoConfig::adv_enum_parallel().with_threads(threads));
                assert!(par.completed);
                assert_eq!(par.cores, seq.cores, "r={r} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_max_identical_to_sequential() {
        for r in [0.5, 7.0, 9.0, 100.0] {
            let p = instance(r);
            let seq = find_maximum(&p, &AlgoConfig::adv_max());
            for threads in [2, 4, 8] {
                let par = find_maximum(&p, &AlgoConfig::adv_max_parallel().with_threads(threads));
                assert!(par.completed);
                assert_eq!(
                    par.core.as_ref().map(|c| &c.vertices),
                    seq.core.as_ref().map(|c| &c.vertices),
                    "r={r} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn thread_knob_one_uses_sequential_engine() {
        let p = instance(7.0);
        let cfg = AlgoConfig::adv_enum_parallel().with_threads(1);
        // threads == 1 must run the inline walk: same cores, same counters.
        let a = enumerate_maximal(&p, &cfg);
        let b = enumerate_maximal(&p, &AlgoConfig::adv_enum());
        assert_eq!(a.cores, b.cores);
        assert_eq!(a.stats, b.stats);
        let a = find_maximum(&p, &AlgoConfig::adv_max_parallel().with_threads(1));
        let b = find_maximum(&p, &AlgoConfig::adv_max());
        assert_eq!(a.core, b.core);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn one_worker_means_no_pool() {
        assert!(thread_pool(1).is_none());
        assert_eq!(thread_pool(3).map(|p| p.current_num_threads()), Some(3));
        // A one-worker pool handed in explicitly still runs inline.
        let p = instance(7.0);
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let comps = p.preprocess();
        let cfg = AlgoConfig::adv_max().with_threads(4);
        let on = crate::find_maximum_prepared_on(&comps, &cfg, &one);
        let inline = find_maximum(&p, &AlgoConfig::adv_max());
        assert_eq!(on.stats, inline.stats);
    }

    #[test]
    fn split_depth_scales() {
        assert_eq!(split_depth(1), 3); // 8 tasks
        assert_eq!(split_depth(4), 5); // 32 tasks
        assert!(split_depth(64) <= 10);
    }

    #[test]
    fn parallel_prepared_matches_and_streams() {
        let p = instance(7.0);
        let comps = p.preprocess();
        let seq = enumerate_maximal(&p, &AlgoConfig::adv_enum());
        let streamed = std::sync::Arc::new(Mutex::new(Vec::new()));
        let tap = streamed.clone();
        let cfg = AlgoConfig::adv_enum_parallel()
            .with_threads(4)
            .with_on_core(crate::config::CoreHook::new(
                move |c: &crate::result::KrCore| tap.lock().unwrap().push(c.clone()),
            ));
        let par = crate::enumerate_maximal_prepared(&comps, &cfg);
        assert_eq!(par.cores, seq.cores);
        let mut streamed = streamed.lock().unwrap().clone();
        streamed.sort_by(|a, b| a.vertices.cmp(&b.vertices));
        assert_eq!(streamed, seq.cores, "merge phase streams each core once");

        let max_seq = find_maximum(&p, &AlgoConfig::adv_max());
        let max_par =
            crate::find_maximum_prepared(&comps, &AlgoConfig::adv_max_parallel().with_threads(4));
        assert_eq!(
            max_par.core.as_ref().map(|c| &c.vertices),
            max_seq.core.as_ref().map(|c| &c.vertices),
        );
    }

    #[test]
    fn basic_enum_parallel_matches_without_maximal_check() {
        // No Theorem 6 check: the parallel merge must fall back to the
        // global subset post-filter and still agree with sequential.
        let p = instance(7.0);
        let seq = enumerate_maximal(&p, &AlgoConfig::basic_enum());
        let par = enumerate_maximal(&p, &AlgoConfig::basic_enum().with_threads(4));
        assert_eq!(par.cores, seq.cores);
    }
}
