//! perfbench: the end-to-end and per-layer benchmark of the (k,r)-core
//! server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search-dblp|mixed-gowalla|max-corridor> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: an in-process
//! `kr_server::Server` on the workload's generated snapshot, driven by one
//! client in a closed loop for `--seconds`. `--trace 1` measures the
//! per-layer metrics: the server run again, each half second of its ops
//! then replayed in-process with spans around every layer call, and once
//! more with spans off to price the tracing. Every run checks the program's
//! answers; the last line of standard output is one JSON object with the
//! verdict and the metrics. See `perfbench/README.md`.

mod check;
mod drive;
mod replay;
mod stats;
mod trace;
mod workload;

use drive::{Outcome, Reply};
use replay::{Record, Replay};
use stats::{mean, median, ratio, tail};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{Tracer, NOT_A_LAYER, SETUP_OP};
use workload::{Plan, Workload};

/// Server set-ups per untraced run: at least `MIN_SETUPS`, more while
/// they fit in `SETUP_BUDGET_S` (up to `MAX_SETUPS`); `setup_s` is their
/// median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 3.0;

/// Server time between replay blocks in a traced run.
const TRACE_BLOCK_S: f64 = 0.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    if flags.len() != 4 || args.seconds <= 0.0 {
        return Err("expected exactly --workload, --seed, --seconds (> 0) and --trace".to_string());
    }
    Ok(args)
}

/// Scratch space for snapshots, spans and the counts ledger.
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One metric line of the result.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Failed ops and run-level problems, gathered off the clock, and the ops
/// whose cache state drifted from the replay's (reported, not failed).
#[derive(Default)]
struct Verdict {
    failed_ops: BTreeSet<usize>,
    problems: Vec<String>,
    drifted_ops: BTreeSet<usize>,
}

impl Verdict {
    fn drift(&mut self, i: usize, why: String) {
        if self.drifted_ops.insert(i) && self.drifted_ops.len() <= 5 {
            eprintln!("op {i} drifted from the replay: {why}");
        }
    }

    fn op(&mut self, i: usize, why: String) {
        if self.failed_ops.insert(i) && self.failed_ops.len() <= 5 {
            eprintln!("op {i} failed: {why}");
        }
    }

    fn problem(&mut self, why: String) {
        eprintln!("{why}");
        self.problems.push(why);
    }
}

/// A server set up (several times; the last one kept) and connected.
struct Serving {
    handle: kr_server::ServerHandle,
    client: kr_server::Client,
    setups_s: Vec<f64>,
    /// The snapshot with the server's freshly built decomposition index,
    /// so replays that do not time the build skip it.
    indexed: PathBuf,
}

/// The server half of a run, measured.
struct Served {
    setups_s: Vec<f64>,
    outcomes: Vec<Outcome>,
    run_s: f64,
    rss_mb: f64,
    indexed: PathBuf,
}

fn set_up(plan: &Plan, snapshot: &Path, min_setups: usize) -> Result<Serving, String> {
    let name = plan.dataset.name;
    let warmup_r = plan.keys[0].1;
    let snapshot_str = snapshot.to_str().ok_or("non-UTF-8 path")?;
    let mut setups_s = Vec::new();
    let mut server: Option<(kr_server::ServerHandle, kr_server::Client)> = None;
    while setups_s.len() < min_setups
        || (setups_s.len() < MAX_SETUPS && setups_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let (handle, client, secs) = drive::start(name, snapshot_str, warmup_r)?;
        setups_s.push(secs);
        if let Some((old, old_client)) = server.replace((handle, client)) {
            drop(old_client);
            old.shutdown_and_join().map_err(|e| e.to_string())?;
        }
    }
    let (handle, client) = server.ok_or("no set-up ran")?;
    let index = handle
        .state()
        .datasets
        .get(name, 1.0)?
        .view()
        .index
        .ok_or("the warm-up query built no index")?;
    let indexed = snapshot.with_extension("indexed.krb");
    let ds = &plan.dataset;
    kr_core::write_indexed_snapshot_file(
        &indexed,
        &ds.graph,
        &ds.original_ids,
        &ds.attributes,
        ds.metric,
        &index,
    )
    .map_err(|e| e.to_string())?;
    Ok(Serving {
        handle,
        client,
        setups_s,
        indexed,
    })
}

impl Serving {
    /// The measured run (see [`drive::run`]), then shutdown.
    fn measure(
        mut self,
        plan: &mut Plan,
        seconds: f64,
        block_s: f64,
        after_block: &mut dyn FnMut(&[Outcome]) -> Result<(), String>,
    ) -> Result<Served, String> {
        let (outcomes, run_s) = drive::run(&mut self.client, plan, seconds, block_s, after_block)?;
        let rss_mb = peak_rss_mb();
        drop(self.client);
        self.handle.shutdown_and_join().map_err(|e| e.to_string())?;
        Ok(Served {
            setups_s: self.setups_s,
            outcomes,
            run_s,
            rss_mb,
            indexed: self.indexed,
        })
    }
}

/// A replay fed the run's ops one at a time.
struct Replayed<'p> {
    replay: Replay<'p>,
    records: Vec<Record>,
    prefix: usize,
    /// Answer repeated queries from the memo once the prefix has run.
    memo_after_prefix: bool,
    /// Lazy-view totals when the prefix had run.
    prefix_tally: replay::LazyTally,
    /// Wall time spent inside [`Replay::run`].
    busy_s: f64,
}

impl<'p> Replayed<'p> {
    fn new(replay: Replay<'p>, prefix: usize, memo_after_prefix: bool) -> Replayed<'p> {
        Replayed {
            replay,
            records: Vec::new(),
            prefix,
            memo_after_prefix,
            prefix_tally: replay::LazyTally::default(),
            busy_s: 0.0,
        }
    }

    fn push(&mut self, o: &Outcome) -> Result<(), String> {
        let i = self.records.len();
        if i == self.prefix && self.memo_after_prefix {
            self.replay.memoize();
        }
        let t = Instant::now();
        self.records
            .push(self.replay.run(i as u32, &o.op, o.state)?);
        self.busy_s += t.elapsed().as_secs_f64();
        if i + 1 == self.prefix {
            self.prefix_tally = self.replay.lazy_tally();
        }
        Ok(())
    }
}

/// Checks every server reply against the replay's, the from-scratch
/// sample, and the prefix counts.
fn check_run(
    plan: &Plan,
    seed: u64,
    outcomes: &[Outcome],
    records: &[Record],
    prefix_tally: replay::LazyTally,
    exact_all: bool,
    verdict: &mut Verdict,
) {
    let prefix = plan.workload.prefix_ops();
    for (i, o) in outcomes.iter().enumerate() {
        match &o.reply {
            Err(e) => verdict.op(i, e.clone()),
            Ok(Reply::Query {
                completed: false, ..
            }) => verdict.op(i, "completed: false".to_string()),
            Ok(reply) => {
                let replay = &records[i].reply;
                if let Some(why) = check::disagreement(reply, replay) {
                    verdict.op(i, why);
                }
                // Past the prefix an untraced run's replay answers repeats
                // from its memo, so its cache state is only known before.
                if i < prefix || exact_all {
                    if let Some(why) = check::drift(&o.op, reply, replay) {
                        verdict.drift(i, why);
                    }
                }
            }
        }
    }
    for (i, why) in check::from_scratch(plan, outcomes, seed) {
        verdict.op(i, format!("from-scratch check: {why}"));
    }
    let counts = check::prefix_counts(outcomes, records, prefix, prefix_tally);
    println!("prefix counts: {counts}");
    let key = format!("{}-{seed}-{:016x}", plan.workload.name(), build_id());
    if let Err(e) = check::ledger(&work_dir().join("counts"), &key, &counts) {
        verdict.problem(e);
    }
}

/// Answered ops of one kind: `(index, outcome)`.
fn answered(outcomes: &[Outcome], queries: bool) -> Vec<(usize, &Outcome)> {
    outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.op.is_query() == queries && o.reply.is_ok())
        .collect()
}

fn end_to_end(served: &Served) -> Vec<Metric> {
    let queries = answered(&served.outcomes, true);
    let writes = answered(&served.outcomes, false);
    let ms = |v: Vec<f64>| v.into_iter().map(|s| s * 1e3).collect::<Vec<f64>>();
    let q_lat = ms(queries.iter().map(|(_, o)| o.latency_s).collect());
    let w_lat = ms(writes.iter().map(|(_, o)| o.latency_s).collect());
    let first = ms(queries.iter().filter_map(|(_, o)| o.first_core_s).collect());
    let (q_tail, q_pct, q_n) = tail(&q_lat);
    let (w_tail, w_pct, w_n) = tail(&w_lat);
    let half = served.run_s / 2.0;
    let early = queries.iter().filter(|(_, o)| o.ended_s < half).count();
    println!(
        "run: {:.3} s, {} queries, {} writes; qps first half {:.3}, second half {:.3}",
        served.run_s,
        queries.len(),
        writes.len(),
        ratio(early as f64, half),
        ratio((queries.len() - early) as f64, half)
    );
    println!("query_tail_ms is p{q_pct:.1} of {q_n} samples");
    // Reported, but not metrics: on a shared 2-vCPU machine they moved by
    // a third or more between runs of the same build (see README.md).
    println!(
        "update p50 {:.4} ms, tail {w_tail:.4} ms (p{w_pct:.1} of {w_n} samples); peak RSS {:.2} MB",
        median(&w_lat),
        served.rss_mb
    );
    println!(
        "set-ups: {}",
        served
            .setups_s
            .iter()
            .map(|s| format!("{s:.3} s"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    vec![
        m("setup_s", median(&served.setups_s), "s"),
        m("query_p50_ms", median(&q_lat), "ms"),
        m("query_tail_ms", q_tail, "ms"),
        m("qps", ratio(queries.len() as f64, served.run_s), "1/s"),
        m("first_core_p50_ms", median(&first), "ms"),
        // A mean, not a median: a write takes a few ms, so each one sees
        // the machine in its fast or its ~1.5x slower state, and the
        // median jumps between the two as their shares of the run pass
        // one half; the mean moves only in proportion (see README.md).
        m("update_mean_ms", mean(&w_lat), "ms"),
    ]
}

/// Span totals over the run's ops.
struct SpanTotals {
    /// Span name → (self ns, calls).
    by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Op → layer → self ns (spans that are no layer left out).
    per_op: BTreeMap<u32, BTreeMap<&'static str, u64>>,
    /// Setup span name → duration ns.
    setup: BTreeMap<&'static str, u64>,
}

fn span_totals(tracer: &Tracer) -> SpanTotals {
    let spans = tracer.spans();
    let own = Tracer::self_times_ns(&spans);
    let mut t = SpanTotals {
        by_name: BTreeMap::new(),
        per_op: BTreeMap::new(),
        setup: BTreeMap::new(),
    };
    for (s, own) in spans.iter().zip(own) {
        if s.op == SETUP_OP {
            t.setup.insert(s.name, s.dur_ns());
            continue;
        }
        let e = t.by_name.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
        if !NOT_A_LAYER.contains(&s.name) {
            *t.per_op
                .entry(s.op)
                .or_default()
                .entry(s.layer())
                .or_default() += own;
        }
    }
    t
}

/// Prints where the untraced mean latency of one op type goes — every
/// layer's mean self time per op, plus the residual the replay cannot
/// reach — and returns that residual (`session.unaccounted_ms`), in ms.
fn books(
    label: &str,
    ops: &[(usize, &Outcome)],
    per_op: &BTreeMap<u32, BTreeMap<&'static str, u64>>,
) -> f64 {
    if ops.is_empty() {
        return 0.0;
    }
    let server = mean(
        &ops.iter()
            .map(|(_, o)| o.latency_s * 1e3)
            .collect::<Vec<_>>(),
    );
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &(i, _) in ops {
        for (layer, ns) in per_op.get(&(i as u32)).into_iter().flatten() {
            *layers.entry(layer).or_default() += *ns as f64 / 1e6 / ops.len() as f64;
        }
    }
    let unaccounted = server - layers.values().sum::<f64>();
    let share = |ms: f64| ratio(ms, server) * 100.0;
    let mut parts: Vec<String> = layers
        .iter()
        .map(|(layer, ms)| format!("{layer} {ms:.4} ({:.1}%)", share(*ms)))
        .collect();
    parts.push(format!(
        "session (unaccounted) {unaccounted:.4} ({:.1}%)",
        share(unaccounted)
    ));
    println!(
        "books, {label}: server mean {server:.4} ms = {}",
        parts.join(" + ")
    );
    unaccounted
}

fn per_layer(
    served: &Served,
    traced: &Replay,
    records: &[Record],
    overhead_pct: f64,
) -> Vec<Metric> {
    let SpanTotals {
        by_name,
        per_op,
        setup,
    } = span_totals(&traced.tracer);
    // Mean self time per call of one span name, in `unit_ns` units.
    let per_call = |name: &str, unit_ns: f64| {
        by_name
            .get(name)
            .map_or(0.0, |&(ns, calls)| ratio(ns as f64, calls as f64) / unit_ns)
    };
    let queries = answered(&served.outcomes, true);
    let writes = answered(&served.outcomes, false);
    let q_records: Vec<&Record> = queries.iter().map(|&(i, _)| &records[i]).collect();
    let searches: Vec<_> = q_records.iter().filter_map(|r| r.search).collect();
    let misses: Vec<_> = q_records.iter().filter_map(|r| r.miss).collect();
    let search_mean = |f: &dyn Fn(&kr_core::search::SearchStats) -> u64| {
        mean(&searches.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    let miss_mean = |f: &dyn Fn(&replay::Miss) -> u64| {
        mean(&misses.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    let hits = queries
        .iter()
        .filter(|(_, o)| matches!(o.reply, Ok(Reply::Query { hit: true, .. })))
        .count();
    let (mut repairs, mut invalidations, mut core_updates) = (0u64, 0u64, 0u64);
    for (_, o) in &writes {
        if let Ok(Reply::Mutated {
            repairs: r,
            invalidations: i,
            core_updates: c,
            ..
        }) = o.reply
        {
            repairs += r;
            invalidations += i;
            core_updates += c;
        }
    }
    let search_ns: u64 = ["search.enum_ms", "search.max_ms"]
        .iter()
        .filter_map(|n| by_name.get(n))
        .map(|&(ns, _)| ns)
        .sum();
    let nodes: u64 = searches.iter().map(|s| s.nodes).sum();
    let first_core: Vec<f64> = q_records
        .iter()
        .filter_map(|r| r.first_core_ns)
        .map(|ns| ns as f64 / 1e6)
        .collect();
    let unaccounted_query = books("queries", &queries, &per_op);
    let unaccounted_update = books("writes", &writes, &per_op);
    let tally = traced.lazy_tally();
    vec![
        m(
            "protocol.request_parse_us",
            per_call("protocol.request_parse_us", 1e3),
            "us",
        ),
        m(
            "protocol.frame_encode_us",
            per_call("protocol.frame_encode_us", 1e3),
            "us",
        ),
        m(
            "protocol.bytes_per_query",
            mean(&q_records.iter().map(|r| r.bytes as f64).collect::<Vec<_>>()),
            "B",
        ),
        m(
            "datasets.load_ms",
            setup.get("datasets.load_ms").copied().unwrap_or(0) as f64 / 1e6,
            "ms",
        ),
        m(
            "datasets.index_build_ms",
            setup.get("datasets.index_build_ms").copied().unwrap_or(0) as f64 / 1e6,
            "ms",
        ),
        m(
            "datasets.problem_us",
            per_call("datasets.problem_us", 1e3),
            "us",
        ),
        m(
            "datasets.apply_us",
            per_call("datasets.apply_us", 1e3),
            "us",
        ),
        m(
            "datasets.core_updates",
            ratio(core_updates as f64, writes.len() as f64),
            "count",
        ),
        m(
            "decomp.candidates_us",
            per_call("decomp.candidates_us", 1e3),
            "us",
        ),
        m(
            "decomp.candidate_vertices",
            miss_mean(&|m| m.candidate_vertices),
            "count",
        ),
        m("cache.lookup_us", per_call("cache.lookup_us", 1e3), "us"),
        m(
            "cache.hit_ratio",
            ratio(hits as f64, queries.len() as f64),
            "ratio",
        ),
        m(
            "cache.keep_ratio",
            ratio(repairs as f64, (repairs + invalidations) as f64),
            "ratio",
        ),
        m("preprocess.us", per_call("preprocess.us", 1e3), "us"),
        m(
            "preprocess.oracle_evals",
            miss_mean(&|m| m.oracle_evals),
            "count",
        ),
        m(
            "preprocess.components",
            miss_mean(&|m| m.components),
            "count",
        ),
        m(
            "preprocess.peak_component_bytes",
            tally.peak_component_bytes as f64,
            "B",
        ),
        m("search.enum_ms", per_call("search.enum_ms", 1e6), "ms"),
        m("search.max_ms", per_call("search.max_ms", 1e6), "ms"),
        m(
            "search.us_per_node",
            ratio(search_ns as f64 / 1e3, nodes as f64),
            "us",
        ),
        m("search.first_core_ms", mean(&first_core), "ms"),
        m("search.nodes", search_mean(&|s| s.nodes), "count"),
        m("search.leaves", search_mean(&|s| s.leaves), "count"),
        m(
            "search.early_terminations",
            search_mean(&|s| s.early_terminations),
            "count",
        ),
        m(
            "search.bound_prunes",
            search_mean(&|s| s.bound_prunes),
            "count",
        ),
        m(
            "search.maximal_checks",
            search_mean(&|s| s.maximal_checks),
            "count",
        ),
        m("search.resplits", search_mean(&|s| s.resplits), "count"),
        m(
            "similarity.lazy_rows_materialized",
            tally.rows_materialized as f64,
            "count",
        ),
        m(
            "similarity.dissim_pairs_avoided",
            tally.pairs_avoided as f64,
            "count",
        ),
        m("session.unaccounted_query_ms", unaccounted_query, "ms"),
        m("session.unaccounted_update_ms", unaccounted_update, "ms"),
        m("trace.overhead_pct", overhead_pct, "%"),
    ]
}

fn traced(
    plan: &mut Plan,
    seed: u64,
    seconds: f64,
    snapshot: &Path,
    verdict: &mut Verdict,
) -> Result<(usize, Vec<Metric>), String> {
    let prefix = plan.workload.prefix_ops();
    let serving = set_up(plan, snapshot, 1)?;
    let (name, warmup_r) = (plan.dataset.name, plan.keys[0].1);
    let snapshot_str = snapshot.to_str().ok_or("non-UTF-8 path")?;
    let indexed = serving.indexed.to_str().ok_or("non-UTF-8 path")?;
    let pool = plan.pool.clone();
    let on = Replay::open(name, snapshot_str, &pool, warmup_r, true)?;
    let off = Replay::open(name, indexed, &pool, warmup_r, false)?;
    let (mut on, mut off) = (
        Replayed::new(on, prefix, false),
        Replayed::new(off, prefix, false),
    );
    // Blocks of ops run on the server, then in both replays, so all three
    // see the machine in much the same state and its slow stretches leak
    // into neither the residual nor the overhead. Blocks are long enough
    // that each side runs with its own caches warm; the replays take
    // turns going first.
    let mut on_first = true;
    let served = serving.measure(plan, seconds, TRACE_BLOCK_S, &mut |block| {
        let (first, second) = if on_first {
            (&mut on, &mut off)
        } else {
            (&mut off, &mut on)
        };
        on_first = !on_first;
        block.iter().try_for_each(|o| first.push(o))?;
        block.iter().try_for_each(|o| second.push(o))
    })?;
    for (i, (a, b)) in on.records.iter().zip(&off.records).enumerate() {
        if let Some(why) = check::disagreement(&a.reply, &b.reply) {
            verdict.op(i, format!("replay with spans off: {why}"));
        }
    }
    check_run(
        plan,
        seed,
        &served.outcomes,
        &on.records,
        on.prefix_tally,
        true,
        verdict,
    );
    let overhead_pct = (on.busy_s - off.busy_s) / off.busy_s * 100.0;
    let spans_path = work_dir().join(format!("spans-{}.jsonl", plan.workload.name()));
    on.replay
        .tracer
        .write_jsonl(&spans_path)
        .map_err(|e| e.to_string())?;
    println!("spans: {}", spans_path.display());
    let metrics = per_layer(&served, &on.replay, &on.records, overhead_pct);
    let _ = std::fs::remove_file(&served.indexed);
    Ok((served.outcomes.len(), metrics))
}

fn untraced(
    plan: &mut Plan,
    seed: u64,
    seconds: f64,
    snapshot: &Path,
    verdict: &mut Verdict,
) -> Result<(usize, Vec<Metric>), String> {
    let prefix = plan.workload.prefix_ops();
    let served =
        set_up(plan, snapshot, MIN_SETUPS)?
            .measure(plan, seconds, f64::INFINITY, &mut |_| Ok(()))?;
    let metrics = end_to_end(&served);
    let indexed = served.indexed.to_str().ok_or("non-UTF-8 path")?;
    let replay = Replay::open(
        plan.dataset.name,
        indexed,
        &plan.pool,
        plan.keys[0].1,
        false,
    )?;
    let mut replayed = Replayed::new(replay, prefix, true);
    for o in &served.outcomes {
        replayed.push(o)?;
    }
    println!("replay: {:.3} s", replayed.busy_s);
    check_run(
        plan,
        seed,
        &served.outcomes,
        &replayed.records,
        replayed.prefix_tally,
        false,
        verdict,
    );
    let _ = std::fs::remove_file(&served.indexed);
    Ok((served.outcomes.len(), metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <search-dblp|mixed-gowalla|max-corridor> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let mut plan = Plan::new(args.workload, args.seed);
    let work = work_dir();
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let snapshot = work.join(format!(
        "{}-{}-{}.krb",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let ds = &plan.dataset;
    if let Err(e) = kr_similarity::write_snapshot_file(
        &snapshot,
        &ds.graph,
        &ds.original_ids,
        &ds.attributes,
        ds.metric,
    ) {
        eprintln!("perfbench: writing {}: {e}", snapshot.display());
        std::process::exit(1);
    }
    println!(
        "# perfbench {} seed={} seconds={} trace={}: {} vertices, {} edges, {} keys, {} pool pairs",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ds.graph.num_vertices(),
        ds.graph.num_edges(),
        plan.keys.len(),
        plan.pool.len()
    );
    let mut verdict = Verdict::default();
    let run = if args.trace {
        traced(&mut plan, args.seed, args.seconds, &snapshot, &mut verdict)
    } else {
        untraced(&mut plan, args.seed, args.seconds, &snapshot, &mut verdict)
    };
    let _ = std::fs::remove_file(&snapshot);
    let (attempted, metrics) = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let failed = verdict.failed_ops.len();
    let correct = failed == 0 && verdict.problems.is_empty() && attempted > 0;
    for x in &metrics {
        println!("{:<36} {:>14.4} {}", x.name, x.value, x.unit);
    }
    println!(
        "error_rate {:.6} ({failed} of {attempted} ops failed); \
         cache state drifted from the replay's on {} ops; {:.1} s in all",
        ratio(failed as f64, attempted as f64),
        verdict.drifted_ops.len(),
        t0.elapsed().as_secs_f64()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_num(x.value),
                x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed + verdict.problems.len(),
        body.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// A digest of this executable, so the counts ledger compares runs of
/// one build only: another commit may change the counts on purpose.
fn build_id() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    drive::fnv1a(bytes.into_iter().map(u64::from))
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
