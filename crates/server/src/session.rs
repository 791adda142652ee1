//! Per-connection request handling.
//!
//! A session owns one client socket. Requests are processed one at a
//! time in arrival order (the protocol is line-delimited, so pipelining
//! just queues in the kernel buffer); response frames for a query carry
//! its `id`. The socket is read with a short timeout so the session
//! notices a server-wide shutdown even while idle.
//!
//! **Cancellation.** Runaway work is bounded two ways. The engine's
//! node/time limits: the session clamps every query's budgets to the
//! server's configured ceilings; the engine checks them at each search
//! node and returns `completed = false` when exceeded, which the `done`
//! frame reports. And client aborts: between streamed `core` frames the
//! session peeks the socket (see [`AbortProbe`]) — a client that hung up
//! mid-query trips a [`kr_core::CancelFlag`] and the engine winds down at
//! its next search node instead of burning the worker pool on an answer
//! nobody reads. Aborted queries count in `server.client_aborts` (not
//! `server.query_errors`) and emit a `client_abort` span event.
//!
//! **Observability.** Every request line gets a fresh trace id, echoed
//! in each of its response frames and stamped on every span event the
//! request emits to the server's [`kr_obs::TraceSink`] — see
//! `docs/OBSERVABILITY.md` for the span taxonomy. The session also feeds
//! the server's `server.*` metrics registry (query latency and
//! preprocessing histograms, request/rejection counters, the in-flight
//! gauge), which a `metrics` request returns over the wire.

use crate::cache::{r_band, CacheKey, R_BAND_WIDTH};
use crate::datasets::{GraphUpdate, HostedDataset, MutationOutcome};
use crate::json::Json;
use crate::protocol::{
    Algo, CacheOutcome, ErrorCode, Frame, ProtoError, QuerySpec, Request, PROTOCOL_VERSION,
};
use crate::server::{ServerState, SessionPermit};
use crate::sync::lock;
use kr_core::{
    enumerate_maximal_prepared, enumerate_maximal_prepared_on, find_maximum_prepared,
    find_maximum_prepared_on, AlgoConfig, CancelFlag, CoreHook, KrCore, LocalComponent,
};
use kr_obs::{next_trace_id, Field, PhaseTimer};
use kr_similarity::{SimilarityOracle, TableOracle};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Socket poll interval; bounds how long shutdown waits on idle sessions.
const READ_POLL: Duration = Duration::from_millis(150);

/// Hard cap on one request line. Real requests are well under 1 KiB; a
/// client that streams bytes without a newline is dropped at this bound
/// instead of growing the session buffer without limit.
const MAX_LINE_BYTES: usize = 1 << 20;

type SharedWriter = Arc<Mutex<TcpStream>>;

fn write_frame(writer: &SharedWriter, frame: &Frame) -> std::io::Result<()> {
    let mut line = frame.to_line();
    line.push('\n');
    // Poison-tolerant: a panicking query thread must not wedge every
    // later frame write on this connection (see `crate::sync`).
    let mut stream = lock(writer);
    stream.write_all(line.as_bytes())
}

/// Write errors that mean "the peer went away" rather than "this server
/// failed". The session counts these as `server.client_aborts`, not
/// `server.query_errors`: the distinction separates clients hanging up
/// (routine under real traffic) from actual serving trouble.
fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::UnexpectedEof
    )
}

/// Mid-query client-liveness probe, checked between streamed `core`
/// frames. `peek` is non-destructive — pipelined request bytes stay
/// queued for the [`LineReader`] — and distinguishes the three states the
/// session cares about: EOF (client closed: abort), pending bytes or
/// nothing yet (client alive), hard error (abort).
///
/// The probe must not block, and `set_nonblocking` applies to the whole
/// underlying socket (it is shared with the reader and writer clones), so
/// blocking mode is restored immediately after the peek. That toggle is
/// safe here because the probe only runs from inside `run_query`, where
/// the session thread — the only reader — is busy computing, and frame
/// writes are serialized behind the writer lock. The `LineReader`'s read
/// timeout is a socket option (`SO_RCVTIMEO`) and is unaffected.
struct AbortProbe {
    stream: TcpStream,
}

impl AbortProbe {
    fn new(writer: &SharedWriter) -> Option<AbortProbe> {
        let stream = lock(writer).try_clone().ok()?;
        Some(AbortProbe { stream })
    }

    /// True when the peer is known to be gone. False on any doubt: a
    /// false "alive" just means the abort is caught at the next frame
    /// write instead.
    fn client_gone(&self) -> bool {
        if self.stream.set_nonblocking(true).is_err() {
            return false;
        }
        let mut byte = [0u8; 1];
        let gone = match self.stream.peek(&mut byte) {
            Ok(0) => true,
            Ok(_) => false,
            Err(e) if e.kind() == ErrorKind::WouldBlock => false,
            Err(e) => is_disconnect(&e),
        };
        let _ = self.stream.set_nonblocking(false);
        gone
    }
}

/// Timeout-tolerant line framing over the raw socket. `BufRead::read_line`
/// is unusable here: a read timeout mid-line would hand back a partial
/// line indistinguishable from a complete one.
struct LineReader {
    stream: TcpStream,
    pending: Vec<u8>,
}

enum ReadOutcome {
    Line(String),
    TimedOut,
    Closed,
}

impl LineReader {
    fn next(&mut self) -> ReadOutcome {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let rest = self.pending.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.pending, rest);
                line.pop(); // the '\n'
                return match String::from_utf8(line) {
                    Ok(s) => ReadOutcome::Line(s),
                    Err(_) => ReadOutcome::Closed, // not UTF-8: drop client
                };
            }
            if self.pending.len() > MAX_LINE_BYTES {
                return ReadOutcome::Closed; // unframed flood: drop client
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Closed,
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return ReadOutcome::TimedOut;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Closed,
            }
        }
    }
}

/// Serves one connection to completion (EOF, I/O failure, or shutdown).
/// The `permit` is the connection-cap slot claimed by the accept loop; it
/// is held for the lifetime of this call and freed on any exit path.
pub(crate) fn run_session(stream: TcpStream, state: Arc<ServerState>, permit: SessionPermit) {
    let _permit = permit;
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    state.metrics.connections.inc();
    if state.trace.enabled() {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        state.trace.event("", "accept", &[("peer", Field::S(peer))]);
    }
    let writer: SharedWriter = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let hello = Frame::Hello {
        protocol: PROTOCOL_VERSION,
        server: format!("kr-server/{}", env!("CARGO_PKG_VERSION")),
    };
    if write_frame(&writer, &hello).is_err() {
        return;
    }
    let mut reader = LineReader {
        stream,
        pending: Vec::new(),
    };
    loop {
        match reader.next() {
            ReadOutcome::Closed => return,
            ReadOutcome::TimedOut => {
                if state.is_shutting_down() {
                    return;
                }
            }
            ReadOutcome::Line(line) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                if handle_line(trimmed, &writer, &state).is_err() {
                    return; // client gone
                }
                if state.is_shutting_down() {
                    return;
                }
            }
        }
    }
}

fn handle_line(line: &str, writer: &SharedWriter, state: &Arc<ServerState>) -> std::io::Result<()> {
    // Every request line — even an unparseable one — gets a trace id, so
    // the error frame on the wire still joins against the span log.
    let trace = next_trace_id();
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(e) => {
            state.metrics.record_request_error(&e);
            let code = match &e {
                ProtoError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
                _ => ErrorCode::BadRequest,
            };
            let message = e.to_string();
            state.trace.event(
                &trace,
                "request_error",
                &[
                    ("code", Field::S(code.name().to_string())),
                    ("message", Field::S(message.clone())),
                ],
            );
            // Best-effort id echo so the client can correlate the failure.
            let id = Json::parse(line)
                .ok()
                .and_then(|v| v.get("id").and_then(Json::as_str).map(str::to_string))
                .unwrap_or_default();
            return write_frame(
                writer,
                &Frame::Error {
                    id,
                    trace,
                    code,
                    message,
                },
            );
        }
    };
    if state.trace.enabled() {
        let (cmd, id) = match &req {
            Request::Ping { id } => ("ping", id),
            Request::Stats { id } => ("stats", id),
            Request::Metrics { id } => ("metrics", id),
            Request::Shutdown { id } => ("shutdown", id),
            Request::Enumerate { id, .. } => ("enumerate", id),
            Request::Maximum { id, .. } => ("maximum", id),
            Request::AddEdges { id, .. } => ("add_edge", id),
            Request::RemoveEdges { id, .. } => ("remove_edge", id),
            Request::SetAttributes { id, .. } => ("set_attribute", id),
        };
        state.trace.event(
            &trace,
            "request",
            &[("cmd", Field::from(cmd)), ("id", Field::S(id.clone()))],
        );
    }
    match req {
        Request::Ping { id } => write_frame(writer, &Frame::Pong { id, trace }),
        Request::Stats { id } => write_frame(
            writer,
            &Frame::Stats {
                id,
                trace,
                stats: state.cache.stats(),
            },
        ),
        Request::Metrics { id } => write_frame(
            writer,
            &Frame::Metrics {
                id,
                trace,
                snapshot: state.metrics.wire_snapshot(),
            },
        ),
        Request::Shutdown { id } => {
            write_frame(writer, &Frame::ShuttingDown { id, trace })?;
            state.begin_shutdown();
            Ok(())
        }
        Request::Enumerate { id, spec } => {
            run_query(QueryKind::Enumerate, id, trace, spec, writer, state)
        }
        Request::Maximum { id, spec } => {
            run_query(QueryKind::Maximum, id, trace, spec, writer, state)
        }
        Request::AddEdges {
            id,
            dataset,
            scale,
            edges,
        } => {
            let updates = edges
                .into_iter()
                .map(|(u, v)| GraphUpdate::AddEdge(u, v))
                .collect();
            run_mutation(id, trace, dataset, scale, updates, writer, state)
        }
        Request::RemoveEdges {
            id,
            dataset,
            scale,
            edges,
        } => {
            let updates = edges
                .into_iter()
                .map(|(u, v)| GraphUpdate::RemoveEdge(u, v))
                .collect();
            run_mutation(id, trace, dataset, scale, updates, writer, state)
        }
        Request::SetAttributes {
            id,
            dataset,
            scale,
            updates,
        } => {
            let updates = updates
                .into_iter()
                .map(|(w, value)| GraphUpdate::SetAttribute(w, value))
                .collect();
            run_mutation(id, trace, dataset, scale, updates, writer, state)
        }
    }
}

enum QueryKind {
    Enumerate,
    Maximum,
}

/// Budget clamp: the tighter of the request's wish and the server ceiling.
fn clamp_limit(requested: Option<u64>, ceiling: Option<u64>) -> Option<u64> {
    match (requested, ceiling) {
        (Some(r), Some(c)) => Some(r.min(c)),
        (Some(r), None) => Some(r),
        (None, ceiling) => ceiling,
    }
}

fn run_query(
    kind: QueryKind,
    id: String,
    trace: String,
    spec: QuerySpec,
    writer: &SharedWriter,
    state: &Arc<ServerState>,
) -> std::io::Result<()> {
    let metrics = &state.metrics;
    let sink = &state.trace;
    metrics.queries.inc();
    let _active = metrics.active_queries.track();
    // `max_scale` bounds what the registry may *generate*; file-backed
    // datasets are pinned by their snapshot and ignore scale entirely,
    // so the policy does not apply to them.
    if spec.scale > state.config.max_scale && !state.datasets.is_file_backed(&spec.dataset) {
        metrics.query_errors.inc();
        return write_frame(
            writer,
            &Frame::Error {
                id,
                trace,
                code: ErrorCode::BadRequest,
                message: format!(
                    "scale {} exceeds this server's max_scale {}",
                    spec.scale, state.config.max_scale
                ),
            },
        );
    }
    let dataset = match state.datasets.get(&spec.dataset, spec.scale) {
        Ok(ds) => ds,
        Err(message) => {
            metrics.query_errors.inc();
            return write_frame(
                writer,
                &Frame::Error {
                    id,
                    trace,
                    code: ErrorCode::UnknownDataset,
                    message,
                },
            );
        }
    };
    // Per-dataset admission control: the guard holds this query's
    // in-flight slot until the query resolves (any exit path).
    let _admission = match state.try_admit(dataset.key()) {
        Ok(guard) => guard,
        Err(limit) => {
            metrics.admission_rejections.inc();
            sink.event(
                &trace,
                "admission_reject",
                &[
                    ("dataset", Field::S(spec.dataset.clone())),
                    ("limit", Field::from(limit)),
                ],
            );
            return write_frame(
                writer,
                &Frame::Error {
                    id,
                    trace,
                    code: ErrorCode::Busy,
                    message: format!(
                        "dataset '{}' is at its admission limit ({limit} queries in flight); retry later",
                        spec.dataset
                    ),
                },
            );
        }
    };

    let t0 = Instant::now();
    let key = CacheKey {
        dataset: dataset.key().to_string(),
        k: spec.k,
        r_band: r_band(spec.r),
    };
    // The version pins which graph state a cache entry answers for: a
    // mutation bumps it, so a post-mutation query can never be served a
    // component set the cache-repair pass has not revalidated.
    let version = dataset.version();
    // One worker pool for the whole query: a cache miss preprocesses on
    // it and a split search then runs its subtasks on the same pool (one
    // worker stays pool-free and searches inline).
    let threads = spec.threads;
    let pool = kr_core::thread_pool(threads);
    let preprocess_ms = std::cell::Cell::new(None::<u64>);
    let residual = std::cell::Cell::new(None::<u64>);
    let lookup = PhaseTimer::start(sink, &trace, "cache_lookup");
    let (comps, outcome) = state.cache.get_or_build(&key, version, || {
        // Resolve the query to a candidate vertex set through the
        // dataset's (k,r)-core decomposition index before the timer
        // starts: the index is built once per dataset (or loaded from
        // the snapshot), so its cost is not part of this miss's
        // preprocessing bill.
        let t_index = PhaseTimer::start(sink, &trace, "index_candidates");
        let candidates = dataset
            .decomposition()
            .candidates(spec.k, dataset.threshold(spec.r));
        t_index.finish_with(&[("vertices", Field::from(candidates.vertices.len()))]);
        residual.set(Some(candidates.vertices.len() as u64));
        let t_pre = PhaseTimer::start(sink, &trace, "preprocess");
        let problem = dataset.problem(spec.k, spec.r);
        let comps = match &pool {
            None => problem.preprocess_with_candidates(&candidates.vertices),
            Some(pool) => problem.preprocess_with_candidates_on(&candidates.vertices, pool),
        };
        let dur_us = t_pre.finish_with(&[("components", Field::from(comps.len()))]);
        metrics.preprocess_us.record(dur_us);
        preprocess_ms.set(Some(dur_us / 1_000));
        comps
    });
    let hit = outcome.hit;
    lookup.finish_with(&[("outcome", Field::from(if hit { "hit" } else { "miss" }))]);
    // Attribute the miss's cost to the stats frame so operators see
    // cold-query preprocessing time and candidate-index leverage — but
    // only when this query's build is the one the cache kept. Two
    // clients racing a cold key both run the build; counting both would
    // double-bill `preprocess_ms` / `oracle_evals` for one resident
    // entry.
    if outcome.won {
        if let Some(ms) = preprocess_ms.get() {
            let evals = comps.iter().map(|c| c.oracle_evals).sum();
            state.cache.record_preprocess(ms, evals);
        }
        if let Some(vertices) = residual.get() {
            state.cache.record_index(vertices);
        }
    }
    let cache = if hit {
        CacheOutcome::Hit
    } else {
        CacheOutcome::Miss
    };

    let mut cfg = match (&kind, spec.algo) {
        (QueryKind::Enumerate, Algo::Adv) => AlgoConfig::adv_enum(),
        (QueryKind::Enumerate, Algo::Basic) => AlgoConfig::basic_enum(),
        (QueryKind::Maximum, Algo::Adv) => AlgoConfig::adv_max(),
        (QueryKind::Maximum, Algo::Basic) => AlgoConfig::basic_max(),
    }
    .with_threads(threads);
    if let Some(ms) = clamp_limit(spec.time_limit_ms, state.config.max_time_limit_ms) {
        cfg = cfg.with_time_limit_ms(ms);
    }
    if let Some(limit) = clamp_limit(spec.node_limit, state.config.max_node_limit) {
        cfg = cfg.with_node_limit(limit);
    }

    // Frame-streaming accounting, shared by every path that writes a
    // `core` frame: how many went out and how long the socket writes
    // took (the `stream` span event reports both).
    let frames = Arc::new(AtomicU64::new(0));
    let write_us = Arc::new(AtomicU64::new(0));
    // Client-abort plumbing: the streaming hook (or a peer-disconnect
    // write error) flips `client_gone` and cancels the engine, which
    // winds down at its next search node. `write_failed` is everything
    // else — the socket broke for a non-disconnect reason.
    let cancel = CancelFlag::new();
    cfg = cfg.with_cancel(cancel.clone());
    let client_gone = Arc::new(AtomicBool::new(false));
    let write_failed = Arc::new(AtomicBool::new(false));
    // Classifies one frame-write result: peer disconnects become client
    // aborts (counted + span event), anything else a query error. Either
    // way the session ends by propagating the error.
    let classify_write = |res: std::io::Result<()>| -> std::io::Result<()> {
        if let Err(e) = &res {
            if is_disconnect(e) {
                metrics.client_aborts.inc();
                sink.event(
                    &trace,
                    "client_abort",
                    &[
                        ("dataset", Field::S(spec.dataset.clone())),
                        ("frames", Field::U(frames.load(Ordering::Relaxed))),
                        ("error", Field::S(e.to_string())),
                    ],
                );
            } else {
                metrics.query_errors.inc();
            }
        }
        res
    };

    let (count, completed, nodes) = match kind {
        QueryKind::Enumerate => {
            // AdvEnum streams: every core the engine confirms goes out as
            // its own frame immediately. BasicEnum buffers (maximality is
            // only known after the post-filter) and the frames are
            // written below instead.
            let streaming = cfg.maximal_check;
            if streaming {
                let probe = AbortProbe::new(writer);
                let (w, counter, failed, gone, stop, qid, qtrace, wus, streamed) = (
                    writer.clone(),
                    frames.clone(),
                    write_failed.clone(),
                    client_gone.clone(),
                    cancel.clone(),
                    id.clone(),
                    trace.clone(),
                    write_us.clone(),
                    metrics.cores_streamed.clone(),
                );
                cfg = cfg.with_on_core(CoreHook::new(move |core: &KrCore| {
                    if failed.load(Ordering::Relaxed) || gone.load(Ordering::Relaxed) {
                        return; // socket already broken; engine is winding down
                    }
                    // Poll the socket before spending a write on it: a
                    // client that hung up is detected here even when the
                    // kernel buffer would still have absorbed the frame.
                    if probe.as_ref().is_some_and(AbortProbe::client_gone) {
                        gone.store(true, Ordering::Relaxed);
                        stop.cancel();
                        return;
                    }
                    let frame = Frame::Core {
                        id: qid.clone(),
                        trace: qtrace.clone(),
                        index: counter.fetch_add(1, Ordering::Relaxed),
                        vertices: core.vertices.clone(),
                    };
                    let t = Instant::now();
                    if let Err(e) = write_frame(&w, &frame) {
                        if is_disconnect(&e) {
                            gone.store(true, Ordering::Relaxed);
                            stop.cancel();
                        } else {
                            failed.store(true, Ordering::Relaxed);
                        }
                    }
                    wus.fetch_add(t.elapsed().as_micros() as u64, Ordering::Relaxed);
                    streamed.inc();
                }));
            }
            let search = PhaseTimer::start(sink, &trace, "search");
            let res = match &pool {
                None => enumerate_maximal_prepared(&comps, &cfg),
                Some(pool) => enumerate_maximal_prepared_on(&comps, &cfg, pool),
            };
            search.finish_with(&[
                ("nodes", Field::U(res.stats.nodes)),
                ("completed", Field::B(res.completed)),
            ]);
            if write_failed.load(Ordering::Relaxed) {
                metrics.query_errors.inc();
                return Err(std::io::Error::new(
                    ErrorKind::BrokenPipe,
                    "frame write failed mid-stream",
                ));
            }
            if !streaming {
                for (index, core) in res.cores.iter().enumerate() {
                    let t = Instant::now();
                    classify_write(write_frame(
                        writer,
                        &Frame::Core {
                            id: id.clone(),
                            trace: trace.clone(),
                            index: index as u64,
                            vertices: core.vertices.clone(),
                        },
                    ))?;
                    write_us.fetch_add(t.elapsed().as_micros() as u64, Ordering::Relaxed);
                    frames.fetch_add(1, Ordering::Relaxed);
                    metrics.cores_streamed.inc();
                }
            }
            (res.cores.len() as u64, res.completed, res.stats.nodes)
        }
        QueryKind::Maximum => {
            let search = PhaseTimer::start(sink, &trace, "search");
            let res = match &pool {
                None => find_maximum_prepared(&comps, &cfg),
                Some(pool) => find_maximum_prepared_on(&comps, &cfg, pool),
            };
            search.finish_with(&[
                ("nodes", Field::U(res.stats.nodes)),
                ("completed", Field::B(res.completed)),
            ]);
            let count = res.core.iter().len() as u64;
            if let Some(core) = &res.core {
                let t = Instant::now();
                classify_write(write_frame(
                    writer,
                    &Frame::Core {
                        id: id.clone(),
                        trace: trace.clone(),
                        index: 0,
                        vertices: core.vertices.clone(),
                    },
                ))?;
                write_us.fetch_add(t.elapsed().as_micros() as u64, Ordering::Relaxed);
                frames.fetch_add(1, Ordering::Relaxed);
                metrics.cores_streamed.inc();
            }
            (count, res.completed, res.stats.nodes)
        }
    };

    if client_gone.load(Ordering::Relaxed) {
        // The abort probe (or a disconnect-class write error) stopped the
        // sweep: not an answered query (no `done`, no latency sample) and
        // not a server failure — it counts in `server.client_aborts`.
        metrics.client_aborts.inc();
        sink.event(
            &trace,
            "client_abort",
            &[
                ("dataset", Field::S(spec.dataset.clone())),
                ("frames", Field::U(frames.load(Ordering::Relaxed))),
                ("nodes", Field::U(nodes)),
            ],
        );
        return Err(std::io::Error::new(
            ErrorKind::ConnectionAborted,
            "client went away mid-query",
        ));
    }

    let elapsed = t0.elapsed();
    let elapsed_ms = elapsed.as_millis() as u64;
    if sink.enabled() {
        sink.event(
            &trace,
            "stream",
            &[
                ("frames", Field::U(frames.load(Ordering::Relaxed))),
                ("write_us", Field::U(write_us.load(Ordering::Relaxed))),
            ],
        );
        sink.event(
            &trace,
            "query",
            &[
                ("dataset", Field::S(spec.dataset.clone())),
                ("k", Field::U(u64::from(spec.k))),
                ("r", Field::F(spec.r)),
                ("cache", Field::from(if hit { "hit" } else { "miss" })),
                ("count", Field::U(count)),
                ("nodes", Field::U(nodes)),
                ("completed", Field::B(completed)),
                ("elapsed_ms", Field::U(elapsed_ms)),
            ],
        );
    }
    if elapsed_ms >= state.config.slow_query_ms {
        metrics.slow_queries.inc();
        sink.event(
            &trace,
            "slow_query",
            &[
                ("dataset", Field::S(spec.dataset.clone())),
                ("k", Field::U(u64::from(spec.k))),
                ("r", Field::F(spec.r)),
                ("elapsed_ms", Field::U(elapsed_ms)),
                ("threshold_ms", Field::U(state.config.slow_query_ms)),
            ],
        );
    }
    classify_write(write_frame(
        writer,
        &Frame::Done {
            id,
            trace: trace.clone(),
            count,
            completed,
            cache,
            elapsed_ms,
            nodes,
        },
    ))?;
    // The acceptance invariant: exactly one latency sample per *answered*
    // query — `done` delivered — so the histogram's bucket counts plus
    // the abort/rejection counters account for every query accepted.
    metrics.query_latency_us.record_duration(elapsed);
    Ok(())
}

/// Handles one mutation batch: validate-and-apply on the dataset, then
/// an invalidate-and-repair pass over that dataset's cached component
/// sets, then one `mutated` ack. Mutations count in `server.mutations`
/// (never `server.queries` — the query-accounting identity must not see
/// write traffic).
fn run_mutation(
    id: String,
    trace: String,
    dataset_name: String,
    scale: f64,
    updates: Vec<GraphUpdate>,
    writer: &SharedWriter,
    state: &Arc<ServerState>,
) -> std::io::Result<()> {
    let metrics = &state.metrics;
    let sink = &state.trace;
    metrics.mutations.inc();
    let t0 = Instant::now();
    if scale > state.config.max_scale && !state.datasets.is_file_backed(&dataset_name) {
        metrics.mutation_errors.inc();
        return write_frame(
            writer,
            &Frame::Error {
                id,
                trace,
                code: ErrorCode::BadRequest,
                message: format!(
                    "scale {} exceeds this server's max_scale {}",
                    scale, state.config.max_scale
                ),
            },
        );
    }
    let dataset = match state.datasets.get(&dataset_name, scale) {
        Ok(ds) => ds,
        Err(message) => {
            metrics.mutation_errors.inc();
            return write_frame(
                writer,
                &Frame::Error {
                    id,
                    trace,
                    code: ErrorCode::UnknownDataset,
                    message,
                },
            );
        }
    };
    let apply = PhaseTimer::start(sink, &trace, "mutate_apply");
    let outcome = match dataset.apply_batch(&updates) {
        Ok(outcome) => outcome,
        Err(message) => {
            apply.finish_with(&[("rejected", Field::B(true))]);
            metrics.mutation_errors.inc();
            return write_frame(
                writer,
                &Frame::Error {
                    id,
                    trace,
                    code: ErrorCode::BadRequest,
                    message,
                },
            );
        }
    };
    apply.finish_with(&[
        ("applied", Field::U(outcome.applied)),
        ("ignored", Field::U(outcome.ignored)),
        ("core_updates", Field::U(outcome.core_updates)),
    ]);
    metrics.updates_applied.add(outcome.applied);

    let (repairs, invalidations) = if outcome.delta.is_empty() {
        // Nothing changed: the version did not move and every cached
        // entry is still exact.
        (0, 0)
    } else {
        let repair = PhaseTimer::start(sink, &trace, "cache_repair");
        let counts = repair_cache(state, &dataset, &outcome);
        repair.finish_with(&[
            ("repairs", Field::U(counts.0)),
            ("invalidations", Field::U(counts.1)),
        ]);
        counts
    };

    let elapsed_ms = t0.elapsed().as_millis() as u64;
    if sink.enabled() {
        sink.event(
            &trace,
            "mutation",
            &[
                ("dataset", Field::S(dataset_name)),
                ("applied", Field::U(outcome.applied)),
                ("ignored", Field::U(outcome.ignored)),
                ("version", Field::U(outcome.version)),
                ("core_updates", Field::U(outcome.core_updates)),
                ("repairs", Field::U(repairs)),
                ("invalidations", Field::U(invalidations)),
                ("elapsed_ms", Field::U(elapsed_ms)),
            ],
        );
    }
    write_frame(
        writer,
        &Frame::Mutated {
            id,
            trace,
            applied: outcome.applied,
            ignored: outcome.ignored,
            version: outcome.version,
            core_updates: outcome.core_updates,
            repairs,
            invalidations,
            elapsed_ms,
        },
    )
}

/// The invalidate-and-repair pass: walks the dataset's cached component
/// sets and, for each, decides whether the batch's effective deltas
/// could have changed that `(k, r)` entry's preprocessing output. Proven-
/// unaffected entries are *repaired* — revalidated in place at the new
/// version, keeping their preprocessing investment — and everything else
/// is invalidated (dropped; the next query recomputes). Returns
/// `(repairs, invalidations)`.
fn repair_cache(
    state: &Arc<ServerState>,
    dataset: &HostedDataset,
    outcome: &MutationOutcome,
) -> (u64, u64) {
    let view = dataset.view();
    let delta = &outcome.delta;
    state
        .cache
        .repair_after_mutation(dataset.key(), outcome.version, |key, comps| {
            // Attribute changes move similarities on every incident pair
            // at once; classifying them per-entry would need the old
            // table. Conservative: invalidate.
            if !delta.attr_changed.is_empty() {
                return false;
            }
            let index = match &view.index {
                Some(ix) => ix,
                // No index yet means no query ever touched this dataset
                // version chain in a way we can reason about cheaply.
                None => return false,
            };
            let r = key.r_band as f64 * R_BAND_WIDTH;
            let threshold = dataset.threshold(r);
            let oracle =
                TableOracle::from_shared(view.attributes.clone(), dataset.metric(), threshold);
            // Vertices resident in this entry's preprocessed components.
            let in_comps = |w: kr_graph::VertexId| -> bool {
                comps
                    .iter()
                    .any(|c: &LocalComponent| c.local_to_global.contains(&w))
            };
            // A removed edge cannot change the entry when it was never
            // part of the entry's k-core subgraph: either the pair is
            // dissimilar at this r (the preprocess filter drops it) or an
            // endpoint sits outside every cached component (the unique
            // maximal k-core of the filtered subgraph is intact without
            // it).
            for &(u, v) in &delta.removed {
                if !oracle.is_similar(u, v) {
                    continue;
                }
                if !in_comps(u) || !in_comps(v) {
                    continue;
                }
                return false;
            }
            // An inserted edge cannot change the entry when it never
            // enters the candidate-induced similar subgraph: the pair is
            // dissimilar at this r, or — provided no vertex's band
            // coreness moved anywhere (`core_updates == 0`, so candidate
            // sets are exactly what they were) — an endpoint is not an
            // index candidate at this `(k, r)`.
            if !delta.inserted.is_empty() {
                let candidates = if outcome.core_updates == 0 {
                    Some(index.candidates(key.k, threshold).vertices)
                } else {
                    None
                };
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
        })
}
