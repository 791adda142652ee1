//! The end-to-end half: an in-process `kr_server::Server` driven over TCP
//! by one `kr_server::Client` in a closed loop (one connection, one
//! request in flight).

use crate::workload::{Op, Plan, QueryKind};
use kr_graph::VertexId;
use kr_server::{
    CacheOutcome, Client, Frame, QuerySpec, Request, Server, ServerConfig, ServerHandle,
};
use std::time::Instant;

/// A `k` above every core number: the warm-up query resolves to no
/// candidates and returns no cores, but still loads the snapshot and
/// builds the decomposition index.
pub const WARMUP_K: u32 = 1_000_000;

/// A query's answer as compared: the core count and a digest of the
/// cores in sorted order. Digests keep the benchmark's own memory flat
/// however many ops a run makes, so `peak_rss_mb` measures the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub count: u64,
    pub digest: u64,
}

impl Answer {
    /// Sorts `cores` (each already sorted) and digests them.
    pub fn of(cores: &mut [Vec<VertexId>]) -> Answer {
        cores.sort();
        let words = cores
            .iter()
            .flat_map(|core| std::iter::once(u64::MAX).chain(core.iter().map(|&v| u64::from(v))));
        Answer {
            count: cores.len() as u64,
            digest: fnv1a(words),
        }
    }
}

/// FNV-1a over a stream of words.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, x| {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// What the program answered to one op.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Query {
        answer: Answer,
        completed: bool,
        hit: bool,
        nodes: u64,
    },
    Mutated {
        applied: u64,
        version: u64,
        core_updates: u64,
        repairs: u64,
        invalidations: u64,
    },
}

/// One op as the client saw it.
pub struct Outcome {
    pub op: Op,
    /// Pool state the op ran against.
    pub state: u64,
    /// Request sent → `done` / `mutated` received.
    pub latency_s: f64,
    /// Request sent → first `core` frame.
    pub first_core_s: Option<f64>,
    /// Seconds since the start of the run when the op ended.
    pub ended_s: f64,
    pub reply: Result<Reply, String>,
    /// The cores themselves, kept for prefix queries only (the
    /// from-scratch check samples those).
    pub cores: Option<Vec<Vec<VertexId>>>,
}

/// The request line for `op` on the dataset registered as `name`.
pub fn request(name: &str, pool: &[(VertexId, VertexId)], op: &Op, id: String) -> Request {
    match *op {
        Op::Query {
            kind,
            k,
            r,
            threads,
        } => {
            let spec = QuerySpec {
                scale: 1.0,
                threads,
                ..QuerySpec::new(name, k, r)
            };
            match kind {
                QueryKind::Enumerate => Request::Enumerate { id, spec },
                QueryKind::Maximum => Request::Maximum { id, spec },
            }
        }
        Op::Toggle { pairs, add } => {
            let edges = (0..pool.len())
                .filter(|i| pairs >> i & 1 == 1)
                .map(|i| pool[i])
                .collect();
            let (dataset, scale) = (name.to_string(), 1.0);
            if add {
                Request::AddEdges {
                    id,
                    dataset,
                    scale,
                    edges,
                }
            } else {
                Request::RemoveEdges {
                    id,
                    dataset,
                    scale,
                    edges,
                }
            }
        }
    }
}

/// Binds a server on `snapshot`, connects, and runs the warm-up query.
/// Returns the server, the client and the set-up time in seconds.
pub fn start(
    name: &str,
    snapshot: &str,
    warmup_r: f64,
) -> Result<(ServerHandle, Client, f64), String> {
    let t0 = Instant::now();
    let server = Server::bind(ServerConfig {
        file_datasets: vec![(name.to_string(), snapshot.to_string())],
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn();
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let spec = QuerySpec {
        scale: 1.0,
        ..QuerySpec::new(name, WARMUP_K, warmup_r)
    };
    let warm = client
        .enumerate(spec)
        .map_err(|e| format!("warm-up query: {e}"))?;
    let seconds = t0.elapsed().as_secs_f64();
    if !warm.cores.is_empty() || !warm.completed {
        return Err("the warm-up query must complete with no cores".to_string());
    }
    Ok((handle, client, seconds))
}

/// One exchange: latency, time to the first core, the reply and the
/// cores.
type Exchanged = (f64, Option<f64>, Result<Reply, String>, Vec<Vec<VertexId>>);

/// Sends one request and reads its frames up to `done` / `mutated`.
/// `Err` is a transport failure: the connection is gone.
fn exchange(client: &mut Client, req: &Request, id: &str) -> Result<Exchanged, String> {
    let t0 = Instant::now();
    let mut first_core = None;
    let mut cores = Vec::new();
    client.send(req).map_err(|e| e.to_string())?;
    loop {
        let frame = client.read_frame().map_err(|e| e.to_string())?;
        match frame {
            Frame::Core {
                id: fid, vertices, ..
            } if fid == id => {
                first_core.get_or_insert_with(|| t0.elapsed().as_secs_f64());
                cores.push(vertices);
            }
            Frame::Done {
                id: fid,
                count,
                completed,
                cache,
                nodes,
                ..
            } if fid == id => {
                let latency = t0.elapsed().as_secs_f64();
                if count as usize != cores.len() {
                    let err = format!("done.count {count} but {} core frames", cores.len());
                    return Ok((latency, first_core, Err(err), cores));
                }
                let reply = Reply::Query {
                    answer: Answer::of(&mut cores),
                    completed,
                    hit: cache == CacheOutcome::Hit,
                    nodes,
                };
                return Ok((latency, first_core, Ok(reply), cores));
            }
            Frame::Mutated {
                id: fid,
                applied,
                version,
                core_updates,
                repairs,
                invalidations,
                ..
            } if fid == id => {
                let reply = Reply::Mutated {
                    applied,
                    version,
                    core_updates,
                    repairs,
                    invalidations,
                };
                return Ok((t0.elapsed().as_secs_f64(), first_core, Ok(reply), cores));
            }
            Frame::Error { code, message, .. } => {
                let err = format!("error frame [{}]: {message}", code.name());
                return Ok((t0.elapsed().as_secs_f64(), first_core, Err(err), cores));
            }
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
}

/// The measured run: a closed loop of `seconds`, extended if need be
/// until the plan's prefix ops have run and to the end of a round. Every
/// `block_s` of it, and at its end, `after_block` sees the ops run since
/// its last call, off the clock of any request. Returns every op's outcome and the run's wall
/// time.
pub fn run(
    client: &mut Client,
    plan: &mut Plan,
    seconds: f64,
    block_s: f64,
    after_block: &mut dyn FnMut(&[Outcome]) -> Result<(), String>,
) -> Result<(Vec<Outcome>, f64), String> {
    let name = plan.dataset.name;
    let prefix = plan.workload.prefix_ops();
    let mut outcomes = Vec::new();
    let start = Instant::now();
    let (mut block_start, mut block_t) = (0, Instant::now());
    while outcomes.len() < prefix || start.elapsed().as_secs_f64() < seconds || !plan.at_round_end()
    {
        let (op, state) = plan.next_op();
        let id = format!("q{}", outcomes.len());
        let req = request(name, &plan.pool, &op, id.clone());
        let (latency_s, first_core_s, reply, cores, broken) = match exchange(client, &req, &id) {
            Ok((latency, first, reply, cores)) => (latency, first, reply, cores, false),
            Err(e) => (0.0, None, Err(format!("transport: {e}")), Vec::new(), true),
        };
        let cores = (outcomes.len() < prefix && op.is_query()).then_some(cores);
        outcomes.push(Outcome {
            op,
            state,
            latency_s,
            first_core_s,
            ended_s: start.elapsed().as_secs_f64(),
            reply,
            cores,
        });
        if broken {
            break;
        }
        if block_t.elapsed().as_secs_f64() >= block_s {
            after_block(&outcomes[block_start..])?;
            (block_start, block_t) = (outcomes.len(), Instant::now());
        }
    }
    let run_s = start.elapsed().as_secs_f64();
    if block_start < outcomes.len() {
        after_block(&outcomes[block_start..])?;
    }
    Ok((outcomes, run_s))
}
