//! Correctness gates, all run off the clock: server answers against the
//! replay's, a seeded sample against from-scratch runs on the benchmark's
//! own copy of the graph, and the counts that must repeat on a seed.

use crate::drive::{Outcome, Reply};
use crate::replay::{LazyTally, Record};
use crate::stats::Rng;
use crate::workload::{Op, Plan, QueryKind};
use kr_core::{
    enumerate_maximal, find_maximum, is_kr_core, verify_maximal_family, AlgoConfig, KrCore,
    ProblemInstance,
};
use std::collections::BTreeSet;
use std::path::Path;

/// Why the server's reply disagrees with the replay's, if it does: the
/// cores, completion, and a write's applied/version/core_updates.
pub fn disagreement(server: &Reply, replay: &Reply) -> Option<String> {
    match (server, replay) {
        (
            Reply::Query {
                answer: a,
                completed: ca,
                ..
            },
            Reply::Query {
                answer: b,
                completed: cb,
                ..
            },
        ) => {
            if a != b {
                return Some(format!("cores {a:?} vs the replay's {b:?}"));
            }
            (ca != cb).then(|| "completion differs".to_string())
        }
        (Reply::Mutated { .. }, Reply::Mutated { .. }) => {
            let (a, b) = (write_counts(server).0, write_counts(replay).0);
            (a != b).then(|| format!("write applied/version/core_updates {a:?} vs {b:?}"))
        }
        _ => Some("reply kinds differ".to_string()),
    }
}

/// How the server's cache state departs from the replay's, if it does:
/// hit, repairs and invalidations, and (for sequential searches, whose
/// node count can depend on which version of an entry was searched) the
/// node count. The replay keeps its cache with a copy of the session's
/// private repair rule, so a change to that rule shows here as drift, not
/// as a wrong answer; the answers are gated by [`disagreement`].
pub fn drift(op: &Op, server: &Reply, replay: &Reply) -> Option<String> {
    match (server, replay) {
        (
            Reply::Query {
                hit: ha, nodes: na, ..
            },
            Reply::Query {
                hit: hb, nodes: nb, ..
            },
        ) => {
            let sequential = matches!(op, Op::Query { threads: 1, .. });
            (ha != hb || (sequential && na != nb))
                .then(|| format!("hit {ha}/{hb}, nodes {na}/{nb} (server/replay)"))
        }
        (Reply::Mutated { .. }, Reply::Mutated { .. }) => {
            let (a, b) = (write_counts(server).1, write_counts(replay).1);
            (a != b).then(|| format!("repairs/invalidations {a:?} vs {b:?}"))
        }
        _ => None,
    }
}

/// `((applied, version, core_updates), (repairs, invalidations))` of a
/// write's reply.
fn write_counts(reply: &Reply) -> ((u64, u64, u64), (u64, u64)) {
    match *reply {
        Reply::Mutated {
            applied,
            version,
            core_updates,
            repairs,
            invalidations,
        } => ((applied, version, core_updates), (repairs, invalidations)),
        Reply::Query { .. } => unreachable!("called on writes only"),
    }
}

/// Checks a seeded sample of prefix queries against `kr_core` run from
/// scratch on the graph each op saw. Returns `(op index, problem)` per
/// failure.
pub fn from_scratch(plan: &Plan, outcomes: &[Outcome], seed: u64) -> Vec<(usize, String)> {
    let queries: Vec<usize> = (0..outcomes.len())
        .filter(|&i| outcomes[i].cores.is_some() && outcomes[i].reply.is_ok())
        .collect();
    let mut rng = Rng::new(seed ^ 0x5C7A_7C11);
    let mut sample: BTreeSet<usize> = BTreeSet::new();
    let want = plan.workload.scratch_checks().min(queries.len());
    while sample.len() < want {
        sample.insert(queries[rng.below(queries.len())]);
    }
    let ds = &plan.dataset;
    let mut failures = Vec::new();
    for i in sample {
        let o = &outcomes[i];
        let (
            Op::Query {
                kind,
                k,
                r,
                threads,
            },
            Some(cores),
        ) = (&o.op, &o.cores)
        else {
            continue;
        };
        let problem = ProblemInstance::new(
            ds.graph_at(&plan.pool, o.state),
            ds.attributes.clone(),
            ds.metric,
            ds.threshold(*r),
            *k,
        );
        let served: Vec<KrCore> = cores.iter().map(|c| KrCore::new(c.clone())).collect();
        let problem_found = match kind {
            QueryKind::Enumerate => {
                let fresh =
                    enumerate_maximal(&problem, &AlgoConfig::adv_enum().with_threads(*threads));
                let mut fresh: Vec<Vec<u32>> =
                    fresh.cores.into_iter().map(|c| c.vertices).collect();
                fresh.sort();
                if &fresh != cores {
                    Some(format!(
                        "{} cores vs {} from scratch",
                        cores.len(),
                        fresh.len()
                    ))
                } else {
                    verify_maximal_family(&problem, &served).err()
                }
            }
            QueryKind::Maximum => {
                let fresh = find_maximum(&problem, &AlgoConfig::adv_max().with_threads(*threads));
                let fresh_len = fresh.core.map_or(0, |c| c.len());
                let served_len = served.first().map_or(0, KrCore::len);
                if fresh_len != served_len {
                    Some(format!(
                        "maximum of size {served_len} vs {fresh_len} from scratch"
                    ))
                } else if served.first().is_some_and(|c| !is_kr_core(&problem, c)) {
                    Some("the maximum is not a (k,r)-core".to_string())
                } else {
                    None
                }
            }
        };
        if let Some(p) = problem_found {
            failures.push((i, p));
        }
    }
    failures
}

/// Counts over the prefix ops that must repeat exactly on a fixed seed.
pub fn prefix_counts(
    outcomes: &[Outcome],
    records: &[Record],
    prefix: usize,
    tally: LazyTally,
) -> String {
    let (mut hits, mut misses, mut cores, mut nodes) = (0u64, 0u64, 0u64, 0u64);
    let (mut repairs, mut invalidations, mut core_updates) = (0u64, 0u64, 0u64);
    let mut sequential = true;
    for o in outcomes.iter().take(prefix) {
        if let Op::Query { threads, .. } = o.op {
            sequential &= threads == 1;
        }
        match &o.reply {
            Ok(Reply::Query {
                answer,
                hit,
                nodes: n,
                ..
            }) => {
                hits += u64::from(*hit);
                misses += u64::from(!*hit);
                cores += answer.count;
                nodes += n;
            }
            Ok(Reply::Mutated {
                core_updates: c,
                repairs: r,
                invalidations: i,
                ..
            }) => {
                core_updates += c;
                repairs += r;
                invalidations += i;
            }
            Err(_) => {}
        }
    }
    let oracle_evals: u64 = records
        .iter()
        .take(prefix)
        .filter_map(|r| r.miss)
        .map(|m| m.oracle_evals)
        .sum();
    // A parallel search's node count, and with it which lazy rows it
    // materializes, depends on how the workers interleave (they prune
    // against a shared incumbent and re-split when one idles), so both are
    // only pinned for sequential workloads.
    let pinned = |count: u64| {
        if sequential {
            count.to_string()
        } else {
            "unpinned".to_string()
        }
    };
    format!(
        "ops={prefix} hits={hits} misses={misses} cores={cores} nodes={} \
         repairs={repairs} invalidations={invalidations} core_updates={core_updates} \
         oracle_evals={oracle_evals} lazy_rows={}",
        pinned(nodes),
        pinned(tally.rows_materialized)
    )
}

/// Compares `counts` with what an earlier run of the same build, workload
/// and seed recorded under `dir` as `key`, recording them on the first
/// run.
pub fn ledger(dir: &Path, key: &str, counts: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{key}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.trim() == counts => Ok(()),
        Ok(earlier) => Err(format!(
            "counts differ from an earlier run of the same seed:\n  earlier: {}\n  now:     {counts}",
            earlier.trim()
        )),
        Err(_) => std::fs::write(&path, format!("{counts}\n")).map_err(|e| e.to_string()),
    }
}
