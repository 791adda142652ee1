//! Pins the single-worker search walk on the bench points: the exact
//! `SearchStats` counters and a digest of the returned cores for AdvEnum
//! and BasicEnum on the two bench_smoke presets, and for AdvMax and
//! BasicMax on gowalla-like and the `geo-corridor` instance.
//!
//! BasicEnum on gowalla-like and BasicMax on the corridor do not finish
//! in test time (millions of nodes: neither has the pruning that makes
//! those points tractable), so those two runs are pinned under a node
//! limit. A node-limited run is deterministic too, and its first nodes
//! are the same walk.
//!
//! The parallel ≡ sequential property tests compare two configurations
//! of one engine; this test is what holds that engine's walk itself in
//! place. Any change to the chooser's calls, the pruning order or the
//! leaf handling moves a node count here, even when the cores survive.
//! A deliberate algorithmic change must update the table below and say
//! why. The last test pins where the streaming hook fires in the walk.

use kr_bench::{corridor_instance, BenchDataset};
use kr_core::search::SearchStats;
use kr_core::{enumerate_maximal, find_maximum, AlgoConfig, CancelFlag, CoreHook, KrCore};
use kr_datagen::DatasetPreset;

/// `(nodes, leaves, early_terminations, bound_prunes, maximal_checks)`.
type Counters = (u64, u64, u64, u64, u64);

fn counters(s: &SearchStats) -> Counters {
    (
        s.nodes,
        s.leaves,
        s.early_terminations,
        s.bound_prunes,
        s.maximal_checks,
    )
}

/// FNV-1a over the cores in the order returned: each core contributes its
/// length, then its sorted vertex ids.
fn digest<'a>(cores: impl IntoIterator<Item = &'a KrCore>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for core in cores {
        feed(core.vertices.len() as u32);
        for &v in &core.vertices {
            feed(v);
        }
    }
    h
}

/// One pinned run: label, counters, completed, number of cores, core
/// digest.
type Row = (&'static str, Counters, bool, usize, u64);

fn enum_row(label: &'static str, p: &kr_core::ProblemInstance, cfg: &AlgoConfig) -> Row {
    let res = enumerate_maximal(p, &cfg.clone().with_threads(1));
    (
        label,
        counters(&res.stats),
        res.completed,
        res.cores.len(),
        digest(&res.cores),
    )
}

fn max_row(label: &'static str, p: &kr_core::ProblemInstance, cfg: &AlgoConfig) -> Row {
    let res = find_maximum(p, &cfg.clone().with_threads(1));
    (
        label,
        counters(&res.stats),
        res.completed,
        res.core.iter().len(),
        digest(&res.core),
    )
}

fn check(actual: &[Row], expected: &[Row]) {
    let rendered: Vec<String> = actual.iter().map(|r| format!("{r:?},")).collect();
    assert_eq!(
        actual,
        expected,
        "search walk moved; actual rows:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn enumeration_walk_is_pinned() {
    let gowalla = BenchDataset::new(DatasetPreset::GowallaLike, 1.0).instance(3, 12.0);
    let dblp = BenchDataset::new(DatasetPreset::DblpLike, 1.0).instance(3, 10.0);
    let actual = vec![
        enum_row("adv_enum gowalla", &gowalla, &AlgoConfig::adv_enum()),
        enum_row(
            "basic_enum gowalla (node limit)",
            &gowalla,
            &AlgoConfig::basic_enum().with_node_limit(20_000),
        ),
        enum_row("adv_enum dblp", &dblp, &AlgoConfig::adv_enum()),
        enum_row("basic_enum dblp", &dblp, &AlgoConfig::basic_enum()),
    ];
    check(
        &actual,
        &[
            (
                "adv_enum gowalla",
                (454, 231, 0, 0, 180),
                true,
                100,
                4895450130614577590,
            ),
            (
                "basic_enum gowalla (node limit)",
                (62608, 12833, 0, 0, 0),
                false,
                37,
                15087742896448978485,
            ),
            (
                "adv_enum dblp",
                (504, 264, 7, 0, 263),
                true,
                165,
                15989083597098464186,
            ),
            (
                "basic_enum dblp",
                (54026, 20256, 0, 0, 0),
                true,
                165,
                15989083597098464186,
            ),
        ],
    );
}

#[test]
fn maximum_walk_is_pinned() {
    let gowalla = BenchDataset::new(DatasetPreset::GowallaLike, 1.0).instance(3, 12.0);
    let corridor = corridor_instance(26, 40, 3, 7.0);
    let actual = vec![
        max_row("adv_max gowalla", &gowalla, &AlgoConfig::adv_max()),
        max_row("basic_max gowalla", &gowalla, &AlgoConfig::basic_max()),
        max_row("adv_max corridor", &corridor, &AlgoConfig::adv_max()),
        max_row(
            "basic_max corridor (node limit)",
            &corridor,
            &AlgoConfig::basic_max().with_node_limit(100),
        ),
    ];
    check(
        &actual,
        &[
            (
                "adv_max gowalla",
                (379, 81, 2, 130, 0),
                true,
                1,
                792483265914464665,
            ),
            (
                "basic_max gowalla",
                (518, 81, 3, 198, 0),
                true,
                1,
                792483265914464665,
            ),
            (
                "adv_max corridor",
                (5, 1, 0, 2, 0),
                true,
                1,
                3084071442993993352,
            ),
            (
                "basic_max corridor (node limit)",
                (101, 1, 10, 38, 0),
                false,
                1,
                3084071442993993352,
            ),
        ],
    );
}

/// Where the streaming hook fires inside the walk: the order in which
/// cores stream over a full run, and the node count at which a run that
/// cancels from its first streamed core stops.
fn stream_row(label: &'static str, p: &kr_core::ProblemInstance) -> (&'static str, u64, u64) {
    use std::sync::{Arc, Mutex};
    let streamed = Arc::new(Mutex::new(Vec::new()));
    let tap = streamed.clone();
    let cfg = AlgoConfig::adv_enum()
        .with_threads(1)
        .with_on_core(CoreHook::new(move |c: &KrCore| {
            tap.lock().unwrap().push(c.clone())
        }));
    assert!(enumerate_maximal(p, &cfg).completed);
    let order = digest(streamed.lock().unwrap().iter());

    let flag = CancelFlag::new();
    let stop = flag.clone();
    let cfg = AlgoConfig::adv_enum()
        .with_threads(1)
        .with_cancel(flag)
        .with_on_core(CoreHook::new(move |_: &KrCore| stop.cancel()));
    let res = enumerate_maximal(p, &cfg);
    assert!(!res.completed);
    (label, order, res.stats.nodes)
}

#[test]
fn streaming_point_is_pinned() {
    let gowalla = BenchDataset::new(DatasetPreset::GowallaLike, 1.0).instance(3, 12.0);
    let dblp = BenchDataset::new(DatasetPreset::DblpLike, 1.0).instance(3, 10.0);
    let actual = vec![
        stream_row("adv_enum gowalla", &gowalla),
        stream_row("adv_enum dblp", &dblp),
    ];
    assert_eq!(
        actual,
        vec![
            ("adv_enum gowalla", 12169858368706702590, 34),
            ("adv_enum dblp", 12134656739962022538, 74),
        ],
        "streaming moved"
    );
}
