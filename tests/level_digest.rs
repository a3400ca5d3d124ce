//! Pins every bit the level-synchronous apps produce: BFS and BC under each
//! direction policy (`Push`, `Pull`, `Adaptive`), on four engine shapes
//! (GCGT `Full` in-core, GCGT streamed under a tight memory budget, GCGT
//! over 4 shards, GPUCSR) over a symmetrized social and a symmetrized web
//! graph. Each case is one FNV-1a digest of the answers (BFS depths; BC
//! depths, σ and δ as IEEE bits) and of the `Debug` text of every run's
//! `RunStats`, from two sources.
//!
//! `repro -- bench-diff` compares rounded milliseconds and the golden trace
//! runs only push BFS, so neither sees a sub-0.01 ms drift in a pull level
//! or a BC level. A refactor of the level loop, the compaction rule or the
//! pull kernels must leave every constant here untouched.

use gcgt::prelude::*;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, words: impl IntoIterator<Item = u64>) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }
}

/// A TITAN-V-like device with 8 SMs instead of 80: it fills from 256 work
/// items, so these small graphs have levels on both sides of the
/// compaction boundary.
fn device() -> DeviceConfig {
    DeviceConfig {
        num_sms: 8,
        ..DeviceConfig::default()
    }
}

const SHAPES: [&str; 4] = ["gcgt", "ooc", "shard4", "gpucsr"];
const DIRECTIONS: [DirectionMode; 3] = [
    DirectionMode::Push,
    DirectionMode::Pull,
    DirectionMode::Adaptive,
];
const SOURCES: [NodeId; 2] = [0, 5];

fn session(graph: &Csr, shape: &str, direction: DirectionMode) -> Session {
    let builder = Session::builder()
        .graph(graph.clone())
        .device(device())
        .direction(direction);
    let builder = match shape {
        "gcgt" => builder.engine(EngineKind::Gcgt(Strategy::Full)),
        "shard4" => builder.engine(EngineKind::Gcgt(Strategy::Full)).shards(4),
        "gpucsr" => builder.engine(EngineKind::GpuCsr),
        "ooc" => {
            // Per-query scratch plus an eighth of the compressed structure.
            let incore = Session::builder()
                .graph(graph.clone())
                .device(device())
                .engine(EngineKind::Gcgt(Strategy::Full))
                .build()
                .expect("in-core build");
            let scratch = incore.footprint() - incore.structure_bytes();
            builder
                .memory_budget(scratch + incore.structure_bytes() / 8)
                .engine(EngineKind::OutOfCore {
                    inner: Strategy::Full,
                })
        }
        _ => unreachable!("unknown shape {shape}"),
    };
    let session = builder.build().expect("session builds");
    assert_eq!(session.is_streaming(), shape == "ooc", "{shape}");
    session
}

fn bfs_digest(session: &Session) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for source in SOURCES {
        let run = session.run(Bfs::from(source));
        h.words(run.output.depth.iter().map(|&d| u64::from(d)));
        h.bytes(format!("{:?}", run.stats).as_bytes());
    }
    h.0
}

fn bc_digest(session: &Session) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for source in SOURCES {
        let run = session.run(Bc::from(source));
        h.words(run.output.depth.iter().map(|&d| u64::from(d)));
        h.words(run.output.sigma.iter().map(|s| s.to_bits()));
        h.words(run.output.delta.iter().map(|d| d.to_bits()));
        h.bytes(format!("{:?}", run.stats).as_bytes());
    }
    h.0
}

/// `(graph, shape, direction, app) → digest`.
const PINNED: &[(&str, &str, &str, &str, u64)] = &[
    ("social", "gcgt", "Push", "bfs", 0x23c0f373bdc2d8d0),
    ("social", "gcgt", "Push", "bc", 0x650ff356e3e62dc6),
    ("social", "gcgt", "Pull", "bfs", 0x901f4d1bf90b8f80),
    ("social", "gcgt", "Pull", "bc", 0x6129ce7244a9da47),
    ("social", "gcgt", "Adaptive", "bfs", 0x8cc4d8e736215f35),
    ("social", "gcgt", "Adaptive", "bc", 0x6129ce7244a9da47),
    ("social", "ooc", "Push", "bfs", 0xc314935fa12e184c),
    ("social", "ooc", "Push", "bc", 0xe3f03d84f30bdde5),
    ("social", "ooc", "Pull", "bfs", 0x4fa6b82d22434a8c),
    ("social", "ooc", "Pull", "bc", 0xef5024e7817e3153),
    ("social", "ooc", "Adaptive", "bfs", 0x7f1daf44ae892b07),
    ("social", "ooc", "Adaptive", "bc", 0xef5024e7817e3153),
    ("social", "shard4", "Push", "bfs", 0x43e56033e00076b1),
    ("social", "shard4", "Push", "bc", 0xbf7ff51bd1d5aa49),
    ("social", "shard4", "Pull", "bfs", 0x555f46f122ea658f),
    ("social", "shard4", "Pull", "bc", 0x44cf5e55b0633c92),
    ("social", "shard4", "Adaptive", "bfs", 0xe71917d10ad007b3),
    ("social", "shard4", "Adaptive", "bc", 0x44cf5e55b0633c92),
    ("social", "gpucsr", "Push", "bfs", 0x24a9e4312f8337b1),
    ("social", "gpucsr", "Push", "bc", 0xaf53cdad0bedc3ce),
    ("social", "gpucsr", "Pull", "bfs", 0xaac2924ccf905385),
    ("social", "gpucsr", "Pull", "bc", 0x08ebb9676a9f34ac),
    ("social", "gpucsr", "Adaptive", "bfs", 0xaa3168bc139e693b),
    ("social", "gpucsr", "Adaptive", "bc", 0x08ebb9676a9f34ac),
    ("web", "gcgt", "Push", "bfs", 0x3789ab1011baa01d),
    ("web", "gcgt", "Push", "bc", 0x6161a2706395988c),
    ("web", "gcgt", "Pull", "bfs", 0x288c85579911d764),
    ("web", "gcgt", "Pull", "bc", 0x7bb72bf88ef0848c),
    ("web", "gcgt", "Adaptive", "bfs", 0x11b8866215803845),
    ("web", "gcgt", "Adaptive", "bc", 0x7bb72bf88ef0848c),
    ("web", "ooc", "Push", "bfs", 0x0c4431812483b5cf),
    ("web", "ooc", "Push", "bc", 0x12dd7e63062dcda5),
    ("web", "ooc", "Pull", "bfs", 0xabf12081d9c1e8b4),
    ("web", "ooc", "Pull", "bc", 0x3a85ac60ce14d5a8),
    ("web", "ooc", "Adaptive", "bfs", 0x988ae8ade0bb70d9),
    ("web", "ooc", "Adaptive", "bc", 0x3a85ac60ce14d5a8),
    ("web", "shard4", "Push", "bfs", 0x4b5f7c27e77c91ae),
    ("web", "shard4", "Push", "bc", 0xcf44a7e4fee93c52),
    ("web", "shard4", "Pull", "bfs", 0x0c8c6529333775b8),
    ("web", "shard4", "Pull", "bc", 0x97a687bd86bc54b2),
    ("web", "shard4", "Adaptive", "bfs", 0x0f788d22a2d93874),
    ("web", "shard4", "Adaptive", "bc", 0x97a687bd86bc54b2),
    ("web", "gpucsr", "Push", "bfs", 0x0dbdf5d9841f7cd8),
    ("web", "gpucsr", "Push", "bc", 0x51c3a0f1854d3767),
    ("web", "gpucsr", "Pull", "bfs", 0x94fbeb7284334e2a),
    ("web", "gpucsr", "Pull", "bc", 0x1827fffcd51effed),
    ("web", "gpucsr", "Adaptive", "bfs", 0xd9cdd3532fc252e6),
    ("web", "gpucsr", "Adaptive", "bc", 0x1827fffcd51effed),
];

#[test]
fn level_loop_bits_are_pinned() {
    let graphs = [
        (
            "social",
            social_graph(&SocialParams::twitter_like(1_500), 7).symmetrized(),
        ),
        (
            "web",
            web_graph(&WebParams::uk2002_like(1_500), 11).symmetrized(),
        ),
    ];
    let mut got = Vec::new();
    for (name, graph) in &graphs {
        for shape in SHAPES {
            for direction in DIRECTIONS {
                let session = session(graph, shape, direction);
                let dir = format!("{direction:?}");
                got.push((*name, shape, dir.clone(), "bfs", bfs_digest(&session)));
                got.push((*name, shape, dir, "bc", bc_digest(&session)));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(g, s, d, a, h)| format!("    (\"{g}\", \"{s}\", \"{d}\", \"{a}\", {h:#018x}),\n"))
        .collect();
    let pinned: Vec<_> = PINNED
        .iter()
        .map(|&(g, s, d, a, h)| (g, s, d.to_string(), a, h))
        .collect();
    assert!(
        got == pinned,
        "level-loop bits moved; this build produces:\n{table}"
    );
}
