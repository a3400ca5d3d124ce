//! Untrusted bytes on the out-of-core read-through path: a launch smaller
//! than one partition reads its lines through instead of uploading the
//! partition, but deferred validation still runs first. A corrupt partition
//! touched first by such a launch returns the typed `CorruptGraph` failure,
//! which a serving pool maps to a per-query error — never a panic, never a
//! silent decode of bad bytes.

use std::sync::{Arc, Mutex};

use gcgt::cgr::io;
use gcgt::obs::CacheEvent;
use gcgt::prelude::{
    web_graph, Bfs, CgrConfig, CgrGraph, EngineKind, Observer, ObserverHandle, QueryError,
    ServePool, Session, Strategy, TypedFailure, ValidationMode, WebParams,
};

/// Records the kind of every partition-cache event, in order.
#[derive(Default)]
struct CacheKinds(Mutex<Vec<&'static str>>);

impl Observer for CacheKinds {
    fn cache(&self, event: &CacheEvent) {
        self.0.lock().unwrap().push(event.kind);
    }
}

/// A streaming session over `cgr` under a `budget`-byte memory budget,
/// optionally observed.
fn streaming(cgr: CgrGraph, budget: usize, observer: Option<ObserverHandle>) -> Session {
    let mut builder = Session::builder()
        .graph_compressed(cgr)
        .memory_budget(budget)
        .engine(EngineKind::OutOfCore {
            inner: Strategy::Full,
        });
    if let Some(observer) = observer {
        builder = builder.observer(observer);
    }
    let session = builder
        .build()
        .expect("deferred corruption must not fail the streaming build");
    assert!(session.is_streaming());
    session
}

#[test]
fn a_corrupt_partition_read_through_first_is_a_typed_error() {
    let g = web_graph(&WebParams::uk2002_like(600), 7);
    let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
    let mut buf = Vec::new();
    io::write_cgr(&cgr, &mut buf).expect("in-memory write");

    // A flip in the last node's payload that only full validation catches.
    let mut corrupt = None;
    'search: for byte in buf.len() - 64..buf.len() {
        for bit in 0..8u8 {
            let mut c = buf.clone();
            c[byte] ^= 1 << bit;
            if CgrGraph::from_bytes(&c).is_err() {
                if let Ok(cgr) = io::read_cgr_with(&c[..], ValidationMode::Deferred) {
                    corrupt = Some(cgr);
                    break 'search;
                }
            }
        }
    }
    let corrupt = corrupt.expect("some payload flip is caught by validation only");
    let incore = Session::builder().graph(g.clone()).build().expect("probe");
    let budget =
        (incore.footprint() - incore.structure_bytes()) + (incore.structure_bytes() / 4).max(1);
    let source = Bfs::from(g.num_nodes() as u32 - 1);

    // On the intact bytes, the BFS's first launch — its source alone —
    // reads the last partition through rather than uploading it.
    let kinds = Arc::new(CacheKinds::default());
    let clean = streaming(
        io::read_cgr_with(&buf[..], ValidationMode::Deferred).expect("intact"),
        budget,
        Some(ObserverHandle::from_arc(kinds.clone())),
    );
    let run = clean.run(source);
    assert!(run.stats.read_throughs > 0);
    assert_eq!(kinds.0.lock().unwrap().first(), Some(&"fault-read"));

    // On the corrupt bytes the same launch returns the typed failure for
    // the source's (last) partition before any line is read …
    let session = streaming(corrupt, budget, None);
    let last = format!(
        "corrupt CGR payload in partition {}:",
        session.num_partitions().unwrap() - 1
    );
    let failure = session
        .try_run(source)
        .expect_err("a corrupt partition must not decode");
    assert!(
        matches!(&failure, TypedFailure::CorruptGraph(msg) if msg.starts_with(&last)),
        "the query returns a typed CorruptGraph failure: {failure:?}"
    );

    // … which a serving pool turns into a per-query error, every time.
    let pool = ServePool::new(session.prepared(), 2).expect("workers >= 1");
    let report = pool.serve(&[source, source]);
    for outcome in &report.outputs {
        assert!(
            matches!(outcome, Err(QueryError::CorruptGraph(msg)) if msg.starts_with(&last)),
            "{outcome:?}"
        );
    }
    for w in &report.workers {
        assert_eq!(w.allocated, w.baseline, "worker {}", w.worker);
    }
}
