//! GCGR v3 reference compression end-to-end.
//!
//! * `ref_window = 0` is **bitwise neutral**: payload and serialized
//!   bytes are identical to a v2 encode, across both layouts.
//! * Property tests: arbitrary graphs × `ref_window ∈ {0, 1, 4, 64}` ×
//!   chain limits × codes × both layouts round-trip through decode,
//!   through the owned v3 reader and through the zero-copy loader
//!   (eager *and* deferred validation).
//! * All five applications stay oracle-equivalent on reference-compressed
//!   graphs, with outputs and `RunStats` deterministic across reruns.
//! * Corruption regressions: a chain longer than `ref_chain_limit`, a
//!   forward/self reference and a copy-block overrun are typed errors,
//!   never panics or wrong answers.

use gcgt::bits::BitWriter;
use gcgt::cgr::io;
use gcgt::cgr::{decode, DEFAULT_REF_CHAIN_LIMIT};
use gcgt::core::{bc, bfs, cc, label_propagation, pagerank};
use gcgt::prelude::{
    refalgo, social_graph, web_graph, CgrConfig, CgrGraph, Code, Csr, DeviceConfig, GcgtEngine,
    LabelProp, Pagerank, Query, Session, SocialParams, Strategy, ValidationMode, WebParams,
};
use proptest::prelude::{prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;

fn arb_graph() -> impl PropStrategy<Value = Csr> {
    (2usize..80).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..260)
            .prop_map(move |edges| Csr::from_edges(n, &edges))
    })
}

/// Configurations that exercise the reference prologue: every ref_window
/// the issue calls out, both layouts, chain limits from "no chaining" up.
fn arb_ref_config() -> impl PropStrategy<Value = CgrConfig> {
    (
        prop_oneof![
            Just(Code::Gamma),
            Just(Code::Delta),
            (2u8..5).prop_map(Code::Zeta),
        ],
        prop_oneof![Just(None), Just(Some(4u32))],
        prop_oneof![Just(None), Just(Some(32u32))],
        prop_oneof![Just(0u32), Just(1), Just(4), Just(64)],
        1u32..5,
    )
        .prop_map(
            |(code, min_interval_len, segment_len_bytes, ref_window, ref_chain_limit)| CgrConfig {
                code,
                min_interval_len,
                segment_len_bytes,
                ref_window,
                ref_chain_limit,
            },
        )
}

fn buffer(cgr: &CgrGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    io::write_cgr(cgr, &mut buf).expect("in-memory write");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ref_encodes_round_trip_everywhere(graph in arb_graph(), config in arb_ref_config()) {
        let cgr = CgrGraph::encode(&graph, &config);
        // Per-node decode matches the source adjacency.
        for u in 0..graph.num_nodes() as u32 {
            prop_assert_eq!(
                decode::decode_node(&cgr, u),
                graph.neighbors(u).to_vec()
            );
            prop_assert_eq!(decode::decode_degree(&cgr, u), graph.neighbors(u).len());
        }
        // Bulk decode reproduces the CSR.
        prop_assert_eq!(&decode::decode_all(&cgr), &graph);
        // Owned reader round trip. A ref_window = 0 graph serializes as a
        // plain v2 stream (bitwise neutrality), which carries no chain
        // limit — it reads back as the default.
        let mut expected = *cgr.config();
        if expected.ref_window == 0 {
            expected.ref_chain_limit = DEFAULT_REF_CHAIN_LIMIT;
        }
        let buf = buffer(&cgr);
        let owned = io::read_cgr(&buf[..]).expect("owned read");
        prop_assert_eq!(owned.config(), &expected);
        prop_assert_eq!(owned.stats(), cgr.stats());
        prop_assert_eq!(&decode::decode_all(&owned), &graph);
        // Zero-copy load, eager and deferred validation.
        for mode in [ValidationMode::Eager, ValidationMode::Deferred] {
            let zc = CgrGraph::from_bytes_with(&buf, mode).expect("zero-copy load");
            prop_assert_eq!(zc.config(), &expected);
            prop_assert_eq!(&decode::decode_all(&zc), &graph);
        }
    }

    #[test]
    fn ref_window_zero_is_bitwise_neutral(graph in arb_graph()) {
        // An encoder asked for ref_window = 0 must emit the same payload
        // bits AND the same serialized stream as the v2 format ever did —
        // the feature is invisible until asked for.
        for segment_len_bytes in [None, Some(32u32)] {
            let v2_cfg = CgrConfig { segment_len_bytes, ..CgrConfig::paper_default() };
            assert_eq!(v2_cfg.ref_window, 0, "paper default must stay ref-free");
            let with_knob = CgrConfig { ref_chain_limit: 7, ..v2_cfg };
            let a = CgrGraph::encode(&graph, &v2_cfg);
            let b = CgrGraph::encode(&graph, &with_knob);
            prop_assert_eq!(a.bits().words(), b.bits().words());
            prop_assert_eq!(a.stats(), b.stats());
            prop_assert_eq!(buffer(&a), buffer(&b));
        }
    }
}

/// The referencing encode of a template-heavy web graph must beat the
/// non-referencing encode by >10% bits/edge (the acceptance bar; the
/// `ref` bench experiment pins the same number in BENCH.json), and the
/// milder `uk2002` shape must still never grow.
#[test]
fn web_graph_gains_from_references() {
    let graph = web_graph(&WebParams::eu2015_like(4_000), 7);
    let base = CgrGraph::encode(&graph, &CgrConfig::paper_default());
    let cfg = CgrConfig::paper_default().with_ref_window(32);
    let refs = CgrGraph::encode(&graph, &cfg);
    let s = refs.stats();
    assert!(s.ref_nodes > 0, "web generator must trigger references");
    assert!(s.ref_copied_edges > 0 && s.ref_copy_blocks > 0);
    let gain = 1.0 - s.bits_per_edge() / base.stats().bits_per_edge();
    assert!(
        gain > 0.10,
        "references must cut >10% bits/edge on the template-heavy web shape, got {:.1}%",
        gain * 100.0
    );
    assert_eq!(&decode::decode_all(&refs), &graph);

    let milder = web_graph(&WebParams::uk2002_like(4_000), 7);
    let base = CgrGraph::encode(&milder, &CgrConfig::paper_default());
    let refs = CgrGraph::encode(&milder, &cfg);
    assert!(
        refs.stats().total_bits < base.stats().total_bits,
        "references must not grow the payload: {} vs {}",
        refs.stats().total_bits,
        base.stats().total_bits
    );
}

/// All five applications on reference-compressed graphs match the serial
/// reference algorithms (exact for the discrete apps, float tolerance for
/// PageRank/BC whose accumulation order legitimately shifts when copied
/// values are emitted before corrections), on both layouts.
#[test]
fn five_apps_match_oracle_on_ref_graphs() {
    let device = DeviceConfig::titan_v_scaled(1 << 30);
    for (graph, strategy) in [
        (
            web_graph(&WebParams::uk2002_like(900), 3).symmetrized(),
            Strategy::TaskStealing,
        ),
        (
            social_graph(&SocialParams::ljournal_like(700), 5).symmetrized(),
            Strategy::Full,
        ),
    ] {
        let cfg = strategy.cgr_config(&CgrConfig::paper_default().with_ref_window(16));
        let cgr = CgrGraph::encode(&graph, &cfg);
        assert!(
            cgr.stats().ref_nodes > 0,
            "workload must exercise references ({strategy:?})"
        );
        let engine = GcgtEngine::new(&cgr, device, strategy);

        let want = refalgo::bfs(&graph, 0);
        let got = bfs(&engine, 0);
        assert_eq!(got.depth, want.depth, "bfs {strategy:?}");
        assert_eq!(got.reached, want.reached, "bfs {strategy:?}");

        let want = refalgo::connected_components(&graph);
        let got = cc(&engine);
        assert_eq!(got.component, want.component, "cc {strategy:?}");
        assert_eq!(got.count, want.count, "cc {strategy:?}");

        let (want_labels, _) = refalgo::label_propagation(&graph, 20);
        let got = label_propagation(&engine, 20);
        assert_eq!(got.labels, want_labels, "labelprop {strategy:?}");

        let (want_ranks, _) = refalgo::pagerank(&graph, refalgo::PagerankConfig::default());
        let got = pagerank(&engine, 0.85, 100, 1e-9);
        for (i, (&a, &b)) in got.ranks.iter().zip(&want_ranks).enumerate() {
            assert!((a - b).abs() < 1e-6, "rank[{i}] {a} vs {b} ({strategy:?})");
        }

        let want = refalgo::betweenness_from_source(&graph, 0);
        let got = bc(&engine, 0);
        assert_eq!(got.depth, want.depth, "bc {strategy:?}");
        assert_eq!(got.sigma, want.sigma, "bc σ is exact in f64 ({strategy:?})");
        for (i, (&a, &b)) in got.delta.iter().zip(&want.delta).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
                "δ[{i}] {a} vs {b} ({strategy:?})"
            );
        }
    }
}

/// Reruns of the five apps through the Session layer on a
/// reference-compressed graph are bitwise deterministic — identical
/// `QueryOutput` AND `RunStats`.
#[test]
fn session_reruns_are_deterministic_on_ref_graphs() {
    let g = web_graph(&WebParams::uk2002_like(900), 77).symmetrized();
    let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default().with_ref_window(16));
    let session = Session::builder()
        .graph(g.clone())
        .compress(cfg)
        .build()
        .unwrap();
    assert!(session.cgr().expect("compressed session").stats().ref_nodes > 0);
    let n = g.num_nodes() as u32;
    let queries = [
        Query::Bfs(3 % n),
        Query::Cc,
        Query::Bc(5 % n),
        Query::Pagerank(Pagerank::default()),
        Query::LabelProp(LabelProp::default()),
    ];
    for q in queries {
        let a = session.run(q);
        let b = session.run(q);
        assert_eq!(a.output, b.output, "{q:?} rerun output");
        assert_eq!(a.stats, b.stats, "{q:?} rerun stats");
    }
}

// ---------------------------------------------------------------------------
// Corruption regressions: hand-corrupted prologues are typed errors.
// ---------------------------------------------------------------------------

/// Chains deeper than `ref_chain_limit` are rejected by validation: encode
/// with a generous limit, reload claiming a tighter one (header word 16's
/// high half).
#[test]
fn chain_limit_overflow_is_a_typed_error() {
    // Every node links the same scattered "boilerplate" targets, so every
    // node references its predecessor and chains build to the limit.
    let n = 128usize;
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for k in 0..8u32 {
            let v = 10 + 15 * k;
            if v != u {
                edges.push((u, v));
            }
        }
    }
    let graph = Csr::from_edges(n, &edges);
    let cfg = CgrConfig {
        min_interval_len: None,
        ..CgrConfig::paper_default()
            .with_ref_window(8)
            .with_ref_chain_limit(6)
    };
    let cgr = CgrGraph::encode(&graph, &cfg);
    let max_chain = (0..n as u32)
        .map(|u| {
            let mut len = 0;
            let mut v = u;
            while let Some(t) = cgr.ref_target(v) {
                len += 1;
                v = t;
            }
            len
        })
        .max()
        .unwrap();
    assert!(
        max_chain > 1,
        "graph must form real chains (got {max_chain})"
    );

    let mut buf = buffer(&cgr);
    // w16: low half = ref_window, high half = ref_chain_limit. Claim 1.
    buf[16 * 8 + 4..16 * 8 + 8].copy_from_slice(&1u32.to_le_bytes());
    let err = CgrGraph::from_bytes_with(&buf, ValidationMode::Eager)
        .expect_err("tighter chain limit must fail validation");
    assert!(
        err.to_string().contains("ref_chain_limit"),
        "unexpected error: {err}"
    );

    // Deferred validation surfaces the same rejection at first touch.
    let lazy = CgrGraph::from_bytes_with(&buf, ValidationMode::Deferred)
        .expect("deferred load must succeed");
    let err = lazy
        .ensure_validated_all()
        .expect_err("deferred touch must reject the chain");
    assert!(err.contains("ref_chain_limit"), "unexpected error: {err}");
}

/// A graph whose node 1 copies node 0's whole 8-value scattered list
/// (scattered, so the reference is cost-effective), plus the config.
fn tiny_ref_graph() -> (CgrGraph, CgrConfig) {
    let n = 120usize;
    let mut edges = Vec::new();
    for k in 0..8u32 {
        let v = 10 + 15 * k;
        edges.push((0, v));
        edges.push((1, v));
    }
    let graph = Csr::from_edges(n, &edges);
    let cfg = CgrConfig {
        code: Code::Gamma,
        min_interval_len: None,
        segment_len_bytes: None,
        ..CgrConfig::paper_default().with_ref_window(4)
    };
    let cgr = CgrGraph::encode(&graph, &cfg);
    assert_eq!(cgr.ref_target(1), Some(0), "node 1 must reference node 0");
    (cgr, cfg)
}

/// Overwrites the codeword at payload bit `pos` with `code(value)` in a
/// serialized GCGR buffer (payload is the final section of the stream).
fn patch_payload_codeword(buf: &mut [u8], payload_words: usize, pos: usize, value: u64) {
    let payload_start = buf.len() - payload_words * 8;
    let mut w = BitWriter::new();
    Code::Gamma.encode(&mut w, value);
    let bv = w.into_bitvec();
    for i in 0..bv.len() {
        // BitVec is MSB-first within each little-endian u64 word: stream
        // bit b lives in word b/64 at u64 bit 63 - b%64.
        let b = pos + i;
        let lsb = 63 - (b % 64);
        let byte = payload_start + (b / 64) * 8 + lsb / 8;
        let mask = 1u8 << (lsb % 8);
        if bv.get(i) {
            buf[byte] |= mask;
        } else {
            buf[byte] &= !mask;
        }
    }
}

/// A self/forward reference (offset escaping the node id) is a typed
/// error: corrupt node 1's refOffset from "1 back" to "2 back" — past
/// node 0, an unrepresentable forward/underflowing target. γ(2) and γ(3)
/// have the same width, so the rest of the stream stays aligned.
#[test]
fn forward_or_self_reference_is_a_typed_error() {
    let (cgr, _) = tiny_ref_graph();
    let bits = cgr.bits();
    let (_deg, ref_pos) = Code::Gamma.decode_at(bits, cgr.offset(1)).expect("degNum");
    let (off, _) = Code::Gamma.decode_at(bits, ref_pos).expect("refOffset");
    assert_eq!(off, 1 + 1, "refOffset 1 (codeword value offset + 1)");
    let mut buf = buffer(&cgr);
    patch_payload_codeword(&mut buf, cgr.bits().words().len(), ref_pos, 3);
    let err = CgrGraph::from_bytes_with(&buf, ValidationMode::Eager)
        .expect_err("forward ref must be rejected");
    assert!(
        err.to_string().contains("forward/self reference"),
        "unexpected error: {err}"
    );
}

/// Copy blocks spanning more values than the referenced adjacency holds
/// are a typed error (the issue's "copy-bitmask overrun"): bump node 1's
/// single block length from 8 to 14 (γ(9) and γ(15) have equal width).
#[test]
fn copy_block_overrun_is_a_typed_error() {
    let (cgr, _) = tiny_ref_graph();
    // Header codewords are γ-coded here and carry a +1 shift.
    let bits = cgr.bits();
    let (_deg, ref_pos) = Code::Gamma.decode_at(bits, cgr.offset(1)).expect("degNum");
    let (off, blk_pos) = Code::Gamma.decode_at(bits, ref_pos).expect("refOffset");
    assert_eq!(off, 1 + 1);
    let (blk_num, len_pos) = Code::Gamma.decode_at(bits, blk_pos).expect("blockNum");
    assert_eq!(blk_num, 1 + 1, "one all-copy block expected");
    let (len, _) = Code::Gamma.decode_at(bits, len_pos).expect("blockLen");
    assert_eq!(len, 8 + 1);
    let mut buf = buffer(&cgr);
    // write_block_len encodes len + 1: 15 decodes to a span of 14 > 8.
    patch_payload_codeword(&mut buf, cgr.bits().words().len(), len_pos, 15);
    let err = CgrGraph::from_bytes_with(&buf, ValidationMode::Eager)
        .expect_err("copy-block overrun must be rejected");
    assert!(
        err.to_string().contains("copy blocks span"),
        "unexpected error: {err}"
    );
}

/// A v3 stream round-trips its knobs: loading honours the stored chain
/// limit and window, not the defaults.
#[test]
fn v3_header_round_trips_knobs() {
    let graph = web_graph(&WebParams::uk2002_like(600), 11);
    let cfg = CgrConfig::paper_default()
        .with_ref_window(9)
        .with_ref_chain_limit(DEFAULT_REF_CHAIN_LIMIT + 2);
    let cgr = CgrGraph::encode(&graph, &cfg);
    let loaded = io::read_cgr(&buffer(&cgr)[..]).expect("v3 read");
    assert_eq!(loaded.config().ref_window, 9);
    assert_eq!(loaded.config().ref_chain_limit, DEFAULT_REF_CHAIN_LIMIT + 2);
    assert_eq!(loaded.stats(), cgr.stats());
}
