//! Pins the encoder's output byte for byte: an FNV-1a digest of the bit
//! array, the per-node offsets and the encoding tallies of
//! `CgrGraph::encode`, over three graph classes × {γ, ζ3} × {segmented,
//! unsegmented} × `ref_window` {0, 8, 32}, plus `CgrConfig::autotune`'s pick
//! on each graph. A refactor of the write side must leave every constant
//! here untouched; only a deliberate format change may edit them.

use gcgt_bits::Code;
use gcgt_cgr::{CgrConfig, CgrGraph};
use gcgt_graph::gen::{social_graph, web_graph, SocialParams, WebParams};
use gcgt_graph::Csr;

/// 64-bit FNV-1a over little-endian `u64`s.
struct Fnv(u64);

impl Fnv {
    fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn digest(cgr: &CgrGraph) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.add(cgr.bits().len() as u64);
    for &w in cgr.bits().words() {
        h.add(w);
    }
    for o in cgr.offsets_dense() {
        h.add(o as u64);
    }
    let s = cgr.stats();
    for x in [
        s.nodes,
        s.edges,
        s.total_bits,
        s.interval_edges,
        s.residual_edges,
        s.blank_bits,
        s.segments,
        s.ref_nodes,
        s.ref_copy_blocks,
        s.ref_copied_edges,
    ] {
        h.add(x as u64);
    }
    h.0
}

fn graphs() -> [(&'static str, Csr); 3] {
    [
        ("uk2002", web_graph(&WebParams::uk2002_like(2_500), 11)),
        ("eu2015", web_graph(&WebParams::eu2015_like(2_500), 12)),
        (
            "twitter",
            social_graph(&SocialParams::twitter_like(2_000), 13),
        ),
    ]
}

/// `(graph, code, segmented, ref_window) → digest`, recorded from the
/// encoder as it stood before the write side was unified.
const PINNED: &[(&str, &str, bool, u32, u64)] = &[
    ("uk2002", "gamma", true, 0, 0xd3e60ca17d13bf12),
    ("uk2002", "gamma", true, 8, 0xe81282ffa36fba9e),
    ("uk2002", "gamma", true, 32, 0x601901d0b27948ed),
    ("uk2002", "gamma", false, 0, 0xfef8b8c5a3613eae),
    ("uk2002", "gamma", false, 8, 0x0bbc9c53d9f1e2a3),
    ("uk2002", "gamma", false, 32, 0x2450710ec24c8136),
    ("uk2002", "zeta3", true, 0, 0x8c9ac9837bee0cf4),
    ("uk2002", "zeta3", true, 8, 0xe56ce85e6273e522),
    ("uk2002", "zeta3", true, 32, 0x3bdca9b9f1dec7c3),
    ("uk2002", "zeta3", false, 0, 0x9dc2a8e8cae1381c),
    ("uk2002", "zeta3", false, 8, 0x979b05bc1f82c4b1),
    ("uk2002", "zeta3", false, 32, 0x0b60315a32e9d876),
    ("eu2015", "gamma", true, 0, 0xb5000c797e888a8f),
    ("eu2015", "gamma", true, 8, 0x61f8f094df966ea1),
    ("eu2015", "gamma", true, 32, 0x6783929293bdad84),
    ("eu2015", "gamma", false, 0, 0xd27def0dc457ab6b),
    ("eu2015", "gamma", false, 8, 0xac79cd493d4345d3),
    ("eu2015", "gamma", false, 32, 0xab2128b637e0c166),
    ("eu2015", "zeta3", true, 0, 0x3cf9110fd3a7d866),
    ("eu2015", "zeta3", true, 8, 0x85600ff156dd34ed),
    ("eu2015", "zeta3", true, 32, 0xc23baea79af75654),
    ("eu2015", "zeta3", false, 0, 0xea7ff676a80644a3),
    ("eu2015", "zeta3", false, 8, 0x797f01f5618a9459),
    ("eu2015", "zeta3", false, 32, 0xe3e75cb57d87ad4c),
    ("twitter", "gamma", true, 0, 0xdd2e1cbfc317428a),
    ("twitter", "gamma", true, 8, 0x345416d3cb672469),
    ("twitter", "gamma", true, 32, 0x02d9b7f0bc9b4713),
    ("twitter", "gamma", false, 0, 0xa23fff2788fac8cc),
    ("twitter", "gamma", false, 8, 0xd0aa1d56520c5c80),
    ("twitter", "gamma", false, 32, 0xdc1c6b447fc5a585),
    ("twitter", "zeta3", true, 0, 0xb01d37e208125289),
    ("twitter", "zeta3", true, 8, 0x79f70c44e3d1f964),
    ("twitter", "zeta3", true, 32, 0xaf3864affd0fcefe),
    ("twitter", "zeta3", false, 0, 0x5334874e2e64ad55),
    ("twitter", "zeta3", false, 8, 0x99e8f221d93ba80e),
    ("twitter", "zeta3", false, 32, 0x90f98065d02f74c6),
];

/// `graph → autotune's code`.
const PINNED_AUTOTUNE: &[(&str, &str)] = &[
    ("uk2002", "zeta4"),
    ("eu2015", "zeta3"),
    ("twitter", "zeta3"),
];

#[test]
fn encoder_output_is_pinned() {
    let mut got = Vec::new();
    let mut tuned = Vec::new();
    for (name, g) in graphs() {
        for code in [Code::Gamma, Code::Zeta(3)] {
            for segmented in [true, false] {
                for window in [0u32, 8, 32] {
                    let cfg = CgrConfig {
                        code,
                        segment_len_bytes: segmented.then_some(32),
                        ..CgrConfig::paper_default()
                    }
                    .with_ref_window(window);
                    let cgr = CgrGraph::encode(&g, &cfg);
                    got.push((name, code.name(), segmented, window, digest(&cgr)));
                }
            }
        }
        tuned.push((name, CgrConfig::autotune(&g).code.name()));
    }
    let table: String = got
        .iter()
        .map(|(g, c, s, w, d)| format!("    (\"{g}\", \"{c}\", {s}, {w}, {d:#018x}),\n"))
        .chain(
            tuned
                .iter()
                .map(|(g, c)| format!("    (\"{g}\", \"{c}\"),\n")),
        )
        .collect();
    let pinned: Vec<_> = PINNED
        .iter()
        .map(|&(g, c, s, w, d)| (g, c.to_string(), s, w, d))
        .collect();
    let pinned_tuned: Vec<_> = PINNED_AUTOTUNE
        .iter()
        .map(|&(g, c)| (g, c.to_string()))
        .collect();
    assert!(
        got == pinned && tuned == pinned_tuned,
        "encoder output moved; this build produces:\n{table}"
    );
}
