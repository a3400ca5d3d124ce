//! Pins LLP's output: an FNV-1a digest of the permutation
//! `Reordering::Llp(LlpConfig::default())` computes on two web graphs, a
//! follower graph and a virtual-node-compressed web graph. A change to how
//! labels are counted or how adjacency is built must leave every constant
//! here untouched; only a deliberate change to the ordering may edit them.

use gcgt_graph::gen::{social_graph, web_graph, SocialParams, WebParams};
use gcgt_graph::order::{is_permutation, LlpConfig};
use gcgt_graph::{Csr, Reordering, VnodeConfig, VnodeGraph};

/// 64-bit FNV-1a over little-endian `u64`s.
struct Fnv(u64);

impl Fnv {
    fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn graphs() -> [(&'static str, Csr); 4] {
    let uk2007 = web_graph(&WebParams::uk2007_like(2_500), 14);
    let vnode = VnodeGraph::compress(&uk2007, &VnodeConfig::default());
    assert!(vnode.num_virtual() > 0, "the miner found no pattern");
    [
        ("uk2002", web_graph(&WebParams::uk2002_like(2_500), 11)),
        ("eu2015", web_graph(&WebParams::eu2015_like(2_500), 12)),
        (
            "twitter",
            social_graph(&SocialParams::twitter_like(2_000), 13),
        ),
        ("uk2007+vnode", vnode.graph),
    ]
}

/// `graph → digest of the LLP permutation`, recorded from the hash-map
/// label counter LLP used before its dense accumulator.
const PINNED: &[(&str, u64)] = &[
    ("uk2002", 0xb5f363ddb68ec37e),
    ("eu2015", 0xfdfecf8fb522534e),
    ("twitter", 0x70f3fe4c4709bde0),
    ("uk2007+vnode", 0x19cfde1c20157058),
];

#[test]
fn llp_permutations_match_pinned_digests() {
    let mut got = Vec::new();
    for (name, g) in graphs() {
        let perm = Reordering::Llp(LlpConfig::default()).compute(&g);
        assert!(is_permutation(&perm), "{name}: not a permutation");
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.add(perm.len() as u64);
        for &p in &perm {
            h.add(u64::from(p));
        }
        got.push((name, h.0));
    }
    assert_eq!(got, PINNED);
}
