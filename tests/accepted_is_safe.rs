//! "Accepted ⇒ safe": whatever the structural validator lets through,
//! every consumer decodes without panicking and to the same neighbours.
//!
//! The validator, the serial decoders and the simulated kernels all read a
//! node through one checked cursor (`gcgt_cgr::NodeCursor`), so they cannot
//! disagree about a payload. This suite holds that as a property over
//! *mutated* images: take a valid encode, flip a few payload bits or
//! overwrite a codeword, and then either the load is refused with a typed
//! error (eagerly, and on first touch after a deferred load), or every
//! kernel strategy of the matching layout expands every node to exactly the
//! multiset the streaming scanner yields, with `decode_degree` agreeing.
//!
//! Two hand-built payloads are pinned as explicit cases: they are the
//! images on which the validator and the kernels used to disagree (or the
//! validator itself panicked) before they shared a parser.

use gcgt::bits::{BitVec, BitWriter};
use gcgt::cgr::{decode, io, NeighborScanner};
use gcgt::core::kernels::{expand_warp, CollectSink};
use gcgt::prelude::{
    web_graph, CgrConfig, CgrGraph, Code, Csr, NodeId, Strategy, ValidationMode, WebParams,
};
use gcgt::simt::WarpSim;
use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};

/// A serialized GCGR image plus where its payload (the final section) is.
struct Image {
    bytes: Vec<u8>,
    payload_start: usize,
    payload_bits: usize,
}

impl Image {
    fn of(cgr: &CgrGraph) -> Self {
        let mut bytes = Vec::new();
        io::write_cgr(cgr, &mut bytes).expect("writing to a Vec cannot fail");
        Image {
            payload_start: bytes.len() - cgr.bits().words().len() * 8,
            payload_bits: cgr.bits().len(),
            bytes,
        }
    }

    /// The byte and mask of payload bit `b`: the stream is MSB-first within
    /// each little-endian u64 word.
    fn locate(&self, b: usize) -> (usize, u8) {
        let lsb = 63 - (b % 64);
        (self.payload_start + (b / 64) * 8 + lsb / 8, 1 << (lsb % 8))
    }

    fn flip(&mut self, b: usize) {
        let (byte, mask) = self.locate(b);
        self.bytes[byte] ^= mask;
    }

    /// Overwrites the payload from bit `pos` with `bits` (clipped to the
    /// payload's end).
    fn overwrite(&mut self, pos: usize, bits: &BitVec) {
        for i in 0..bits.len().min(self.payload_bits.saturating_sub(pos)) {
            let (byte, mask) = self.locate(pos + i);
            if bits.get(i) {
                self.bytes[byte] |= mask;
            } else {
                self.bytes[byte] &= !mask;
            }
        }
    }
}

/// The property. `Err` carries a failed expectation; a panic anywhere in
/// here is the other way to fail.
fn accepted_implies_safe(image: &Image) -> Result<(), String> {
    let eager = CgrGraph::from_bytes_with(&image.bytes, ValidationMode::Eager);
    let deferred =
        CgrGraph::from_bytes_with(&image.bytes, ValidationMode::Deferred).and_then(|g| {
            match g.ensure_validated_all() {
                Ok(()) => Ok(g),
                Err(e) => Err(std::io::Error::other(e)),
            }
        });
    if eager.is_ok() != deferred.is_ok() {
        return Err(format!(
            "eager load {:?} but deferred load {:?}",
            eager.as_ref().map(|_| ()),
            deferred.as_ref().map(|_| ())
        ));
    }
    let Ok(cgr) = eager else {
        return Ok(()); // refused with a typed error
    };
    let n = cgr.num_nodes() as NodeId;
    let scanned: Vec<Vec<NodeId>> = (0..n)
        .map(|u| {
            let mut list: Vec<NodeId> = NeighborScanner::new(&cgr, u).collect();
            list.sort_unstable();
            list
        })
        .collect();
    for u in 0..n {
        let (deg, want) = (decode::decode_degree(&cgr, u), &scanned[u as usize]);
        if deg != want.len() || &decode::decode_node(&cgr, u) != want {
            return Err(format!(
                "node {u}: serial decoders disagree with the scanner"
            ));
        }
    }
    let segmented = cgr.config().segment_len_bytes.is_some();
    let frontier: Vec<NodeId> = (0..n).collect();
    for strategy in Strategy::LADDER {
        if strategy.needs_segmented_layout() != segmented {
            continue;
        }
        let mut expanded = vec![Vec::new(); n as usize];
        for chunk in frontier.chunks(8) {
            let mut warp = WarpSim::new(8, 64);
            let mut sink = CollectSink::default();
            expand_warp(strategy, &mut warp, &cgr, chunk, &mut sink);
            for (u, v) in sink.pairs {
                expanded[u as usize].push(v);
            }
        }
        for (u, list) in expanded.iter_mut().enumerate() {
            list.sort_unstable();
            if *list != scanned[u] {
                return Err(format!(
                    "{strategy:?} node {u}: {list:?} != {:?}",
                    scanned[u]
                ));
            }
        }
    }
    Ok(())
}

fn gamma_unsegmented() -> CgrConfig {
    CgrConfig {
        code: Code::Gamma,
        ..CgrConfig::unsegmented()
    }
}

/// `degNum 1 · itvNum 1 · [5; 4]` over a one-edge carrier: a degree-driven
/// validator used to accept it (one neighbour, one declared edge) while the
/// `itvNum`-driven kernels emitted four and underflowed their residual
/// count.
#[test]
fn interval_coverage_beyond_deg_num_is_refused_not_expanded() {
    let cfg = gamma_unsegmented();
    let carrier = CgrGraph::encode(&Csr::from_edges(64, &[(0, 20)]), &cfg);
    let mut node = BitWriter::new();
    cfg.write_count(&mut node, 1); // degNum
    cfg.write_count(&mut node, 1); // itvNum
    cfg.write_first_gap(&mut node, 0, 5);
    cfg.write_interval_len(&mut node, 4);
    let node = node.into_bitvec();
    assert!(node.len() <= carrier.offset(1), "the carrier must hold it");
    let mut image = Image::of(&carrier);
    image.overwrite(0, &node);
    assert_eq!(accepted_implies_safe(&image), Ok(()));
    let err = CgrGraph::from_bytes_with(&image.bytes, ValidationMode::Eager).unwrap_err();
    assert!(err.to_string().contains("overrun degNum"), "{err}");
}

/// `refOffset 1 · blockNum 2 · two lengths of 2^63` on both layouts: the
/// block-length sum used to wrap (an overflow panic in debug builds, a
/// slice index far out of range in release builds) inside the validator.
#[test]
fn overflowing_copy_block_lengths_are_refused_not_summed() {
    let mut edges: Vec<(NodeId, NodeId)> = (0..8).map(|k| (0, 10 + 15 * k)).collect();
    edges.extend((0..40).map(|k| (1, 5 + 37 * k)));
    let graph = Csr::from_edges(1600, &edges);
    for base in [CgrConfig::unsegmented(), CgrConfig::paper_default()] {
        let cfg = CgrConfig {
            code: Code::Gamma,
            ..base.with_ref_window(4)
        };
        let carrier = CgrGraph::encode(&graph, &cfg);
        let mut node = BitWriter::new();
        if cfg.segment_len_bytes.is_none() {
            cfg.write_count(&mut node, 40); // degNum
        }
        cfg.write_ref_offset(&mut node, 1);
        cfg.write_count(&mut node, 2); // blockNum
        cfg.write_block_len(&mut node, 1 << 63);
        cfg.write_block_len(&mut node, 1 << 63);
        let node = node.into_bitvec();
        let (start, end) = carrier.node_range(1);
        assert!(node.len() <= end - start, "the carrier must hold it");
        let mut image = Image::of(&carrier);
        image.overwrite(start, &node);
        assert_eq!(accepted_implies_safe(&image), Ok(()));
        let err = CgrGraph::from_bytes_with(&image.bytes, ValidationMode::Eager).unwrap_err();
        assert!(err.to_string().contains("copy blocks span"), "{err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn mutated_images_are_refused_or_decode_identically_everywhere(
        shape in (0u64..1_000, 0usize..2, 0u32..2, 0usize..2, 0usize..2),
        flips in proptest::collection::vec(0usize..1 << 20, 0..4),
        codeword in (0usize..1 << 20, 1u64..5_000),
    ) {
        let (graph_seed, layout, refs, code, intervals) = shape;
        let code = [Code::Gamma, Code::Zeta(3)][code];
        let cfg = CgrConfig {
            code,
            // `None` is Figure 12's `inf`: a legal header under which any
            // non-zero `itvNum` is corruption.
            min_interval_len: [Some(4), None][intervals],
            ..[CgrConfig::paper_default(), CgrConfig::unsegmented()][layout].with_ref_window(4 * refs)
        };
        let graph = web_graph(&WebParams::uk2002_like(48), graph_seed);
        let cgr = CgrGraph::encode(&graph, &cfg);
        let mut image = Image::of(&cgr);
        prop_assert_eq!(accepted_implies_safe(&image), Ok(())); // the unmutated encode
        prop_assert!(image.payload_bits > 0);
        // One to three bit flips, or — with none drawn — one overwritten
        // codeword.
        if flips.is_empty() {
            let (pos, value) = codeword;
            let mut w = BitWriter::new();
            code.encode(&mut w, value);
            image.overwrite(pos % image.payload_bits, &w.into_bitvec());
        }
        for b in flips {
            image.flip(b % image.payload_bits);
        }
        prop_assert_eq!(accepted_implies_safe(&image), Ok(()));
    }
}
