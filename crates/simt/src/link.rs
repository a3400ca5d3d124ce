//! The α–β link model: every modeled transfer costs bandwidth time plus
//! one setup latency per message (Section 3.2 / Appendix A).
//!
//! Two links are priced this way. The **host link** moves the structure to
//! the device: the paper's second argument for CGR is that "even when the
//! compressed graph cannot entirely reside in the device memory, CGR
//! reduces the PCIe transfer cost since we can directly move the compressed
//! adjacency lists to GPUs", and Appendix A puts host↔device bandwidth
//! "typically below 16 GB per second" — one to two orders below
//! device-memory bandwidth, so transfer time scales almost linearly with
//! the compression rate. [`HOST_LINK`] is that link; it is not
//! configurable. The **interconnect** carries a sharded traversal's
//! frontier-bitmap exchange between devices, over NVLink-class peer links
//! ([`Link::nvlink`]) or PCIe peer-to-peer ([`Link::pcie3`], the host-link
//! numbers). At bitmap sizes (~1 KB) the per-message term dominates: 2 µs
//! of NVLink setup against ~25 ns of wire time.
//!
//! The host link also serves **zero-copy reads** ([`Link::read_through_ms`]):
//! a kernel fetching single 128-byte lines of host memory pays no DMA setup,
//! only a PCIe read round trip ([`ZERO_COPY_RTT_US`]), and keeps up to
//! [`ZERO_COPY_IN_FLIGHT`] reads outstanding, so by Little's law a batch of
//! independent lines costs the larger of its wire time and its round trips
//! divided by the requests in flight.

use crate::mem::LINE_BYTES;

/// One link's parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// Sustained bandwidth in GB/s (10⁹ bytes per second).
    pub bandwidth_gb_s: f64,
    /// Per-message setup latency in microseconds.
    pub latency_us: f64,
}

/// The host↔device link every upload and streamed partition crosses.
pub const HOST_LINK: Link = Link::pcie3();

/// Round trip of one zero-copy PCIe read, in microseconds: request out,
/// completion back, no DMA descriptor — well below the 10 µs setup
/// [`HOST_LINK`] charges per transfer.
pub const ZERO_COPY_RTT_US: f64 = 2.0;

/// Zero-copy reads outstanding at once: PCIe's default 5-bit tag field,
/// i.e. 32 in flight without extended tags.
pub const ZERO_COPY_IN_FLIGHT: usize = 32;

impl Link {
    /// PCIe 3.0 x16: ~12 GB/s effective, ~10 µs per transfer.
    pub const fn pcie3() -> Self {
        Self {
            bandwidth_gb_s: 12.0,
            latency_us: 10.0,
        }
    }

    /// NVLink 2.0-class peer link: ~40 GB/s effective per direction, ~2 µs
    /// message setup — what a multi-GPU node of the paper's era (DGX-style
    /// TITAN V / V100 boxes) exchanges over.
    pub const fn nvlink() -> Self {
        Self {
            bandwidth_gb_s: 40.0,
            latency_us: 2.0,
        }
    }

    /// Milliseconds to move `bytes` across the link in `messages`
    /// transfers: `bytes / bandwidth + messages × latency`.
    ///
    /// Every message pays one setup latency, so splitting a transfer never
    /// makes it cheaper. Callers pass zero messages exactly when they pass
    /// zero bytes, so sending nothing costs nothing.
    pub fn ms(&self, bytes: usize, messages: usize) -> f64 {
        bytes as f64 / (self.bandwidth_gb_s * 1e9) * 1e3 + messages as f64 * self.latency_us / 1e3
    }

    /// Milliseconds to read `lines` independent 128-byte lines of host
    /// memory as zero-copy requests, in `rounds` dependent round trips:
    ///
    /// `rounds × RTT + max(lines·128 / bandwidth, lines × RTT / in_flight)`
    ///
    /// with [`ZERO_COPY_RTT_US`] and [`ZERO_COPY_IN_FLIGHT`]. Each round
    /// waits for the one before (an index entry before the payload it
    /// bounds); within a round the lines stream at whichever of bandwidth
    /// and request concurrency binds. Callers pass zero rounds exactly when
    /// they pass zero lines.
    pub fn read_through_ms(&self, lines: usize, rounds: usize) -> f64 {
        let wire = self.ms(lines * LINE_BYTES as usize, 0);
        let requests = lines as f64 * ZERO_COPY_RTT_US / ZERO_COPY_IN_FLIGHT as f64 / 1e3;
        rounds as f64 * ZERO_COPY_RTT_US / 1e3 + wire.max(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, proptest, ProptestConfig};

    #[test]
    fn formula_is_bandwidth_plus_per_message_latency() {
        // bytes / (GB/s · 1e9) in ms, plus messages × latency_us / 1e3.
        let ms = Link::pcie3().ms(3_000_000_000, 4);
        let want: f64 = 3_000_000_000.0 / (12.0 * 1e9) * 1e3 + 4.0 * 10.0 / 1e3;
        assert_eq!(ms.to_bits(), want.to_bits());
        assert!((want - 250.04).abs() < 1e-9);
        let ms = Link::nvlink().ms(2_000_000_000, 6);
        let want: f64 = 2_000_000_000.0 / (40.0 * 1e9) * 1e3 + 6.0 * 2.0 / 1e3;
        assert_eq!(ms.to_bits(), want.to_bits());
        assert!((want - 50.012).abs() < 1e-9);
    }

    #[test]
    fn sending_nothing_costs_nothing() {
        assert_eq!(HOST_LINK.ms(0, 0), 0.0);
        assert_eq!(Link::nvlink().ms(0, 0), 0.0);
    }

    #[test]
    fn messages_pay_latency_each() {
        for link in [Link::pcie3(), Link::nvlink()] {
            let one = link.ms(1 << 20, 1);
            let many = link.ms(1 << 20, 100);
            assert!(many > one + 99.0 * link.latency_us / 1e3 - 1e-12);
        }
    }

    #[test]
    fn cost_is_additive_over_equal_messages() {
        // One 2-message transfer equals two 1-message transfers of half the
        // bytes, so a schedule's total is independent of how it is split
        // between senders.
        let link = Link::nvlink();
        let two = link.ms(8192, 2);
        let split = link.ms(4096, 1) + link.ms(4096, 1);
        assert!((two - split).abs() < 1e-12);
    }

    #[test]
    fn read_through_is_round_trips_plus_the_binding_stream_term() {
        // On the host link request concurrency binds: 2 µs / 32 = 62.5 ns
        // per line against 10.7 ns of wire time, so 64 lines cost 4 µs.
        let ms = HOST_LINK.read_through_ms(64, 3);
        let want: f64 = 3.0 * 2.0 / 1e3 + 64.0 * 2.0 / 32.0 / 1e3;
        assert_eq!(ms.to_bits(), want.to_bits());
        // Below 2.048 GB/s a line's wire time exceeds that, and the
        // bandwidth term binds instead.
        let narrow = Link {
            bandwidth_gb_s: 1.0,
            ..HOST_LINK
        };
        let ms = narrow.read_through_ms(64, 2);
        let want = 2.0 * 2.0 / 1e3 + narrow.ms(64 * 128, 0);
        assert_eq!(ms.to_bits(), want.to_bits());
        assert_eq!(HOST_LINK.read_through_ms(0, 0), 0.0);
    }

    #[test]
    fn a_few_lines_read_through_cheaper_than_one_upload() {
        // One index line and one payload line cost two round trips plus a
        // sixteenth of one: far below a single transfer's 10 µs setup.
        assert!(HOST_LINK.read_through_ms(2, 2) < HOST_LINK.ms(2 * 128, 1));
    }

    #[test]
    fn nvlink_is_cheaper_than_pcie3() {
        let bytes = 64 << 20;
        let nv = Link::nvlink().ms(bytes, 12);
        let pcie = Link::pcie3().ms(bytes, 12);
        assert!(nv < pcie, "nvlink {nv} vs pcie {pcie}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Raising the latency, lowering the bandwidth, or moving more bytes
        /// or messages never makes a transfer cheaper.
        #[test]
        fn a_dearer_link_or_a_bigger_transfer_never_prices_cheaper(
            link in (1u32..10_000, 0u32..100_000),
            transfer in (0usize..1 << 40, 0usize..100_000),
            more in (1usize..1 << 30, 1usize..1_000),
            factor in 101u32..1_000,
        ) {
            let dearer = f64::from(factor) / 100.0;
            let link = Link {
                bandwidth_gb_s: f64::from(link.0) / 100.0,
                latency_us: f64::from(link.1) / 1_000.0,
            };
            let (bytes, messages) = transfer;
            let base = link.ms(bytes, messages);
            let slower = Link { latency_us: link.latency_us * dearer + 0.001, ..link };
            let narrower = Link { bandwidth_gb_s: link.bandwidth_gb_s / dearer, ..link };
            for (knob, priced) in [
                ("latency_us", slower.ms(bytes, messages)),
                ("bandwidth_gb_s", narrower.ms(bytes, messages)),
                ("bytes", link.ms(bytes + more.0, messages)),
                ("messages", link.ms(bytes, messages + more.1)),
            ] {
                prop_assert!(priced >= base, "{knob}: {priced} ms < {base} ms");
            }
        }

        /// More lines, more rounds or a narrower link never make a
        /// read-through cheaper.
        #[test]
        fn a_bigger_read_through_never_prices_cheaper(
            lines in 0usize..1 << 24,
            rounds in 0usize..64,
            more in (1usize..1 << 20, 1usize..16),
            bandwidth in 1u32..10_000,
        ) {
            let link = Link { bandwidth_gb_s: f64::from(bandwidth) / 100.0, ..HOST_LINK };
            let base = link.read_through_ms(lines, rounds);
            let narrower = Link { bandwidth_gb_s: link.bandwidth_gb_s / 2.0, ..link };
            for (knob, priced) in [
                ("lines", link.read_through_ms(lines + more.0, rounds)),
                ("rounds", link.read_through_ms(lines, rounds + more.1)),
                ("bandwidth_gb_s", narrower.read_through_ms(lines, rounds)),
            ] {
                prop_assert!(priced >= base, "{knob}: {priced} ms < {base} ms");
            }
        }
    }
}
