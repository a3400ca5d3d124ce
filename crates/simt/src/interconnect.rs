//! Device↔device interconnect model for sharded multi-GPU traversal.
//!
//! When the compressed graph is partitioned across several modeled devices,
//! each bulk-synchronous step ends with an exchange of boundary frontier
//! bitmaps: every shard that discovered nodes owned by another shard owes
//! that owner a dense bitmap segment over the owner's vertex range. How the
//! segments travel is the sharded engine's business (it merges them into a
//! log-depth schedule of a few larger messages instead of one message per
//! pair); this module only prices the result — `bytes` moved in `messages`
//! transfers. The cost follows the same latency/bandwidth (α–β) shape as the
//! host-link [`crate::PcieConfig`], with parameters for the two link classes
//! that matter in practice — NVLink-class peer links (tens of GB/s, ~2 µs
//! setup) and PCIe peer-to-peer (the host-link numbers). At bitmap sizes
//! (~1 KB) the per-message term dominates: 2 µs of setup against ~25 ns of
//! wire time.

/// Device↔device link parameters for the sharded frontier exchange.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InterconnectConfig {
    /// Sustained per-link bandwidth in GB/s (10⁹ bytes per second).
    pub bandwidth_gb_s: f64,
    /// Per-message setup latency in microseconds — every device-to-device
    /// message pays one, however many bitmap segments it carries.
    pub latency_us: f64,
}

impl Default for InterconnectConfig {
    /// NVLink-class peer links — the configuration a multi-GPU node of the
    /// paper's era (DGX-style TITAN V / V100 boxes) would exchange over.
    fn default() -> Self {
        Self::nvlink()
    }
}

impl InterconnectConfig {
    /// NVLink 2.0-class peer link: ~40 GB/s effective per direction, ~2 µs
    /// message setup.
    pub fn nvlink() -> Self {
        Self {
            bandwidth_gb_s: 40.0,
            latency_us: 2.0,
        }
    }

    /// PCIe 3.0 x16 peer-to-peer: the same effective numbers as the default
    /// host link ([`crate::PcieConfig::default`]) — what sharding costs
    /// without a dedicated GPU fabric.
    pub fn pcie3() -> Self {
        Self {
            bandwidth_gb_s: 12.0,
            latency_us: 10.0,
        }
    }

    /// Milliseconds to exchange `bytes` of boundary bitmaps in `messages`
    /// shard-to-shard transfers.
    ///
    /// The model is `bytes / bandwidth + messages × latency`, with `bytes`
    /// in bytes, `bandwidth_gb_s` in 10⁹ bytes per second, `latency_us` in
    /// microseconds per message, and the result in **milliseconds** — the
    /// same formula (and units) as [`crate::PcieConfig::transfer_ms`], so
    /// exchange and host-link time compare directly.
    ///
    /// A step with nothing to say costs nothing: `messages == 0` or
    /// `bytes == 0` returns 0 — shards that discovered no remote nodes send
    /// no bitmap.
    pub fn exchange_ms(&self, bytes: usize, messages: usize) -> f64 {
        if messages == 0 || bytes == 0 {
            return 0.0;
        }
        bytes as f64 / (self.bandwidth_gb_s * 1e9) * 1e3 + messages as f64 * self.latency_us / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PcieConfig;

    #[test]
    fn formula_is_bandwidth_plus_per_message_latency() {
        // Pin the exact formula, mirroring the PcieConfig::transfer_ms pin:
        // bytes / (GB/s · 1e9) in ms, plus messages × latency_us / 1e3.
        let link = InterconnectConfig {
            bandwidth_gb_s: 40.0,
            latency_us: 2.0,
        };
        let ms = link.exchange_ms(2_000_000_000, 6);
        let want = 2_000_000_000.0 / (40.0 * 1e9) * 1e3 + 6.0 * 2.0 / 1e3;
        assert!((ms - want).abs() < 1e-12, "{ms} vs {want}");
        assert!((want - 50.012).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_means_no_exchange() {
        let link = InterconnectConfig::default();
        assert_eq!(link.exchange_ms(0, 0), 0.0);
        assert_eq!(link.exchange_ms(0, 5), 0.0);
    }

    #[test]
    fn zero_messages_means_no_exchange() {
        let link = InterconnectConfig::default();
        assert_eq!(link.exchange_ms(12 << 30, 0), 0.0);
    }

    #[test]
    fn cost_is_symmetric_in_the_pair_direction() {
        // The model has no notion of which shard sends: i→j and j→i with
        // the same bitmap size cost the same, so the all-to-all total is
        // independent of exchange orientation.
        let link = InterconnectConfig::nvlink();
        assert_eq!(
            link.exchange_ms(4096, 1).to_bits(),
            link.exchange_ms(4096, 1).to_bits()
        );
        // And it is additive over messages of equal size: one 2-message
        // exchange equals two 1-message exchanges of half the bytes.
        let two = link.exchange_ms(8192, 2);
        let split = link.exchange_ms(4096, 1) + link.exchange_ms(4096, 1);
        assert!((two - split).abs() < 1e-12);
    }

    #[test]
    fn messages_pay_latency_each() {
        let link = InterconnectConfig::default();
        let one = link.exchange_ms(1 << 20, 1);
        let many = link.exchange_ms(1 << 20, 100);
        assert!(many > one + 99.0 * link.latency_us / 1e3 - 1e-12);
    }

    #[test]
    fn nvlink_is_cheaper_than_pcie_peer_links() {
        let bytes = 64 << 20;
        let nv = InterconnectConfig::nvlink().exchange_ms(bytes, 12);
        let pcie = InterconnectConfig::pcie3().exchange_ms(bytes, 12);
        assert!(nv < pcie, "nvlink {nv} vs pcie {pcie}");
        // The pcie3 profile really is the host-link profile.
        let host = PcieConfig::default().transfer_ms(bytes, 12);
        assert!((pcie - host).abs() < 1e-12);
    }
}
