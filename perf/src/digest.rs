//! `sim_digest`: one number that a simulator-only change must leave
//! unchanged. FNV-1a over every NIC's `RunStats::summary()` rows (name
//! bytes, then the value's bits) and, for fleets, the fabric's own
//! order-sensitive delivery digest.

use nicsim::{RunStats, StatValue};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn stats(&mut self, s: &RunStats) {
        for (name, value) in s.summary() {
            self.bytes(name.as_bytes());
            self.u64(match value {
                StatValue::Int(v) => v,
                StatValue::Float(v) => v.to_bits(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nicsim_cpu::CoreProfile;
    use nicsim_sim::Ps;

    fn fixed() -> RunStats {
        RunStats {
            window: Ps(1_000_000),
            cores: 6,
            cpu_mhz: 166,
            tx_frames: 100,
            rx_frames: 200,
            tx_udp_gbps: 3.5,
            rx_udp_gbps: 4.5,
            rx_mac_drops: 1,
            tx_errors: 0,
            rx_corrupt: 0,
            rx_out_of_order: 0,
            profile: CoreProfile::new(),
            core_ticks: 1000,
            core_sp_accesses: 42,
            assist_sp_accesses: 24,
            scratchpad_gbps: 1.25,
            instr_mem_gbps: 0.5,
            instr_mem_utilization: 0.1,
            frame_mem_gbps: 9.0,
            frame_mem_wasted_bytes: 8,
            frame_mem_mean_latency: Ps(123),
            frame_mem_max_latency: Ps(456),
            icache_hits: 900,
            icache_misses: 100,
            errors: None,
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut a = Fnv::default();
        a.stats(&fixed());
        let mut b = Fnv::default();
        b.stats(&fixed());
        assert_eq!(a, b, "same stats, same digest");
        // Pinned: a change here means the digest of every committed
        // result changed meaning.
        assert_eq!(a.0, PINNED);
        let mut changed = fixed();
        changed.rx_frames += 1;
        let mut c = Fnv::default();
        c.stats(&changed);
        assert_ne!(a, c, "one more frame must change the digest");
    }

    const PINNED: u64 = 0x2702_5c35_73f3_042b;
}
