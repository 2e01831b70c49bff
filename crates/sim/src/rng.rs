//! The workspace's one pseudo-random generator: xorshift64* streams
//! seeded through splitmix64, one independent stream per (seed, site).

/// splitmix64 — seeds the per-site streams from `seed ^ site`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xorshift64* — the workspace's standard dependency-free PRNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// A stream seeded for `site` under the master seed (never zero).
    pub fn for_site(seed: u64, site: u64) -> XorShift64 {
        let s = splitmix64(seed ^ site.wrapping_mul(0xa076_1d64_78bd_642f));
        XorShift64 {
            state: if s == 0 { 0x853c_49e6_748f_ea9b } else { s },
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// One Bernoulli draw with probability `p` (clamped to [0, 1]).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            // Still consume a draw so enabling a zero-rate fault class
            // does not shift the stream of the others at this site.
            self.next_u64();
            return false;
        }
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Uniform draw in `[0, n)` (`n` must be nonzero).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform draw in `(0, 1]` — the open-at-zero form heavy-tail
    /// inversions need (`u.powf(-1/alpha)` stays finite).
    #[inline]
    pub fn unit_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_streams_are_independent_and_reproducible() {
        let mut a = XorShift64::for_site(7, 1);
        let mut b = XorShift64::for_site(7, 1);
        let mut c = XorShift64::for_site(7, 2);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y, "same (seed, site) must replay");
        assert_ne!(x, z, "different sites must not correlate");
    }

    #[test]
    fn chance_respects_extremes() {
        let mut r = XorShift64::for_site(3, 4);
        for _ in 0..64 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
    }

    #[test]
    fn chance_tracks_probability_roughly() {
        let mut r = XorShift64::for_site(11, 1);
        let hits = (0..10_000).filter(|_| r.chance(0.1)).count();
        assert!((800..1200).contains(&hits), "hits = {hits}");
    }
}
