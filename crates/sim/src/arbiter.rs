//! Round-robin arbitration.
//!
//! The paper's crossbar "allows one transaction to each scratchpad bank and
//! to the external memory bus interface per cycle with round-robin
//! arbitration for each resource" (§4), and the frame bus round-robins
//! among the four assist streams. This helper owns the rotating priority
//! pointer for one such resource.

/// Round-robin arbiter over `n` requesters for a single resource.
///
/// Each call to [`RoundRobin::grant`] picks the requesting index closest
/// (cyclically) after the previous winner, so every requester is served
/// within `n` grants of asserting its request.
///
/// # Example
///
/// ```
/// use nicsim_sim::RoundRobin;
///
/// let mut rr = RoundRobin::new(3);
/// assert_eq!(rr.grant(|i| i != 1), Some(0));
/// assert_eq!(rr.grant(|i| i != 1), Some(2));
/// assert_eq!(rr.grant(|i| i != 1), Some(0));
/// assert_eq!(rr.grant(|_| false), None);
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobin {
    n: usize,
    last: usize,
}

impl RoundRobin {
    /// Create an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> RoundRobin {
        assert!(n > 0, "arbiter needs at least one requester");
        RoundRobin { n, last: n - 1 }
    }

    /// Grant to the first requester (in rotating order after the previous
    /// winner) for which `requesting(i)` is true. Returns the winner, or
    /// `None` when nobody is requesting. The priority pointer only advances
    /// on a successful grant.
    pub fn grant(&mut self, mut requesting: impl FnMut(usize) -> bool) -> Option<usize> {
        for off in 1..=self.n {
            let i = (self.last + off) % self.n;
            if requesting(i) {
                self.last = i;
                return Some(i);
            }
        }
        None
    }

    /// [`RoundRobin::grant`] over a request bitmask (bit `i` set means
    /// requester `i` is requesting): the first set bit after the previous
    /// winner, wrapping. Same winner and same pointer movement as
    /// `grant(|i| mask >> i & 1 != 0)`, in two bit operations instead of
    /// a scan. Arbiters over more than 64 requesters cannot use it.
    #[inline]
    pub fn grant_mask(&mut self, mask: u64) -> Option<usize> {
        debug_assert!(self.n <= 64 && (self.n == 64 || mask >> self.n == 0));
        if mask == 0 {
            return None;
        }
        let above = mask & ((u64::MAX << self.last) << 1);
        let pick = if above != 0 { above } else { mask };
        self.last = pick.trailing_zeros() as usize;
        Some(self.last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_rotation_among_all() {
        let mut rr = RoundRobin::new(4);
        let wins: Vec<_> = (0..8).map(|_| rr.grant(|_| true).unwrap()).collect();
        assert_eq!(wins, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn skips_idle_requesters() {
        let mut rr = RoundRobin::new(4);
        // Only 1 and 3 request.
        let wins: Vec<_> = (0..4)
            .map(|_| rr.grant(|i| i == 1 || i == 3).unwrap())
            .collect();
        assert_eq!(wins, vec![1, 3, 1, 3]);
    }

    #[test]
    fn none_when_idle() {
        let mut rr = RoundRobin::new(2);
        assert_eq!(rr.grant(|_| false), None);
        // Pointer unchanged: next grant still starts at 0.
        assert_eq!(rr.grant(|_| true), Some(0));
    }

    #[test]
    fn single_requester() {
        let mut rr = RoundRobin::new(1);
        assert_eq!(rr.grant(|_| true), Some(0));
        assert_eq!(rr.grant(|_| true), Some(0));
    }

    #[test]
    fn grant_mask_matches_grant_on_every_mask() {
        // Every (pointer position, mask) pair of a 5-requester arbiter.
        for last in 0..5 {
            for mask in 0..32u64 {
                let (mut scan, mut bits) = (RoundRobin::new(5), RoundRobin::new(5));
                assert_eq!(scan.grant(|i| i == last), Some(last));
                assert_eq!(bits.grant_mask(1 << last), Some(last));
                let want = scan.grant(|i| mask >> i & 1 != 0);
                assert_eq!(bits.grant_mask(mask), want, "last {last} mask {mask:#b}");
                // The pointer moved alike: the next full round agrees.
                assert_eq!(bits.grant_mask(31), scan.grant(|_| true));
            }
        }
        // The 64-requester edge: the pointer at bit 63 wraps to bit 0.
        let mut rr = RoundRobin::new(64);
        assert_eq!(rr.grant_mask(1 << 63 | 1), Some(0));
        assert_eq!(rr.grant_mask(1 << 63 | 1), Some(63));
        assert_eq!(rr.grant_mask(1 << 63 | 1), Some(0));
    }

    #[test]
    fn starvation_freedom_bound() {
        // Any continuously-requesting index is served within n grants.
        let mut rr = RoundRobin::new(5);
        for target in 0..5usize {
            let mut waited = 0;
            loop {
                let w = rr.grant(|_| true).unwrap();
                if w == target {
                    break;
                }
                waited += 1;
                assert!(waited < 5, "requester {target} starved");
            }
        }
    }
}
