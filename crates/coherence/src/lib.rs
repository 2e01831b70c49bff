//! Trace-driven MESI cache-coherence simulation (the paper's SMPCache
//! substitute, §2.3 / Figure 3).
//!
//! The paper evaluates whether per-processor coherent caches could serve
//! the NIC's frame metadata: it feeds per-requester metadata access
//! traces from a 6-core line-rate run into a trace-driven simulator with
//! fully-associative, LRU, 16-byte-line caches under MESI, sweeping the
//! per-processor capacity from 16 bytes to 32 KB. The result — the
//! collective hit ratio "never goes above 55 %", with fewer than 1 % of
//! writes causing invalidations — motivates the scratchpad instead.
//!
//! This crate reimplements that experiment: [`MesiSim`] replays an
//! access trace against one private cache per requester, maintaining a
//! directory of sharers, and reports hit ratios and invalidation counts.

#![forbid(unsafe_code)]

use std::collections::HashMap;

/// Cache line coherence state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Modified: exclusive and dirty.
    Modified,
    /// Exclusive: sole copy, clean.
    Exclusive,
    /// Shared: possibly other copies.
    Shared,
}

/// One access of a replayed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Which private cache (requester) performs the access.
    pub requester: usize,
    /// Byte address.
    pub addr: u64,
    /// Whether the access writes (RMW operations count as writes).
    pub write: bool,
}

/// Aggregate results of a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoherenceStats {
    /// Total accesses replayed.
    pub accesses: u64,
    /// Accesses that hit in the requester's private cache.
    pub hits: u64,
    /// Write accesses.
    pub writes: u64,
    /// Write accesses that invalidated a copy in another cache.
    pub invalidating_writes: u64,
    /// Total line invalidations performed.
    pub invalidations: u64,
}

impl CoherenceStats {
    /// The collective hit ratio in percent (Figure 3's y-axis).
    pub fn hit_ratio_percent(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.hits as f64 * 100.0 / self.accesses as f64
    }

    /// Fraction of writes that caused an invalidation elsewhere.
    pub fn invalidating_write_fraction(&self) -> f64 {
        if self.writes == 0 {
            return 0.0;
        }
        self.invalidating_writes as f64 / self.writes as f64
    }
}

/// A fully-associative cache with true-LRU replacement.
#[derive(Debug)]
struct Cache {
    /// line -> (state, last-use stamp)
    lines: HashMap<u64, (State, u64)>,
    capacity_lines: usize,
}

impl Cache {
    fn new(capacity_lines: usize) -> Cache {
        Cache {
            lines: HashMap::new(),
            capacity_lines,
        }
    }

    fn evict_lru(&mut self) -> Option<u64> {
        let victim = self
            .lines
            .iter()
            .min_by_key(|(_, (_, stamp))| *stamp)
            .map(|(line, _)| *line)?;
        self.lines.remove(&victim);
        Some(victim)
    }
}

/// The multi-cache MESI simulator.
#[derive(Debug)]
pub struct MesiSim {
    caches: Vec<Cache>,
    /// Directory: line -> bitmask of caches holding it.
    directory: HashMap<u64, u32>,
    line_bytes: u64,
    clock: u64,
    stats: CoherenceStats,
}

impl MesiSim {
    /// Create `n_caches` private caches of `capacity_bytes` each with
    /// `line_bytes` lines (paper: 16-byte lines to minimize false
    /// sharing; capacities 16 B – 32 KB).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is smaller than one line, the line size is
    /// zero, or more than 32 caches are requested.
    pub fn new(n_caches: usize, capacity_bytes: usize, line_bytes: usize) -> MesiSim {
        assert!(line_bytes > 0, "line size must be nonzero");
        assert!(capacity_bytes >= line_bytes, "capacity below one line");
        assert!(n_caches <= 32, "directory bitmask holds at most 32 caches");
        MesiSim {
            caches: (0..n_caches)
                .map(|_| Cache::new(capacity_bytes / line_bytes))
                .collect(),
            directory: HashMap::new(),
            line_bytes: line_bytes as u64,
            clock: 0,
            stats: CoherenceStats::default(),
        }
    }

    /// Results so far.
    pub fn stats(&self) -> CoherenceStats {
        self.stats
    }

    fn drop_line(&mut self, cache: usize, line: u64) {
        if let Some(mask) = self.directory.get_mut(&line) {
            *mask &= !(1 << cache);
            if *mask == 0 {
                self.directory.remove(&line);
            }
        }
    }

    /// Invalidate `line` everywhere except `keep`; returns how many
    /// copies were invalidated.
    fn invalidate_others(&mut self, line: u64, keep: usize) -> u64 {
        let mask = self.directory.get(&line).copied().unwrap_or(0);
        let mut n = 0;
        for c in 0..self.caches.len() {
            if c != keep && mask & (1 << c) != 0 {
                self.caches[c].lines.remove(&line);
                self.drop_line(c, line);
                n += 1;
            }
        }
        n
    }

    /// Downgrade other caches' copies of `line` to Shared.
    fn downgrade_others(&mut self, line: u64, except: usize) {
        let mask = self.directory.get(&line).copied().unwrap_or(0);
        for c in 0..self.caches.len() {
            if c != except && mask & (1 << c) != 0 {
                if let Some((st, _)) = self.caches[c].lines.get_mut(&line) {
                    *st = State::Shared;
                }
            }
        }
    }

    fn others_have(&self, line: u64, except: usize) -> bool {
        let mask = self.directory.get(&line).copied().unwrap_or(0);
        mask & !(1u32 << except) != 0
    }

    fn install(&mut self, cache: usize, line: u64, state: State) {
        self.clock += 1;
        if self.caches[cache].lines.len() >= self.caches[cache].capacity_lines {
            if let Some(victim) = self.caches[cache].evict_lru() {
                self.drop_line(cache, victim);
            }
        }
        let stamp = self.clock;
        self.caches[cache].lines.insert(line, (state, stamp));
        *self.directory.entry(line).or_insert(0) |= 1 << cache;
    }

    /// Replay one access.
    pub fn access(&mut self, a: Access) {
        self.clock += 1;
        self.stats.accesses += 1;
        if a.write {
            self.stats.writes += 1;
        }
        let line = a.addr / self.line_bytes;
        let cache = a.requester;
        let hit_state = self.caches[cache].lines.get(&line).map(|(s, _)| *s);
        match (hit_state, a.write) {
            (Some(_), false) => {
                self.stats.hits += 1;
                let stamp = self.clock;
                self.caches[cache].lines.get_mut(&line).unwrap().1 = stamp;
            }
            (Some(state), true) => {
                self.stats.hits += 1;
                if state == State::Shared {
                    let n = self.invalidate_others(line, cache);
                    if n > 0 {
                        self.stats.invalidating_writes += 1;
                        self.stats.invalidations += n;
                    }
                }
                let stamp = self.clock;
                let e = self.caches[cache].lines.get_mut(&line).unwrap();
                e.0 = State::Modified;
                e.1 = stamp;
            }
            (None, false) => {
                let shared = self.others_have(line, cache);
                if shared {
                    self.downgrade_others(line, cache);
                }
                let st = if shared {
                    State::Shared
                } else {
                    State::Exclusive
                };
                self.install(cache, line, st);
            }
            (None, true) => {
                let n = self.invalidate_others(line, cache);
                if n > 0 {
                    self.stats.invalidating_writes += 1;
                    self.stats.invalidations += n;
                }
                self.install(cache, line, State::Modified);
            }
        }
    }

    /// Replay a whole trace.
    pub fn run<'a>(&mut self, trace: impl IntoIterator<Item = &'a Access>) -> CoherenceStats {
        for a in trace {
            self.access(*a);
        }
        self.stats
    }
}

/// Sweep per-processor cache sizes over a trace, reproducing the
/// Figure 3 curve. Returns one
/// `(size_bytes, hit_ratio_percent, invalidating_write_fraction)` tuple
/// per size.
pub fn sweep_sizes(
    n_caches: usize,
    line_bytes: usize,
    sizes: &[usize],
    trace: &[Access],
) -> Vec<(usize, f64, f64)> {
    sizes
        .iter()
        .map(|&size| {
            let mut sim = MesiSim::new(n_caches, size, line_bytes);
            let s = sim.run(trace);
            (size, s.hit_ratio_percent(), s.invalidating_write_fraction())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rd(req: usize, addr: u64) -> Access {
        Access {
            requester: req,
            addr,
            write: false,
        }
    }

    fn wr(req: usize, addr: u64) -> Access {
        Access {
            requester: req,
            addr,
            write: true,
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut sim = MesiSim::new(2, 256, 16);
        sim.access(rd(0, 0x100));
        sim.access(rd(0, 0x104)); // same 16B line
        let s = sim.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn exclusive_then_shared_states() {
        let mut sim = MesiSim::new(2, 256, 16);
        sim.access(rd(0, 0x40));
        assert_eq!(sim.caches[0].lines[&4].0, State::Exclusive);
        sim.access(rd(1, 0x40));
        assert_eq!(sim.caches[0].lines[&4].0, State::Shared);
        assert_eq!(sim.caches[1].lines[&4].0, State::Shared);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut sim = MesiSim::new(3, 256, 16);
        sim.access(rd(0, 0x80));
        sim.access(rd(1, 0x80));
        sim.access(rd(2, 0x80));
        sim.access(wr(0, 0x80));
        let s = sim.stats();
        assert_eq!(s.invalidating_writes, 1);
        assert_eq!(s.invalidations, 2);
        assert!(!sim.caches[1].lines.contains_key(&8));
        assert!(!sim.caches[2].lines.contains_key(&8));
        assert_eq!(sim.caches[0].lines[&8].0, State::Modified);
    }

    #[test]
    fn write_miss_invalidates_and_installs_modified() {
        let mut sim = MesiSim::new(2, 256, 16);
        sim.access(rd(1, 0x200));
        sim.access(wr(0, 0x200));
        assert_eq!(sim.stats().invalidations, 1);
        assert_eq!(sim.caches[0].lines[&0x20].0, State::Modified);
        assert!(!sim.caches[1].lines.contains_key(&0x20));
    }

    #[test]
    fn silent_exclusive_to_modified() {
        let mut sim = MesiSim::new(2, 256, 16);
        sim.access(rd(0, 0x300));
        sim.access(wr(0, 0x300));
        let s = sim.stats();
        assert_eq!(s.invalidations, 0, "E->M is silent");
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn lru_eviction_order() {
        // Two-line cache: 32B capacity, 16B lines.
        let mut sim = MesiSim::new(1, 32, 16);
        sim.access(rd(0, 0x00));
        sim.access(rd(0, 0x10));
        sim.access(rd(0, 0x00)); // touch line 0: line 1 is now LRU
        sim.access(rd(0, 0x20)); // evicts line 1
        sim.access(rd(0, 0x00));
        let s = sim.stats();
        // Hits: third access (line 0) and fifth access (line 0 kept).
        assert_eq!(s.hits, 2);
        assert!(!sim.caches[0].lines.contains_key(&1));
    }

    #[test]
    fn directory_consistent_after_eviction() {
        let mut sim = MesiSim::new(2, 16, 16); // single-line caches
        sim.access(rd(0, 0x00));
        sim.access(rd(0, 0x10)); // evicts line 0 from cache 0
        sim.access(wr(1, 0x00)); // must not count an invalidation
        assert_eq!(sim.stats().invalidations, 0);
    }

    #[test]
    fn streaming_trace_has_low_hit_ratio() {
        // The paper's core result in miniature: a migratory
        // producer-consumer pattern with little reuse defeats caching.
        let mut trace = Vec::new();
        for i in 0..4000u64 {
            let addr = (i % 2000) * 16; // large footprint, single touch
            trace.push(wr((i % 4) as usize, addr));
            trace.push(rd(((i + 1) % 4) as usize, addr));
        }
        let mut sim = MesiSim::new(4, 1024, 16);
        let s = sim.run(&trace);
        assert!(
            s.hit_ratio_percent() < 55.0,
            "hit ratio {:.1}% should stay under the paper's 55% ceiling",
            s.hit_ratio_percent()
        );
    }

    #[test]
    fn sweep_is_monotonic_for_reuse_traces() {
        let mut trace = Vec::new();
        for _rep in 0..20u64 {
            for i in 0..512u64 {
                trace.push(rd(0, i * 16));
            }
        }
        let pts = sweep_sizes(1, 16, &[64, 1024, 8192, 16384], &trace);
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1, "bigger cache can't hit less: {pts:?}");
        }
        // At 16 KB the 8 KB working set fits: near-perfect after warm-up.
        assert!(pts[3].1 > 90.0);
    }

    #[test]
    #[should_panic(expected = "capacity below one line")]
    fn rejects_capacity_below_line() {
        let _ = MesiSim::new(1, 8, 16);
    }
}
