//! Per-core instruction caches and the shared instruction memory.
//!
//! Paper §4: "Instructions are stored in a single 128 KB instruction
//! memory which feeds per-processor instruction caches"; the evaluated
//! configuration uses 8 KB 2-way set-associative caches with 32-byte
//! lines, and the 128-bit instruction-memory interface is "unused almost
//! 97% of the time" (Table 4) because the firmware's code footprint is
//! small — a property this model reproduces.

use crate::div_rem;

/// Geometry of one per-core instruction cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ICacheConfig {
    /// Total capacity in bytes (paper: 8192).
    pub bytes: usize,
    /// Associativity (paper: 2).
    pub ways: usize,
    /// Line size in bytes (paper: 32).
    pub line_bytes: usize,
}

impl Default for ICacheConfig {
    fn default() -> Self {
        ICacheConfig {
            bytes: 8 * 1024,
            ways: 2,
            line_bytes: 32,
        }
    }
}

impl ICacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn sets(&self) -> usize {
        assert!(self.ways > 0 && self.line_bytes > 0);
        let sets = self.bytes / (self.ways * self.line_bytes);
        assert!(
            sets * self.ways * self.line_bytes == self.bytes && sets > 0,
            "icache geometry must divide evenly"
        );
        sets
    }

    /// The line byte address `addr` falls in and its offset within it.
    #[inline]
    pub fn line_of(&self, addr: u64) -> (u64, u64) {
        div_rem(addr, self.line_bytes as u64)
    }
}

/// A way that holds no line yet. No real tag reaches it: fetch addresses
/// stay inside the 128 KB instruction memory.
const EMPTY: u64 = u64::MAX;

/// One core's instruction cache (set-associative, true-LRU).
#[derive(Debug, Clone)]
pub struct ICache {
    cfg: ICacheConfig,
    sets: u64,
    /// `ways` consecutive tags per set, least-recently-used first (so
    /// empty ways lead and fill before anything is evicted).
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl ICache {
    /// Create an empty cache.
    pub fn new(cfg: ICacheConfig) -> ICache {
        let sets = cfg.sets();
        ICache {
            cfg,
            sets: sets as u64,
            tags: vec![EMPTY; sets * cfg.ways],
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    #[inline]
    pub fn config(&self) -> ICacheConfig {
        self.cfg
    }

    /// Look up the line containing byte address `addr`; returns `true` on
    /// hit. On miss the line is filled (victim = LRU way).
    pub fn access(&mut self, addr: u64) -> bool {
        let (line, _) = self.cfg.line_of(addr);
        let (tag, set_idx) = div_rem(line, self.sets);
        let first = set_idx as usize * self.cfg.ways;
        let set = &mut self.tags[first..first + self.cfg.ways];
        let hit = set.iter().position(|&t| t == tag);
        // Hit: move the way to the MRU end. Miss: the LRU way falls off
        // the front and the new line takes the MRU end.
        for way in hit.unwrap_or(0)..set.len() - 1 {
            set[way] = set[way + 1];
        }
        set[set.len() - 1] = tag;
        self.hits += u64::from(hit.is_some());
        self.misses += u64::from(hit.is_none());
        hit.is_some()
    }

    /// Hits since construction or [`ICache::reset_stats`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses since construction or [`ICache::reset_stats`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Zero the hit/miss counters (contents are kept).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

/// The shared 128 KB instruction memory with its 128-bit fill interface.
///
/// A line fill occupies the interface for `line_bytes / 16` cycles after a
/// fixed access latency; concurrent fills from different cores serialize
/// (single interface), which the requesting core sees as additional miss
/// stall cycles.
#[derive(Debug, Clone)]
pub struct InstrMemory {
    /// Fixed access latency in CPU cycles before data starts flowing.
    pub access_latency: u64,
    /// Bytes moved per interface cycle (128 bits = 16 bytes).
    pub bytes_per_cycle: u64,
    busy_until: u64,
    bytes_transferred: u64,
    busy_cycles: u64,
}

impl Default for InstrMemory {
    fn default() -> Self {
        InstrMemory {
            access_latency: 2,
            bytes_per_cycle: 16,
            busy_until: 0,
            bytes_transferred: 0,
            busy_cycles: 0,
        }
    }
}

impl InstrMemory {
    /// Create with the paper's parameters.
    pub fn new() -> InstrMemory {
        InstrMemory::default()
    }

    /// Service a line fill requested at CPU cycle `now`; returns the cycle
    /// at which the fill completes (the requesting core stalls until then).
    pub fn fill(&mut self, now: u64, line_bytes: u64) -> u64 {
        let start = now.max(self.busy_until);
        let beats = line_bytes.div_ceil(self.bytes_per_cycle);
        let done = start + self.access_latency + beats;
        self.busy_until = done;
        self.bytes_transferred += line_bytes;
        self.busy_cycles += self.access_latency + beats;
        done
    }

    /// Total bytes delivered (Table 4 instruction-memory bandwidth).
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Cycles the interface was occupied (its utilization complement is
    /// the paper's "unused almost 97% of the time").
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Zero the meters.
    pub fn reset_stats(&mut self) {
        self.bytes_transferred = 0;
        self.busy_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_of_paper_config() {
        let cfg = ICacheConfig::default();
        assert_eq!(cfg.sets(), 128);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = ICache::new(ICacheConfig::default());
        assert!(!c.access(0x100));
        assert!(c.access(0x104)); // same 32B line
        assert!(c.access(0x11f));
        assert!(!c.access(0x120)); // next line
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn two_way_lru_eviction() {
        // Tiny cache: 2 sets, 2 ways, 32B lines = 128 bytes.
        let cfg = ICacheConfig {
            bytes: 128,
            ways: 2,
            line_bytes: 32,
        };
        let mut c = ICache::new(cfg);
        // Three lines mapping to set 0 (line % 2 == 0): 0, 128, 256.
        assert!(!c.access(0));
        assert!(!c.access(128));
        assert!(c.access(0)); // 0 now MRU
        assert!(!c.access(256)); // evicts 128 (LRU)
        assert!(c.access(0));
        assert!(!c.access(128)); // was evicted
    }

    #[test]
    fn flat_lru_matches_a_vec_of_vec_reference() {
        // The reference keeps one `Vec` of tags per set, MRU last, and
        // divides; the last geometry (3 ways, 24-byte lines, 5 sets) is
        // not a power of two anywhere and takes the division fallback.
        for (bytes, ways, line_bytes) in [(8192, 2, 32), (128, 2, 32), (256, 4, 16), (360, 3, 24)] {
            let cfg = ICacheConfig {
                bytes,
                ways,
                line_bytes,
            };
            let mut cache = ICache::new(cfg);
            let mut sets = vec![Vec::<u64>::new(); cfg.sets()];
            let mut rng = nicsim_sim::XorShift64::for_site(16, bytes as u64);
            for _ in 0..20_000 {
                // Mostly a hot region a few times the cache, sometimes far.
                let addr = match rng.below(8) {
                    0 => rng.below(128 * 1024),
                    _ => rng.below(4 * bytes as u64),
                };
                let line = addr / line_bytes as u64;
                let set = &mut sets[(line % cfg.sets() as u64) as usize];
                let tag = line / cfg.sets() as u64;
                let want = match set.iter().position(|&t| t == tag) {
                    Some(pos) => {
                        set.remove(pos);
                        true
                    }
                    None => {
                        if set.len() == ways {
                            set.remove(0);
                        }
                        false
                    }
                };
                set.push(tag);
                assert_eq!(cache.access(addr), want, "{cfg:?} addr {addr:#x}");
                assert_eq!(cfg.line_of(addr), (line, addr % line_bytes as u64));
            }
            assert!(cache.hits() > 0 && cache.misses() > 0);
        }
    }

    #[test]
    fn working_set_fits_paper_cache() {
        // An 8 KB footprint loops forever with no misses after warm-up.
        let mut c = ICache::new(ICacheConfig::default());
        for _ in 0..3 {
            for line in 0..256u64 {
                c.access(line * 32);
            }
        }
        assert_eq!(c.misses(), 256, "only cold misses");
    }

    #[test]
    fn instr_memory_serializes_fills() {
        let mut m = InstrMemory::new();
        // 32B line: 2 latency + 2 beats = 4 cycles.
        assert_eq!(m.fill(10, 32), 14);
        // A second fill at the same time waits for the first.
        assert_eq!(m.fill(10, 32), 18);
        assert_eq!(m.bytes_transferred(), 64);
        assert_eq!(m.busy_cycles(), 8);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn bad_geometry_panics() {
        let cfg = ICacheConfig {
            bytes: 100,
            ways: 2,
            line_bytes: 32,
        };
        let _ = ICache::new(cfg);
    }
}
