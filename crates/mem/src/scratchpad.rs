//! On-chip scratchpad memory: functional state and atomic operations.
//!
//! The scratchpad is a program-managed, globally visible on-chip memory
//! (256 KB in the paper, split into `S` independent banks). All firmware
//! control data lives here: buffer-descriptor caches, DMA/MAC command
//! rings, hardware progress pointers, status-bit arrays, and spinlocks.
//!
//! Besides plain 32-bit reads and writes, the scratchpad banks execute the
//! paper's two new atomic read-modify-write instructions (§4):
//!
//! * **`set`** — atomically set one bit of a bit array in memory.
//! * **`update`** — examine at most one aligned 32-bit word of the bit
//!   array, atomically clear the consecutive set bits starting at a given
//!   offset, and report how far the consecutive region extended.
//!
//! plus a conventional `test-and-set` used to build spinlocks (the
//! baseline "software-only" firmware synchronizes exclusively with these).

pub use nicsim_obs::{SpOp, SpRequest};

/// Who a watched word signals when it is written
/// ([`Scratchpad::watch_range`]). A word may have both listeners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Listener {
    /// The cores' interrupt doorbells: a write raises every core's wake
    /// line.
    Cores = 0,
    /// The assists' registers: a write wakes the sleeping frame side.
    FrameSide = 1,
}

impl Listener {
    #[inline]
    const fn bit(self) -> u64 {
        1 << self as u64
    }
}

/// Write-watch state: two bits per word, one per [`Listener`], plus one
/// sticky signal per listener. Present only when at least one range is
/// watched, so an unwatched scratchpad pays a single `None` branch per
/// write and nothing else.
#[derive(Debug, Clone)]
struct Watch {
    /// Word `w`'s listener bits at bit `2 * (w % 32)` of entry `w / 32`,
    /// up to the highest watched word rather than over the whole
    /// scratchpad: every system built allocates and zeroes it.
    bitmap: Vec<u64>,
    /// [`Listener::bit`] set: a word that listener watches was written
    /// since its last [`Scratchpad::take_signal`].
    signals: u64,
}

/// The bank byte address `addr` maps to among `banks` word-interleaved
/// banks: the one mapping the scratchpad and the crossbar in front of it
/// share.
#[inline]
pub(crate) fn bank_of(addr: u32, banks: usize) -> usize {
    crate::div_rem(addr as u64 / 4, banks as u64).1 as usize
}

/// The scratchpad memory array with bank geometry.
///
/// Words are interleaved across banks at word granularity, so consecutive
/// words hit different banks — the same policy that makes sequential
/// descriptor accesses spread load in the paper's design.
#[derive(Debug, Clone)]
pub struct Scratchpad {
    words: Vec<u32>,
    banks: usize,
    watch: Option<Box<Watch>>,
}

impl Scratchpad {
    /// Create a scratchpad of `bytes` capacity split into `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a multiple of 4 or `banks` is zero.
    pub fn new(bytes: usize, banks: usize) -> Scratchpad {
        assert!(bytes.is_multiple_of(4), "capacity must be whole words");
        assert!(banks > 0, "need at least one bank");
        Scratchpad {
            words: vec![0; bytes / 4],
            banks,
            watch: None,
        }
    }

    /// Watch the words covering `[addr, addr + bytes)` for `listener`:
    /// any write-class operation ([`SpOp::is_write`]) landing on a
    /// watched word — including functional [`Scratchpad::poke`]s from
    /// the host side — raises that listener's sticky signal, collected
    /// by [`Scratchpad::take_signal`].
    ///
    /// Producers do not issue any extra instruction to ring a doorbell;
    /// detection happens here, at the instant the write lands, so a
    /// wakeup can never be lost between a producer's store and a
    /// consumer going to sleep.
    pub fn watch_range(&mut self, addr: u32, bytes: u32, listener: Listener) {
        assert!(bytes > 0, "empty watch range");
        let first = self.word_index(addr);
        let last = self.word_index((addr + bytes - 1) & !3);
        let watch = self.watch.get_or_insert_with(|| {
            Box::new(Watch {
                bitmap: Vec::new(),
                signals: 0,
            })
        });
        if watch.bitmap.len() <= last / 32 {
            watch.bitmap.resize(last / 32 + 1, 0);
        }
        for w in first..=last {
            watch.bitmap[w / 32] |= listener.bit() << (2 * (w % 32));
        }
    }

    /// Return (and clear) `listener`'s sticky signal: true if a word it
    /// watches was written since the last call. Always false when no
    /// range is watched.
    #[inline]
    pub fn take_signal(&mut self, listener: Listener) -> bool {
        match &mut self.watch {
            Some(w) => {
                let set = w.signals & listener.bit() != 0;
                w.signals &= !listener.bit();
                set
            }
            None => false,
        }
    }

    /// Whether `listener`'s signal is raised, without clearing it.
    #[inline]
    pub fn signal_pending(&self, listener: Listener) -> bool {
        self.watch
            .as_ref()
            .is_some_and(|w| w.signals & listener.bit() != 0)
    }

    /// Whether a write to `addr` raises a listener's signal: the word
    /// lies in some watch range, of either listener.
    #[inline]
    pub fn watched(&self, addr: u32) -> bool {
        let word = addr as usize / 4;
        self.watch.as_ref().is_some_and(|w| {
            w.bitmap
                .get(word / 32)
                .is_some_and(|bits| bits >> (2 * (word % 32)) & 3 != 0)
        })
    }

    #[inline]
    fn note_write(&mut self, word: usize) {
        if let Some(w) = &mut self.watch {
            if let Some(bits) = w.bitmap.get(word / 32) {
                w.signals |= (bits >> (2 * (word % 32))) & 3;
            }
        }
    }

    /// Capacity in bytes.
    pub fn bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// The bank a byte address maps to (word-interleaved).
    #[inline]
    pub fn bank_of(&self, addr: u32) -> usize {
        bank_of(addr, self.banks)
    }

    #[inline]
    fn word_index(&self, addr: u32) -> usize {
        assert!(
            addr.is_multiple_of(4),
            "unaligned scratchpad access: {addr:#x}"
        );
        let idx = addr as usize / 4;
        assert!(
            idx < self.words.len(),
            "scratchpad address out of range: {addr:#x}"
        );
        idx
    }

    /// Debug/functional peek without timing (used by tests and by the
    /// host-side of hardware assists, which model register reads).
    #[inline]
    pub fn peek(&self, addr: u32) -> u32 {
        self.words[self.word_index(addr)]
    }

    /// Debug/functional poke without timing. Counts as a write for the
    /// doorbell watch (host-side mailbox pokes must wake sleeping cores).
    pub fn poke(&mut self, addr: u32, val: u32) {
        let i = self.word_index(addr);
        self.words[i] = val;
        self.note_write(i);
    }

    /// Execute one transaction atomically, returning its response value.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range addresses, or a bit offset
    /// of 32 or more.
    pub fn execute(&mut self, req: SpRequest) -> u32 {
        let i = self.word_index(req.addr);
        if req.op.is_write() {
            self.note_write(i);
        }
        match req.op {
            SpOp::Read => self.words[i],
            SpOp::Write(v) => {
                self.words[i] = v;
                v
            }
            SpOp::TestAndSet => {
                let old = self.words[i];
                self.words[i] = u32::MAX;
                old
            }
            SpOp::SetBit(bit) => {
                assert!(bit < 32, "bit offset out of range");
                let old = self.words[i];
                self.words[i] = old | (1 << bit);
                old
            }
            SpOp::Update { start_bit } => {
                assert!(start_bit < 32, "bit offset out of range");
                let word = self.words[i];
                let mut run = 0u32;
                let mut bit = start_bit as u32;
                while bit < 32 && word & (1 << bit) != 0 {
                    run += 1;
                    bit += 1;
                }
                // Clear the run.
                if run > 0 {
                    let mask = if run == 32 {
                        u32::MAX
                    } else {
                        ((1u32 << run) - 1) << start_bit
                    };
                    self.words[i] = word & !mask;
                }
                run
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> Scratchpad {
        Scratchpad::new(1024, 4)
    }

    #[test]
    fn read_write_roundtrip() {
        let mut s = sp();
        assert_eq!(
            s.execute(SpRequest {
                addr: 8,
                op: SpOp::Write(0xdead_beef)
            }),
            0xdead_beef
        );
        assert_eq!(
            s.execute(SpRequest {
                addr: 8,
                op: SpOp::Read
            }),
            0xdead_beef
        );
        assert_eq!(
            s.execute(SpRequest {
                addr: 12,
                op: SpOp::Read
            }),
            0
        );
    }

    #[test]
    fn bank_interleaving_by_word() {
        let s = sp();
        assert_eq!(s.bank_of(0), 0);
        assert_eq!(s.bank_of(4), 1);
        assert_eq!(s.bank_of(8), 2);
        assert_eq!(s.bank_of(12), 3);
        assert_eq!(s.bank_of(16), 0);
    }

    #[test]
    fn test_and_set_acquires_once() {
        let mut s = sp();
        assert_eq!(
            s.execute(SpRequest {
                addr: 0,
                op: SpOp::TestAndSet
            }),
            0
        );
        assert_eq!(
            s.execute(SpRequest {
                addr: 0,
                op: SpOp::TestAndSet
            }),
            u32::MAX
        );
        s.poke(0, 0); // release
        assert_eq!(
            s.execute(SpRequest {
                addr: 0,
                op: SpOp::TestAndSet
            }),
            0
        );
    }

    #[test]
    fn set_bit_is_idempotent_or() {
        let mut s = sp();
        s.execute(SpRequest {
            addr: 16,
            op: SpOp::SetBit(3),
        });
        s.execute(SpRequest {
            addr: 16,
            op: SpOp::SetBit(5),
        });
        let old = s.execute(SpRequest {
            addr: 16,
            op: SpOp::SetBit(3),
        });
        assert_eq!(old, (1 << 3) | (1 << 5));
        assert_eq!(s.peek(16), (1 << 3) | (1 << 5));
    }

    #[test]
    fn update_clears_consecutive_run() {
        let mut s = sp();
        // bits 2,3,4 set; bit 5 clear; bit 6 set.
        s.poke(20, 0b101_1100);
        let run = s.execute(SpRequest {
            addr: 20,
            op: SpOp::Update { start_bit: 2 },
        });
        assert_eq!(run, 3);
        // Only the consecutive run starting at bit 2 was cleared.
        assert_eq!(s.peek(20), 0b100_0000);
    }

    #[test]
    fn update_on_clear_bit_returns_zero() {
        let mut s = sp();
        s.poke(24, 0b1000);
        let run = s.execute(SpRequest {
            addr: 24,
            op: SpOp::Update { start_bit: 0 },
        });
        assert_eq!(run, 0);
        assert_eq!(s.peek(24), 0b1000, "nothing cleared");
    }

    #[test]
    fn update_full_word() {
        let mut s = sp();
        s.poke(28, u32::MAX);
        let run = s.execute(SpRequest {
            addr: 28,
            op: SpOp::Update { start_bit: 0 },
        });
        assert_eq!(run, 32);
        assert_eq!(s.peek(28), 0);
    }

    #[test]
    fn update_run_to_word_end() {
        let mut s = sp();
        s.poke(32, 0xc000_0000); // bits 30,31
        let run = s.execute(SpRequest {
            addr: 32,
            op: SpOp::Update { start_bit: 30 },
        });
        assert_eq!(run, 2);
        assert_eq!(s.peek(32), 0);
    }

    const LISTENERS: [Listener; 2] = [Listener::Cores, Listener::FrameSide];

    #[test]
    fn unwatched_scratchpad_never_signals() {
        let mut s = sp();
        s.poke(0, 7);
        s.execute(SpRequest {
            addr: 4,
            op: SpOp::Write(1),
        });
        for l in LISTENERS {
            assert!(!s.signal_pending(l));
            assert!(!s.take_signal(l));
        }
        assert!(!s.watched(0) && !s.watched(4));
    }

    #[test]
    fn watch_signals_on_watched_writes_only() {
        let mut s = sp();
        s.watch_range(16, 8, Listener::Cores); // words 4 and 5
        assert!(
            !s.take_signal(Listener::Cores),
            "no signal before any write"
        );

        // A write outside the range does not signal, below it or past
        // the highest watched word.
        for addr in [8, 1020] {
            s.execute(SpRequest {
                addr,
                op: SpOp::Write(1),
            });
            assert!(!s.take_signal(Listener::Cores), "{addr}");
        }

        // A read of a watched word does not signal.
        s.execute(SpRequest {
            addr: 16,
            op: SpOp::Read,
        });
        assert!(!s.take_signal(Listener::Cores));

        // A write to either watched word signals, and the signal is
        // sticky until taken (a pending check leaves it), then cleared.
        s.execute(SpRequest {
            addr: 20,
            op: SpOp::Write(9),
        });
        assert!(s.signal_pending(Listener::Cores));
        assert!(s.take_signal(Listener::Cores));
        assert!(!s.take_signal(Listener::Cores), "take clears");
    }

    /// Every write-class op and a poke on an assist register raise only
    /// the frame side's signal; on a core doorbell, only the cores'; on
    /// a word both watch, both.
    #[test]
    fn each_listener_hears_only_its_own_words() {
        const DOORBELL: u32 = 32;
        const REGISTER: u32 = 36;
        const BOTH: u32 = 40;
        let mut s = sp();
        s.watch_range(DOORBELL, 4, Listener::Cores);
        s.watch_range(REGISTER, 4, Listener::FrameSide);
        s.watch_range(BOTH, 4, Listener::Cores);
        s.watch_range(BOTH, 4, Listener::FrameSide);
        // `watched` answers for either listener, and for no other word.
        for addr in (28..48).step_by(4) {
            assert_eq!(s.watched(addr), (32..44).contains(&addr), "{addr}");
        }
        let ops = [
            SpOp::TestAndSet,
            SpOp::SetBit(2),
            SpOp::Update { start_bit: 2 },
            SpOp::Write(0),
        ];
        // `None` is a poke.
        for write in ops.map(Some).into_iter().chain([None]) {
            for (addr, cores, frame) in [
                (DOORBELL, true, false),
                (REGISTER, false, true),
                (BOTH, true, true),
            ] {
                match write {
                    Some(op) => {
                        assert!(op.is_write());
                        s.execute(SpRequest { addr, op });
                    }
                    None => s.poke(addr, 5),
                }
                let heard = (
                    s.take_signal(Listener::Cores),
                    s.take_signal(Listener::FrameSide),
                );
                assert_eq!(heard, (cores, frame), "{write:?} at {addr}");
            }
        }
    }

    #[test]
    fn watch_range_spans_partial_words() {
        let mut s = sp();
        // 5 bytes starting at 40 covers words 10 and 11.
        s.watch_range(40, 5, Listener::FrameSide);
        s.execute(SpRequest {
            addr: 44,
            op: SpOp::Write(1),
        });
        assert!(s.take_signal(Listener::FrameSide));
        s.execute(SpRequest {
            addr: 48,
            op: SpOp::Write(1),
        });
        assert!(
            !s.take_signal(Listener::FrameSide),
            "word 12 is outside the range"
        );
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_access_panics() {
        let mut s = sp();
        s.execute(SpRequest {
            addr: 2,
            op: SpOp::Read,
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_access_panics() {
        let mut s = sp();
        s.execute(SpRequest {
            addr: 4096,
            op: SpOp::Read,
        });
    }
}
