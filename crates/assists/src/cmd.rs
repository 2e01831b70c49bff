//! The hardware/firmware contract: command and descriptor formats.
//!
//! Everything the firmware and the assists exchange lives in scratchpad
//! rings with these layouts. All counters are free-running (monotonic
//! `u32`); ring indices are `count % entries`.

/// Words per ring entry: a DMA command, a MAC TX ring entry
/// (`sdram_addr`, `len`, flags, `seq`) and a MAC RX descriptor
/// (`sdram_addr`, `len`, status, checksum info) are all four words.
pub const RING_ENTRY_WORDS: u32 = 4;

/// The scratchpad registers of one command ring: what the memory map
/// hands out for a DMA direction or the MAC TX, and what the unit
/// behind that ring is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingRegs {
    /// Byte address of the ring (`entries` x [`RING_ENTRY_WORDS`] words).
    pub ring: u32,
    /// Entries in the ring.
    pub entries: u32,
    /// Producer count, firmware-written (the doorbell).
    pub prod: u32,
    /// Done count, written back by the unit.
    pub done: u32,
}

/// The scratchpad registers and frame-memory region of MAC RX: what
/// the memory map hands out for the receive MAC, and what it is built
/// from. MAC RX produces into its descriptor ring rather than
/// consuming a command ring, so it reads the firmware's counters
/// instead of writing a done count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacRxRegs {
    /// Byte address of the descriptor ring (`entries` x
    /// [`RING_ENTRY_WORDS`] words: addr, len, status, checksum info).
    pub ring: u32,
    /// Entries in the descriptor ring.
    pub entries: u32,
    /// Producer count the MAC writes (frames delivered to firmware).
    pub prod: u32,
    /// Firmware's claim counter (frames taken), read as a register to
    /// bound descriptor-ring occupancy.
    pub claim: u32,
    /// Ring entries held back from the occupancy check: the firmware
    /// reads a descriptor *after* claiming it, so the MAC must not
    /// overwrite entries the claim counter already covers. At least the
    /// cores' aggregate in-flight claim batch.
    pub claim_slack: u32,
    /// Firmware-advanced free pointer of the receive region (bytes
    /// retired, monotonic).
    pub tail: u32,
    /// Receive region base in the frame memory.
    pub buf_base: u32,
    /// Receive region size in bytes (circular).
    pub buf_bytes: u32,
}

/// Flag in the DMA command `len` word: the NIC-side address is in the
/// scratchpad (otherwise it is in the frame memory).
pub const FLAG_SP: u32 = 1 << 31;
/// Flag in the DMA command `len` word (DMA write only): word 0 of the
/// command is an immediate 32-bit value to write to the host address.
pub const FLAG_IMM: u32 = 1 << 30;
/// Mask extracting the byte length from the `len` word.
pub const LEN_MASK: u32 = 0x00ff_ffff;

/// A decoded DMA command.
///
/// Layout in the ring (4 words):
///
/// | word | DMA read             | DMA write                     |
/// |------|----------------------|-------------------------------|
/// | 0    | host source address  | NIC source address / immediate|
/// | 1    | NIC dest address     | host destination address      |
/// | 2    | `len \| flags`       | `len \| flags`                |
/// | 3    | firmware tag         | firmware tag                  |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaCmd {
    /// Word 0: host address (read) or NIC source / immediate (write).
    pub w0: u32,
    /// Word 1: NIC destination (read) or host destination (write).
    pub w1: u32,
    /// Byte length.
    pub len: u32,
    /// `FLAG_SP` / `FLAG_IMM` bits.
    pub flags: u32,
    /// Firmware tag (opaque to hardware).
    pub tag: u32,
}

impl DmaCmd {
    /// Decode from the four ring words.
    pub fn decode(words: [u32; 4]) -> DmaCmd {
        DmaCmd {
            w0: words[0],
            w1: words[1],
            len: words[2] & LEN_MASK,
            flags: words[2] & !LEN_MASK,
            tag: words[3],
        }
    }

    /// Encode into the four ring words.
    pub fn encode(&self) -> [u32; 4] {
        [self.w0, self.w1, self.len | self.flags, self.tag]
    }

    /// Whether the NIC-side address is a scratchpad address.
    pub fn is_scratchpad(&self) -> bool {
        self.flags & FLAG_SP != 0
    }

    /// Whether word 0 is an immediate value (DMA write only).
    pub fn is_immediate(&self) -> bool {
        self.flags & FLAG_IMM != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let c = DmaCmd {
            w0: 0x1000,
            w1: 0x2000,
            len: 1518,
            flags: FLAG_SP,
            tag: 42,
        };
        assert_eq!(DmaCmd::decode(c.encode()), c);
        assert!(c.is_scratchpad());
        assert!(!c.is_immediate());
    }

    #[test]
    fn flags_do_not_clobber_len() {
        let words = [0, 0, 512 | FLAG_IMM, 7];
        let c = DmaCmd::decode(words);
        assert_eq!(c.len, 512);
        assert!(c.is_immediate());
        assert!(!c.is_scratchpad());
    }
}
