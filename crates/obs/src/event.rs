//! The typed event vocabulary of the observability layer.
//!
//! One [`Event`] is emitted at every frame-lifecycle edge the simulator
//! models: the host posting a send descriptor, the mailbox doorbell, the
//! firmware entering a handler, a core taking each firmware op,
//! scratchpad crossbar grants and retries,
//! DMA and frame-memory bursts, the MAC putting bits on the wire, and the
//! driver consuming a return descriptor. Events are small `Copy` values —
//! identifiers, byte counts, and picosecond timestamps — so a disabled
//! probe pays nothing and an enabled one pays a few stores per event.
//!
//! Frame identity: the simulated workload stamps a 32-bit sequence number
//! into every UDP payload (bytes 42..46 of the Ethernet frame), and the
//! descriptor rings carry the same number, so TX events from
//! [`Event::HostTxPost`] through [`Event::MacTxWireDone`] and RX events
//! from [`Event::MacRxArrival`] through [`Event::HostRxDeliver`] can be
//! joined on `seq` to reconstruct a per-frame timeline.

use crate::Probe;
use nicsim_sim::Ps;

/// The four frame-data streams over the shared frame bus, one per
/// hardware assist. This is the only definition: `nicsim_mem::StreamId`
/// re-exports it (this crate sits below `nicsim-mem` in the dependency
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FmStream {
    /// DMA read assist: host memory -> frame memory (transmit path).
    DmaRead,
    /// DMA write assist: frame memory -> host memory (receive path).
    DmaWrite,
    /// MAC transmit: frame memory -> wire.
    MacTx,
    /// MAC receive: wire -> frame memory.
    MacRx,
}

impl FmStream {
    /// Dense index: the frame-memory controller's arbitration order.
    pub fn index(self) -> usize {
        match self {
            FmStream::DmaRead => 0,
            FmStream::DmaWrite => 1,
            FmStream::MacTx => 2,
            FmStream::MacRx => 3,
        }
    }

    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            FmStream::DmaRead => "dma_read",
            FmStream::DmaWrite => "dma_write",
            FmStream::MacTx => "mac_tx",
            FmStream::MacRx => "mac_rx",
        }
    }

    /// All streams in index order.
    pub const ALL: [FmStream; 4] = [
        FmStream::DmaRead,
        FmStream::DmaWrite,
        FmStream::MacTx,
        FmStream::MacRx,
    ];
}

/// An atomic operation performed at a scratchpad bank. This and
/// [`SpRequest`] are defined here so that [`Event::OpTaken`] carries the
/// op exactly; `nicsim_mem` re-exports both.
///
/// The tag is a whole word, so every payload sits on a word boundary
/// and a copy of the op (or of the [`SpRequest`] holding it) is whole
/// aligned words: with a byte tag, the bytes after it were moved as
/// overlapping unaligned pieces that store-to-load forwarding cannot
/// serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SpOp {
    /// Read the 32-bit word; response is its value.
    Read,
    /// Write the 32-bit word; response is the written value.
    Write(u32),
    /// Atomically read the word and write all-ones; response is the old
    /// value (0 means the lock was acquired).
    TestAndSet,
    /// Atomically set bit `(addr*32 + bit)` of a bit array; response is
    /// the previous value of the word. This is the paper's `set`.
    SetBit(u8),
    /// Atomically scan the word starting at `start_bit`, clear the run of
    /// consecutive set bits found there, and respond with the run length
    /// (0 if `start_bit` itself is clear). This is the paper's `update`,
    /// which "examines at most one aligned 32-bit word".
    Update {
        /// Bit offset within the word at which the scan begins.
        start_bit: u8,
    },
}

impl SpOp {
    /// Whether this operation modifies memory (for coherence tracing, all
    /// RMW ops count as writes).
    pub fn is_write(self) -> bool {
        !matches!(self, SpOp::Read)
    }
}

/// One scratchpad transaction: a word-aligned byte address plus operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpRequest {
    /// Byte address; must be 4-byte aligned.
    pub addr: u32,
    /// The operation to perform.
    pub op: SpOp,
}

/// An operation requested by firmware, to be charged by the core engine
/// (`nicsim_cpu` re-exports it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingOp {
    /// `n` ALU/control instructions of straight-line work.
    Alu(u32),
    /// A conditional branch; `mispredict` annuls one issue slot.
    Branch {
        /// Whether the static predictor got it wrong.
        mispredict: bool,
    },
    /// A scratchpad transaction (load, store, or atomic RMW).
    Mem(SpRequest),
    /// Wait-for-interrupt: one instruction to issue, then the core parks
    /// until its wake line is raised (interrupt dispatch mode).
    Wfi,
}

impl PendingOp {
    /// Whether the firmware waits for this operation's result: loads and
    /// atomic RMWs return data, `wfi` returns when the core is woken.
    pub fn has_result(self) -> bool {
        match self {
            PendingOp::Alu(_) | PendingOp::Branch { .. } => false,
            PendingOp::Mem(req) => !matches!(req.op, SpOp::Write(_)),
            PendingOp::Wfi => true,
        }
    }
}

/// Which DMA engine an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmaDir {
    /// The DMA read engine (host -> NIC, transmit path).
    Read,
    /// The DMA write engine (NIC -> host, receive path).
    Write,
}

/// The unit a fault or recovery event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultUnit {
    /// The inbound 10 GbE link (generator side).
    Link,
    /// The MAC receive assist.
    MacRx,
    /// The DMA read engine (host -> NIC).
    DmaRead,
    /// The DMA write engine (NIC -> host).
    DmaWrite,
    /// The SDRAM frame memory.
    FrameMemory,
    /// The host device driver.
    Driver,
}

/// A fault the injection plane introduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A bit flipped in a frame on the inbound link.
    LinkCorrupt,
    /// A frame truncated on the inbound link.
    LinkTruncate,
    /// A transient DMA completion error (one failed attempt).
    DmaError,
    /// A bounded PCI stall before a DMA command executed.
    PciStall,
    /// A correctable single-bit ECC event on a frame-memory read burst.
    EccSingleBit,
    /// An assist unit wedged (stuck until the watchdog resets it).
    AssistHang,
    /// A DMA write poisoned a payload byte as it landed in host memory.
    HostPoison,
}

impl FaultKind {
    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::LinkCorrupt => "fault:link_corrupt",
            FaultKind::LinkTruncate => "fault:link_truncate",
            FaultKind::DmaError => "fault:dma_error",
            FaultKind::PciStall => "fault:pci_stall",
            FaultKind::EccSingleBit => "fault:ecc",
            FaultKind::AssistHang => "fault:hang",
            FaultKind::HostPoison => "fault:host_poison",
        }
    }
}

/// A recovery action the firmware, hardware, or driver took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryKind {
    /// MAC RX caught a CRC-bad frame and published an error descriptor
    /// instead of delivering garbage.
    CrcDrop,
    /// A DMA command succeeded after transient-error retries.
    DmaRetried,
    /// A DMA command was aborted after exhausting retries; the
    /// descriptor was completed so ring ordering never wedges.
    FrameAbort,
    /// The watchdog reset a stuck assist.
    WatchdogReset,
    /// The driver consumed an error return descriptor and recycled its
    /// buffer.
    RxErrorReturn,
    /// The driver accounted an aborted transmit frame and re-posted a
    /// replacement.
    TxRetry,
    /// The reliable-mode driver retransmitted an unacked frame after a
    /// timeout with exponential backoff.
    Retransmit,
}

impl RecoveryKind {
    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryKind::CrcDrop => "recovery:crc_drop",
            RecoveryKind::DmaRetried => "recovery:dma_retry",
            RecoveryKind::FrameAbort => "recovery:frame_abort",
            RecoveryKind::WatchdogReset => "recovery:watchdog_reset",
            RecoveryKind::RxErrorReturn => "recovery:rx_error_return",
            RecoveryKind::TxRetry => "recovery:tx_retry",
            RecoveryKind::Retransmit => "recovery:retransmit",
        }
    }
}

/// One frame-lifecycle edge. Every variant carries the simulated time
/// `at` (or an explicit start/done pair) in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// The host driver posted one send frame (buffer descriptors written
    /// to host memory; the mailbox write follows in the same driver poll).
    HostTxPost {
        /// Frame sequence number.
        seq: u32,
        /// Simulated time.
        at: Ps,
    },
    /// The driver observed the NIC's send-completion count advance: all
    /// frames with `seq < upto` are now reclaimable.
    HostTxComplete {
        /// One past the highest completed frame sequence number.
        upto: u32,
        /// Simulated time.
        at: Ps,
    },
    /// The driver consumed a return descriptor and delivered a validated
    /// frame to the host stack.
    HostRxDeliver {
        /// Frame sequence number recovered from the payload.
        seq: u32,
        /// UDP payload bytes delivered.
        udp_payload: u32,
        /// Simulated time.
        at: Ps,
    },
    /// The driver rang a doorbell: a mailbox register write crossed the
    /// PCI bus into the scratchpad.
    MailboxWrite {
        /// Stable register name (`"send_bd_prod"` or `"rx_bd_prod"`).
        reg: &'static str,
        /// Value written.
        value: u32,
        /// Simulated time.
        at: Ps,
    },
    /// A core entered a firmware handler (the fetch target moved to a
    /// different firmware function).
    HandlerEnter {
        /// Core index.
        core: usize,
        /// Stable handler label (`FwFunc::label`).
        func: &'static str,
        /// Simulated time.
        at: Ps,
    },
    /// The crossbar granted a scratchpad transaction.
    SpGrant {
        /// Requester port (cores first, then the four assists).
        port: usize,
        /// Scratchpad bank that serviced the access.
        bank: usize,
        /// Byte address.
        addr: u32,
        /// Store or atomic RMW (coherence-relevant write).
        write: bool,
        /// Simulated time.
        at: Ps,
    },
    /// A pending scratchpad request lost arbitration this cycle and
    /// retries next cycle (one bank-conflict stall cycle).
    SpConflict {
        /// Requester port.
        port: usize,
        /// Contended bank.
        bank: usize,
        /// Simulated time.
        at: Ps,
    },
    /// A core took an operation from its firmware's batch to charge it:
    /// one per op, in charging order.
    OpTaken {
        /// Core index.
        core: usize,
        /// The operation, exactly as the firmware issued it.
        op: PendingOp,
        /// Simulated time.
        at: Ps,
    },
    /// An instruction-cache line access.
    IcacheAccess {
        /// Core index.
        core: usize,
        /// Hit (false = miss + fill from instruction memory).
        hit: bool,
        /// Simulated time.
        at: Ps,
    },
    /// A DMA engine accepted a descriptor and started moving payload
    /// (for the read engine this is the descriptor-fetch completion that
    /// launches the host-to-NIC transfer).
    DmaStart {
        /// Which engine.
        dir: DmaDir,
        /// Descriptor ring index.
        idx: u32,
        /// Command word 0: host source (read), NIC source or immediate
        /// value (write).
        src: u32,
        /// Command word 1: NIC destination (read), host destination
        /// (write).
        dst: u32,
        /// Payload bytes.
        bytes: u32,
        /// Simulated time.
        at: Ps,
    },
    /// A DMA descriptor completed (payload landed and the engine marked
    /// the descriptor done).
    DmaDone {
        /// Which engine.
        dir: DmaDir,
        /// Descriptor ring index.
        idx: u32,
        /// Simulated time.
        at: Ps,
    },
    /// The frame-memory controller serviced one burst over the shared
    /// frame bus.
    FmBurst {
        /// Which stream issued the burst.
        stream: FmStream,
        /// Write (toward SDRAM) or read.
        write: bool,
        /// Burst length before alignment padding.
        bytes: u32,
        /// Bus grant time.
        start: Ps,
        /// Completion time.
        done: Ps,
        /// Bursts still queued on this stream after the grant
        /// (frame-memory occupancy).
        queued: u32,
    },
    /// The MAC TX assist consumed a transmit-ring entry and issued the
    /// frame-memory read for the frame contents.
    MacTxFetch {
        /// Frame sequence number (ring entry word 3).
        seq: u32,
        /// Simulated time.
        at: Ps,
    },
    /// First bit of a frame on the wire.
    MacTxWireStart {
        /// Frame sequence number.
        seq: u32,
        /// Simulated time.
        at: Ps,
    },
    /// Last bit of a frame on the wire; the frame counts as sent.
    MacTxWireDone {
        /// Frame sequence number.
        seq: u32,
        /// Simulated time.
        at: Ps,
    },
    /// A frame arrived from the wire at the MAC RX assist.
    MacRxArrival {
        /// Frame sequence number.
        seq: u32,
        /// Frame length in bytes (without FCS).
        len: u32,
        /// True if the assist dropped it (receive ring full).
        dropped: bool,
        /// Simulated time.
        at: Ps,
    },
    /// The MAC RX assist published the receive descriptor for a frame
    /// whose contents finished landing in frame memory, or an error
    /// descriptor for a frame it refused on a bad FCS.
    MacRxDescPublish {
        /// Frame sequence number.
        seq: u32,
        /// True for an error descriptor (CRC status, no frame written):
        /// no stage of an accepted frame's lifecycle.
        error: bool,
        /// Simulated time.
        at: Ps,
    },
    /// The measurement window (re)started: warm-up state is being
    /// discarded. Sinks that mirror `RunStats` window semantics reset
    /// here.
    WindowReset {
        /// Simulated time.
        at: Ps,
    },
    /// The fault plane injected a fault at `unit`.
    Fault {
        /// What was injected.
        kind: FaultKind,
        /// Where.
        unit: FaultUnit,
        /// Kind-specific detail (frame seq, descriptor index, or failed
        /// attempt count).
        info: u32,
        /// Simulated time.
        at: Ps,
    },
    /// A recovery action completed at `unit`.
    Recovery {
        /// What recovered.
        kind: RecoveryKind,
        /// Where.
        unit: FaultUnit,
        /// Kind-specific detail (frame seq or descriptor index).
        info: u32,
        /// Simulated time.
        at: Ps,
    },
}

impl Event {
    /// The timestamp of the event (for span-shaped events, the end).
    pub fn at(&self) -> Ps {
        match *self {
            Event::HostTxPost { at, .. }
            | Event::HostTxComplete { at, .. }
            | Event::HostRxDeliver { at, .. }
            | Event::MailboxWrite { at, .. }
            | Event::HandlerEnter { at, .. }
            | Event::SpGrant { at, .. }
            | Event::SpConflict { at, .. }
            | Event::OpTaken { at, .. }
            | Event::IcacheAccess { at, .. }
            | Event::DmaStart { at, .. }
            | Event::DmaDone { at, .. }
            | Event::MacTxFetch { at, .. }
            | Event::MacTxWireStart { at, .. }
            | Event::MacTxWireDone { at, .. }
            | Event::MacRxArrival { at, .. }
            | Event::MacRxDescPublish { at, .. }
            | Event::Fault { at, .. }
            | Event::Recovery { at, .. }
            | Event::WindowReset { at } => at,
            Event::FmBurst { done, .. } => done,
        }
    }

    /// Whether a sink of type `P` reads this event's class: the
    /// per-cycle events when it sets [`Probe::CYCLE_EVENTS`], the
    /// simulator-work events when it sets [`Probe::WORK_EVENTS`], every
    /// other event always.
    #[inline]
    pub(crate) fn reaches<P: Probe>(&self) -> bool {
        match self {
            Event::SpGrant { .. }
            | Event::SpConflict { .. }
            | Event::IcacheAccess { .. }
            | Event::HandlerEnter { .. } => P::CYCLE_EVENTS,
            Event::OpTaken { .. } => P::WORK_EVENTS,
            _ => true,
        }
    }
}
