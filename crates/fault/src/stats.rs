//! The error table, the fault plane's one counter type: every site owns
//! an [`ErrorStats`] and counts into its slice; `NicSystem::collect`
//! merges the sites', a fleet its NICs'.

/// Row class: an injected fault, summed by [`ErrorStats::injected`].
const FAULT: bool = true;
/// Row class: a detection, a recovery or a loss — what a fault led to.
const OUTCOME: bool = false;

/// Declares [`ErrorStats`] with its `summary`, `merge` and `injected`
/// from one list of `field: "row name" CLASS` rows, in row order.
macro_rules! error_stats {
    ($($(#[$doc:meta])* $field:ident: $row:literal $class:ident,)*) => {
        /// Injection and recovery counters, aggregated by `NicSystem` into
        /// `RunStats` (and from there into the `nicsim-exp/v1` results JSON)
        /// whenever a [`FaultPlan`](crate::FaultPlan) is configured.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ErrorStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl ErrorStats {
            /// Total injected faults (not recoveries).
            pub fn injected(&self) -> u64 {
                0 $(+ if $class { self.$field } else { 0 })*
            }

            /// The stable `(name, value)` rows appended to `RunStats::summary()`.
            pub fn summary(&self) -> [(&'static str, u64); [$($row),*].len()] {
                [$(($row, self.$field),)*]
            }

            /// Fold another table into this one — a site into its NIC, a
            /// NIC into its fleet — mirroring `FrameTracker::merge`.
            pub fn merge(&mut self, other: &ErrorStats) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

error_stats! {
    /// Frames bit-corrupted on the inbound link.
    link_corrupt_injected: "err_link_corrupt" FAULT,
    /// Frames truncated on the inbound link.
    link_truncate_injected: "err_link_truncate" FAULT,
    /// Frames the MAC RX CRC32 check caught and dropped (an error
    /// descriptor was published instead of the payload).
    crc_dropped: "err_crc_dropped" OUTCOME,
    /// Transient DMA completion errors injected (counts every failed
    /// attempt, including retries of the same command).
    dma_transient_errors: "err_dma_transient" FAULT,
    /// DMA commands that eventually succeeded through retry.
    dma_retries_ok: "err_dma_retried" OUTCOME,
    /// DMA commands aborted after exhausting retries (frame abort with
    /// ring cleanup).
    dma_aborts: "err_dma_aborts" OUTCOME,
    /// Bounded PCI stalls injected.
    pci_stalls: "err_pci_stalls" FAULT,
    /// Correctable single-bit ECC events in the frame memory.
    ecc_corrections: "err_ecc" FAULT,
    /// Stuck-assist hangs that took effect (the unit had work pending).
    assist_hangs: "err_assist_hangs" FAULT,
    /// Watchdog resets of stuck assists.
    watchdog_resets: "err_watchdog_resets" OUTCOME,
    /// Error return descriptors the host driver consumed and recycled.
    rx_error_returns: "err_rx_error_returns" OUTCOME,
    /// Aborted transmit frames the host driver accounted and re-posted.
    tx_retries: "err_tx_retries" OUTCOME,
    /// Always 0: a frame-memory read completion names its burst, so none
    /// can arrive without data. The row stays for the results schema.
    fm_short_reads: "err_fm_short_reads" OUTCOME,
    /// Payload bytes poisoned in host memory by a DMA write (caught by
    /// driver frame validation as `rx_corrupt`).
    host_poison_injected: "err_host_poison" FAULT,
    /// Firmware instruction faults injected (handler aborted, core
    /// restarted the dispatch scan).
    fw_instr_faults: "err_fw_instr_faults" FAULT,
    /// Whole-NIC crash/reset cycles the fleet watchdog performed.
    nic_resets: "err_nic_resets" OUTCOME,
    /// In-flight frames discarded by NIC resets (driver-posted frames
    /// not yet completed, plus pending RX at the dead port).
    nic_reset_lost_frames: "err_nic_reset_lost" OUTCOME,
    /// Frames the driver retransmitted in reliable mode (timeout with
    /// exponential backoff).
    tx_retransmits: "err_tx_retransmits" OUTCOME,
    /// Duplicate deliveries the reliable-mode receiver suppressed.
    rx_duplicates: "err_rx_duplicates" OUTCOME,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_stats_summary_is_stable() {
        let s = ErrorStats {
            crc_dropped: 3,
            ..ErrorStats::default()
        };
        let rows = s.summary();
        assert_eq!(rows[2], ("err_crc_dropped", 3));
        assert_eq!(rows.len(), 19);
        assert_eq!(rows[15].0, "err_nic_resets");
        assert_eq!(rows[17].0, "err_tx_retransmits");
        assert_eq!(s.injected(), 0);
    }

    #[test]
    fn error_stats_merge_sums_every_counter() {
        let mut a = ErrorStats::default();
        let mut b = ErrorStats::default();
        // Give every row a distinct nonzero value via the summary order.
        let fill = |s: &mut ErrorStats, base: u64| {
            s.link_corrupt_injected = base;
            s.link_truncate_injected = base + 1;
            s.crc_dropped = base + 2;
            s.dma_transient_errors = base + 3;
            s.dma_retries_ok = base + 4;
            s.dma_aborts = base + 5;
            s.pci_stalls = base + 6;
            s.ecc_corrections = base + 7;
            s.assist_hangs = base + 8;
            s.watchdog_resets = base + 9;
            s.rx_error_returns = base + 10;
            s.tx_retries = base + 11;
            s.fm_short_reads = base + 12;
            s.host_poison_injected = base + 13;
            s.fw_instr_faults = base + 14;
            s.nic_resets = base + 15;
            s.nic_reset_lost_frames = base + 16;
            s.tx_retransmits = base + 17;
            s.rx_duplicates = base + 18;
        };
        fill(&mut a, 100);
        fill(&mut b, 1000);
        a.merge(&b);
        for (i, (name, v)) in a.summary().iter().enumerate() {
            assert_eq!(*v, 1100 + 2 * i as u64, "{name}");
        }
        // injected() sums the eight fault rows and none of the outcomes.
        let faults = [0, 1, 3, 6, 7, 8, 13, 14];
        let want: u64 = faults.iter().map(|i| 1100 + 2 * i).sum();
        assert_eq!(a.injected(), want);
    }
}
