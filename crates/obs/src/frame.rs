//! Per-frame latency tracking: joins lifecycle events on the frame
//! sequence number and reports stage-by-stage breakdowns.
//!
//! sPIN/PsPIN-style time-in-NIC accounting: for every transmitted frame
//! the tracker records host post -> ring fetch -> first bit on the wire
//! -> last bit; for every received frame, wire arrival -> descriptor
//! publish -> driver delivery. [`FrameTracker::summary`] reduces the
//! timelines to per-stage count/mean/p50/p99/max over the measurement
//! window.

use crate::{Event, Probe};
use nicsim_sim::Ps;
use std::collections::HashMap;

/// Timeline of one transmitted frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxFrameRecord {
    /// Driver wrote the buffer descriptors (host enqueue).
    pub posted: Option<Ps>,
    /// MAC TX consumed the ring entry and issued the frame-memory read.
    pub fetched: Option<Ps>,
    /// First bit on the wire.
    pub wire_start: Option<Ps>,
    /// Last bit on the wire.
    pub wire_done: Option<Ps>,
}

impl TxFrameRecord {
    /// Stage timestamps in lifecycle order, with stable labels.
    pub fn stages(&self) -> [(&'static str, Option<Ps>); 4] {
        [
            ("posted", self.posted),
            ("fetched", self.fetched),
            ("wire_start", self.wire_start),
            ("wire_done", self.wire_done),
        ]
    }
}

/// Timeline of one received frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct RxFrameRecord {
    /// Frame arrived from the wire (accepted, not dropped).
    pub arrival: Option<Ps>,
    /// MAC RX published the receive descriptor.
    pub desc: Option<Ps>,
    /// Driver validated and delivered the frame.
    pub delivered: Option<Ps>,
}

impl RxFrameRecord {
    /// Stage timestamps in lifecycle order, with stable labels.
    pub fn stages(&self) -> [(&'static str, Option<Ps>); 3] {
        [
            ("arrival", self.arrival),
            ("desc", self.desc),
            ("delivered", self.delivered),
        ]
    }
}

/// Latency distribution of one lifecycle stage.
#[derive(Debug, Clone, Copy)]
pub struct StageStats {
    /// Stable stage label.
    pub name: &'static str,
    /// Completed frames measured.
    pub count: u64,
    /// Mean latency.
    pub mean_ps: f64,
    /// Median (nearest-rank).
    pub p50_ps: u64,
    /// 99th percentile (nearest-rank).
    pub p99_ps: u64,
    /// Maximum.
    pub max_ps: u64,
}

/// Stage breakdown over the measurement window.
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    /// TX frames with a complete timeline inside the window.
    pub tx_frames: u64,
    /// RX frames with a complete timeline inside the window.
    pub rx_frames: u64,
    /// TX stage distributions (`post_to_fetch`, `fetch_to_wire`, `wire`,
    /// `total`).
    pub tx_stages: Vec<StageStats>,
    /// RX stage distributions (`arrival_to_desc`, `desc_to_deliver`,
    /// `total`).
    pub rx_stages: Vec<StageStats>,
}

/// The per-frame latency tracker sink.
///
/// Keeps every frame timeline since construction; [`Event::WindowReset`]
/// does not discard them, it only marks the window start so
/// [`FrameTracker::summary`] can restrict itself to frames that completed
/// inside the measurement window.
#[derive(Debug, Clone, Default)]
pub struct FrameTracker {
    tx: HashMap<u32, TxFrameRecord>,
    rx: HashMap<u32, RxFrameRecord>,
    window_start: Ps,
}

impl FrameTracker {
    /// An empty tracker.
    pub fn new() -> FrameTracker {
        FrameTracker::default()
    }

    /// All TX frame timelines, keyed by sequence number.
    pub fn tx_records(&self) -> &HashMap<u32, TxFrameRecord> {
        &self.tx
    }

    /// All RX frame timelines, keyed by sequence number.
    pub fn rx_records(&self) -> &HashMap<u32, RxFrameRecord> {
        &self.rx
    }

    /// Start of the measurement window (last [`Event::WindowReset`]).
    pub fn window_start(&self) -> Ps {
        self.window_start
    }

    /// Lifecycle-invariant violations across every recorded frame:
    /// timestamps out of lifecycle order, or a stage reached without all
    /// earlier stages (an orphaned done-without-start). Frames still in
    /// flight — a timeline that is a prefix of the full lifecycle — are
    /// legal. Returns human-readable descriptions; empty means clean.
    pub fn violations(&self) -> Vec<String> {
        fn check(out: &mut Vec<String>, path: &str, seq: u32, stages: &[(&str, Option<Ps>)]) {
            let mut last: Option<(&str, Ps)> = None;
            let mut missing: Option<&str> = None;
            for (name, t) in stages {
                match t {
                    Some(t) => {
                        if let Some(gap) = missing {
                            out.push(format!(
                                "{path} frame {seq}: reached `{name}` without `{gap}`"
                            ));
                        }
                        if let Some((prev, pt)) = last {
                            if *t <= pt {
                                out.push(format!(
                                    "{path} frame {seq}: `{name}` at {t:?} not after `{prev}` at {pt:?}"
                                ));
                            }
                        }
                        last = Some((name, *t));
                    }
                    None => missing = missing.or(Some(name)),
                }
            }
        }
        let mut out = Vec::new();
        for (seq, r) in &self.tx {
            check(&mut out, "tx", *seq, &r.stages());
        }
        for (seq, r) in &self.rx {
            check(&mut out, "rx", *seq, &r.stages());
        }
        out.sort();
        out
    }

    /// Reduce the timelines to per-stage distributions over frames that
    /// completed at or after the window start.
    pub fn summary(&self) -> LatencySummary {
        let w = self.window_start;
        let mut tx_deltas: [Vec<u64>; 4] = Default::default();
        for r in self.tx.values() {
            let (Some(p), Some(f), Some(ws), Some(wd)) =
                (r.posted, r.fetched, r.wire_start, r.wire_done)
            else {
                continue;
            };
            if wd < w {
                continue;
            }
            if f < p || ws < f || wd < ws {
                // A non-monotonic timeline: a retransmission re-posted
                // the sequence after an earlier attempt's later stages
                // were stamped (or a NIC reset spliced two incarnations'
                // records). Not a completed lifecycle — skip it.
                continue;
            }
            tx_deltas[0].push((f - p).0);
            tx_deltas[1].push((ws - f).0);
            tx_deltas[2].push((wd - ws).0);
            tx_deltas[3].push((wd - p).0);
        }
        let mut rx_deltas: [Vec<u64>; 3] = Default::default();
        for r in self.rx.values() {
            let (Some(a), Some(d), Some(dl)) = (r.arrival, r.desc, r.delivered) else {
                continue;
            };
            if dl < w {
                continue;
            }
            if d < a || dl < d {
                // Non-monotonic (a duplicate delivery's re-stamped
                // arrival) — not a completed lifecycle.
                continue;
            }
            rx_deltas[0].push((d - a).0);
            rx_deltas[1].push((dl - d).0);
            rx_deltas[2].push((dl - a).0);
        }
        const TX_NAMES: [&str; 4] = ["post_to_fetch", "fetch_to_wire", "wire", "total"];
        const RX_NAMES: [&str; 3] = ["arrival_to_desc", "desc_to_deliver", "total"];
        LatencySummary {
            tx_frames: tx_deltas[3].len() as u64,
            rx_frames: rx_deltas[2].len() as u64,
            tx_stages: TX_NAMES
                .iter()
                .zip(tx_deltas.iter_mut())
                .map(|(n, d)| stage_stats(n, d))
                .collect(),
            rx_stages: RX_NAMES
                .iter()
                .zip(rx_deltas.iter_mut())
                .map(|(n, d)| stage_stats(n, d))
                .collect(),
        }
    }

    /// Fold another tracker's records into this one — the fleet path to
    /// cross-NIC percentiles: each NIC keeps its own tracker during the
    /// run, and the merged tracker's [`FrameTracker::summary`] weighs
    /// every frame individually, exactly as if one tracker had observed
    /// the whole fleet (asserted by `merge_matches_combined_tracker`).
    ///
    /// Sequence keys must not collide across trackers (fleet sequence
    /// numbers are namespaced per source NIC, so they never do); if a
    /// key does appear in both, the records are joined field-by-field
    /// with `other` filling this tracker's gaps — the TX half observed
    /// at the source and the RX half at the destination combine into
    /// one frame's view.
    ///
    /// The later window start wins, so merged summaries use the same
    /// measurement boundary as the per-NIC ones.
    pub fn merge(&mut self, other: &FrameTracker) {
        for (seq, r) in &other.tx {
            let mine = self.tx.entry(*seq).or_default();
            mine.posted = mine.posted.or(r.posted);
            mine.fetched = mine.fetched.or(r.fetched);
            mine.wire_start = mine.wire_start.or(r.wire_start);
            mine.wire_done = mine.wire_done.or(r.wire_done);
        }
        for (seq, r) in &other.rx {
            let mine = self.rx.entry(*seq).or_default();
            mine.arrival = mine.arrival.or(r.arrival);
            mine.desc = mine.desc.or(r.desc);
            mine.delivered = mine.delivered.or(r.delivered);
        }
        self.window_start = self.window_start.max(other.window_start);
    }
}

/// Nearest-rank percentile over a sorted slice.
fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as u64 * pct / 100) as usize]
}

fn stage_stats(name: &'static str, deltas: &mut [u64]) -> StageStats {
    deltas.sort_unstable();
    let count = deltas.len() as u64;
    StageStats {
        name,
        count,
        mean_ps: if count == 0 {
            0.0
        } else {
            deltas.iter().sum::<u64>() as f64 / count as f64
        },
        p50_ps: percentile(deltas, 50),
        p99_ps: percentile(deltas, 99),
        max_ps: deltas.last().copied().unwrap_or(0),
    }
}

impl Probe for FrameTracker {
    const CYCLE_EVENTS: bool = false;

    fn emit(&mut self, ev: Event) {
        match ev {
            Event::HostTxPost { seq, at } => {
                self.tx.entry(seq).or_default().posted = Some(at);
            }
            Event::MacTxFetch { seq, at } => {
                self.tx.entry(seq).or_default().fetched = Some(at);
            }
            Event::MacTxWireStart { seq, at } => {
                self.tx.entry(seq).or_default().wire_start = Some(at);
            }
            Event::MacTxWireDone { seq, at } => {
                self.tx.entry(seq).or_default().wire_done = Some(at);
            }
            Event::MacRxArrival {
                seq,
                dropped: false,
                at,
                ..
            } => {
                self.rx.entry(seq).or_default().arrival = Some(at);
            }
            // An error descriptor stands for a frame MAC RX refused on a
            // bad FCS: no stage of an accepted frame's lifecycle.
            Event::MacRxDescPublish {
                seq,
                error: false,
                at,
            } => {
                self.rx.entry(seq).or_default().desc = Some(at);
            }
            Event::HostRxDeliver { seq, at, .. } => {
                self.rx.entry(seq).or_default().delivered = Some(at);
            }
            Event::WindowReset { at } => self.window_start = at,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx_frame(t: &mut FrameTracker, seq: u32, base: u64) {
        t.emit(Event::HostTxPost { seq, at: Ps(base) });
        t.emit(Event::MacTxFetch {
            seq,
            at: Ps(base + 100),
        });
        t.emit(Event::MacTxWireStart {
            seq,
            at: Ps(base + 250),
        });
        t.emit(Event::MacTxWireDone {
            seq,
            at: Ps(base + 1250),
        });
    }

    #[test]
    fn tracks_tx_stage_breakdown() {
        let mut t = FrameTracker::new();
        for seq in 0..10 {
            tx_frame(&mut t, seq, 10_000 * seq as u64);
        }
        let s = t.summary();
        assert_eq!(s.tx_frames, 10);
        assert_eq!(s.tx_stages[0].name, "post_to_fetch");
        assert_eq!(s.tx_stages[0].p50_ps, 100);
        assert_eq!(s.tx_stages[3].name, "total");
        assert_eq!(s.tx_stages[3].p50_ps, 1250);
        assert_eq!(s.tx_stages[3].p99_ps, 1250);
    }

    #[test]
    fn window_reset_excludes_warmup_frames() {
        let mut t = FrameTracker::new();
        tx_frame(&mut t, 0, 0);
        t.emit(Event::WindowReset { at: Ps(5_000) });
        tx_frame(&mut t, 1, 10_000);
        let s = t.summary();
        assert_eq!(s.tx_frames, 1, "warm-up frame excluded");
    }

    #[test]
    fn rx_path_and_drops() {
        let mut t = FrameTracker::new();
        t.emit(Event::MacRxArrival {
            seq: 7,
            len: 1514,
            dropped: false,
            at: Ps(100),
        });
        t.emit(Event::MacRxArrival {
            seq: 8,
            len: 1514,
            dropped: true,
            at: Ps(150),
        });
        t.emit(Event::MacRxDescPublish {
            seq: 7,
            error: false,
            at: Ps(900),
        });
        t.emit(Event::HostRxDeliver {
            seq: 7,
            udp_payload: 1472,
            at: Ps(4000),
        });
        let s = t.summary();
        assert_eq!(s.rx_frames, 1);
        assert_eq!(s.rx_stages[0].p50_ps, 800);
        assert_eq!(s.rx_stages[2].max_ps, 3900);
        assert!(t.violations().is_empty());
    }

    #[test]
    fn violations_catch_orphans_and_misordering() {
        let mut t = FrameTracker::new();
        // Orphan: wire done without fetch/start.
        t.emit(Event::HostTxPost { seq: 1, at: Ps(10) });
        t.emit(Event::MacTxWireDone { seq: 1, at: Ps(20) });
        let v = t.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("without"));

        // Misordered timestamps.
        let mut t = FrameTracker::new();
        t.emit(Event::MacRxArrival {
            seq: 2,
            len: 60,
            dropped: false,
            at: Ps(500),
        });
        t.emit(Event::MacRxDescPublish {
            seq: 2,
            error: false,
            at: Ps(400),
        });
        assert_eq!(t.violations().len(), 1);
    }

    #[test]
    fn an_error_descriptor_is_no_lifecycle_violation() {
        let mut t = FrameTracker::new();
        t.emit(Event::MacRxArrival {
            seq: 7,
            len: 64,
            dropped: true,
            at: Ps(1_000),
        });
        t.emit(Event::MacRxDescPublish {
            seq: 7,
            error: true,
            at: Ps(1_000),
        });
        assert!(t.violations().is_empty());
        // A publish with no arrival is still an orphan.
        t.emit(Event::MacRxDescPublish {
            seq: 8,
            error: false,
            at: Ps(1_000),
        });
        assert_eq!(t.violations().len(), 1);
    }

    #[test]
    fn in_flight_prefix_is_legal() {
        let mut t = FrameTracker::new();
        t.emit(Event::HostTxPost { seq: 3, at: Ps(10) });
        t.emit(Event::MacTxFetch { seq: 3, at: Ps(60) });
        assert!(t.violations().is_empty());
        assert_eq!(t.summary().tx_frames, 0, "incomplete frames not counted");
    }

    #[test]
    fn merge_matches_combined_tracker() {
        // Three "NICs" with namespaced sequences and very different
        // latency scales, so the fleet percentiles genuinely depend on
        // every tracker's weight.
        let mut combined = FrameTracker::new();
        let mut parts: Vec<FrameTracker> = (0..3).map(|_| FrameTracker::new()).collect();
        for nic in 0..3u32 {
            for n in 0..(10 + nic * 7) {
                let seq = (nic << 24) | n;
                let base = (nic as u64 + 1) * 1000 * n as u64;
                tx_frame(&mut parts[nic as usize], seq, base);
                tx_frame(&mut combined, seq, base);
                // RX half observed on a different tracker than TX, as
                // in a fleet (source tracks TX, destination tracks RX).
                let rx_on = ((nic + 1) % 3) as usize;
                for t in [&mut parts[rx_on], &mut combined] {
                    t.emit(Event::MacRxArrival {
                        seq,
                        len: 1514,
                        dropped: false,
                        at: Ps(base + 2000),
                    });
                    t.emit(Event::MacRxDescPublish {
                        seq,
                        error: false,
                        at: Ps(base + 2000 + 300 * (nic as u64 + 1)),
                    });
                    t.emit(Event::HostRxDeliver {
                        seq,
                        udp_payload: 1472,
                        at: Ps(base + 4000 + 500 * (nic as u64 + 1)),
                    });
                }
            }
        }
        let mut merged = FrameTracker::new();
        for p in &parts {
            merged.merge(p);
        }
        let (a, b) = (merged.summary(), combined.summary());
        assert_eq!(a.tx_frames, b.tx_frames);
        assert_eq!(a.rx_frames, b.rx_frames);
        for (x, y) in a.tx_stages.iter().zip(&b.tx_stages) {
            assert_eq!(x.count, y.count);
            assert_eq!(x.mean_ps, y.mean_ps);
            assert_eq!(x.p50_ps, y.p50_ps);
            assert_eq!(x.p99_ps, y.p99_ps);
            assert_eq!(x.max_ps, y.max_ps);
        }
        for (x, y) in a.rx_stages.iter().zip(&b.rx_stages) {
            assert_eq!(x.count, y.count);
            assert_eq!(x.mean_ps, y.mean_ps);
            assert_eq!(x.p50_ps, y.p50_ps);
            assert_eq!(x.p99_ps, y.p99_ps);
            assert_eq!(x.max_ps, y.max_ps);
        }
        assert!(merged.violations().is_empty());
    }

    #[test]
    fn merge_takes_latest_window_start() {
        let mut a = FrameTracker::new();
        let mut b = FrameTracker::new();
        a.emit(Event::WindowReset { at: Ps(100) });
        b.emit(Event::WindowReset { at: Ps(300) });
        a.merge(&b);
        assert_eq!(a.window_start(), Ps(300));
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[], 50), 0);
    }
}
