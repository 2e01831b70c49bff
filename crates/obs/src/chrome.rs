//! Chrome `trace_event` JSON export: one track per core, assist, and
//! scratchpad bank, openable at <https://ui.perfetto.dev> (or
//! `chrome://tracing`).
//!
//! The exporter renders:
//!
//! * firmware handler slices per core (from [`Event::HandlerEnter`]
//!   edges),
//! * DMA descriptor spans and MAC wire spans (start/done pairs),
//! * frame-bus burst slices per stream (from [`Event::FmBurst`]),
//! * host/driver instants (posts, doorbells, deliveries), and
//! * cumulative grant/conflict counters per scratchpad bank, sampled
//!   every [`BANK_SAMPLE`] grants so bank activity does not dominate the
//!   file.
//!
//! Timestamps convert from simulated picoseconds to the trace format's
//! microseconds; `displayTimeUnit` is nanoseconds. The writer is
//! hand-rolled (the workspace is dependency-free); all event names are
//! program constants, so no JSON escaping is required.

use crate::{Event, Probe};
use nicsim_sim::Ps;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Emit one bank counter sample per this many grants on that bank.
pub const BANK_SAMPLE: u64 = 256;

/// Default cap on rendered trace entries (~100 MB of JSON).
pub const DEFAULT_LIMIT: usize = 1_000_000;

/// A rendering track (becomes a Chrome `tid` plus a `thread_name`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Track {
    Core(usize),
    DmaRead,
    DmaWrite,
    MacTx,
    MacRx,
    FrameBus,
    Driver,
    Bank(usize),
}

impl Track {
    fn tid(self) -> u32 {
        match self {
            Track::Core(i) => 1 + i as u32,
            Track::DmaRead => 64,
            Track::DmaWrite => 65,
            Track::MacTx => 66,
            Track::MacRx => 67,
            Track::FrameBus => 68,
            Track::Driver => 69,
            Track::Bank(b) => 128 + b as u32,
        }
    }

    fn name(self) -> String {
        match self {
            Track::Core(i) => format!("core{i}"),
            Track::DmaRead => "dma_read".into(),
            Track::DmaWrite => "dma_write".into(),
            Track::MacTx => "mac_tx".into(),
            Track::MacRx => "mac_rx".into(),
            Track::FrameBus => "frame_bus".into(),
            Track::Driver => "driver".into(),
            Track::Bank(b) => format!("bank{b}"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    track: Track,
    name: &'static str,
    /// Chrome phase: `X` complete, `i` instant, `C` counter.
    ph: u8,
    ts: Ps,
    dur: Ps,
    args: [(&'static str, u64); 2],
    nargs: u8,
}

/// The Chrome trace sink. Accumulates entries in memory; call
/// [`ChromeTrace::write`] after the run.
#[derive(Debug, Clone)]
pub struct ChromeTrace {
    entries: Vec<Entry>,
    dropped: u64,
    limit: usize,
    /// Open handler slice per core: (handler, entered-at).
    open_handler: Vec<Option<(&'static str, Ps)>>,
    /// Open DMA descriptor spans: (engine index, descriptor) -> start.
    dma_open: HashMap<(u8, u32), Ps>,
    /// Wire span in progress: (seq, start).
    wire_open: Option<(u32, Ps)>,
    /// Cumulative per-bank grant/conflict counts for counter sampling.
    bank_grants: Vec<u64>,
    bank_conflicts: Vec<u64>,
}

impl Default for ChromeTrace {
    fn default() -> Self {
        ChromeTrace::new()
    }
}

impl ChromeTrace {
    /// A trace with the default entry cap.
    pub fn new() -> ChromeTrace {
        ChromeTrace::with_limit(DEFAULT_LIMIT)
    }

    /// A trace that stops rendering after `limit` entries (0 = unlimited).
    pub fn with_limit(limit: usize) -> ChromeTrace {
        ChromeTrace {
            entries: Vec::new(),
            dropped: 0,
            limit,
            open_handler: Vec::new(),
            dma_open: HashMap::new(),
            wire_open: None,
            bank_grants: Vec::new(),
            bank_conflicts: Vec::new(),
        }
    }

    /// Rendered entries so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been rendered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries discarded after the cap was hit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn push(&mut self, e: Entry) {
        if self.limit != 0 && self.entries.len() >= self.limit {
            self.dropped += 1;
        } else {
            self.entries.push(e);
        }
    }

    fn instant(
        &mut self,
        track: Track,
        name: &'static str,
        at: Ps,
        arg: Option<(&'static str, u64)>,
    ) {
        let (args, nargs) = match arg {
            Some(a) => ([a, ("", 0)], 1),
            None => ([("", 0); 2], 0),
        };
        self.push(Entry {
            track,
            name,
            ph: b'i',
            ts: at,
            dur: Ps::ZERO,
            args,
            nargs,
        });
    }

    fn span(
        &mut self,
        track: Track,
        name: &'static str,
        start: Ps,
        end: Ps,
        arg: Option<(&'static str, u64)>,
    ) {
        let (args, nargs) = match arg {
            Some(a) => ([a, ("", 0)], 1),
            None => ([("", 0); 2], 0),
        };
        self.push(Entry {
            track,
            name,
            ph: b'X',
            ts: start,
            dur: end - start,
            args,
            nargs,
        });
    }

    /// Serialize to `path` as a Chrome trace JSON object.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        self.write_to(&mut w)?;
        w.flush()
    }

    /// Serialize to an arbitrary writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        // Process + thread metadata first.
        write!(
            w,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"nicsim\"}}}}"
        )?;
        let mut tracks: Vec<Track> = self.entries.iter().map(|e| e.track).collect();
        tracks.sort();
        tracks.dedup();
        for t in &tracks {
            write!(
                w,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                t.tid(),
                t.name()
            )?;
            write!(
                w,
                ",\n{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"sort_index\":{tid}}}}}",
                tid = t.tid()
            )?;
        }
        for e in &self.entries {
            let ts = e.ts.0 as f64 / 1e6;
            match e.ph {
                b'X' => write!(
                    w,
                    ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts},\
                     \"dur\":{}",
                    e.name,
                    e.track.tid(),
                    e.dur.0 as f64 / 1e6
                )?,
                b'i' => write!(
                    w,
                    ",\n{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\
                     \"ts\":{ts}",
                    e.name,
                    e.track.tid()
                )?,
                _ => write!(
                    w,
                    ",\n{{\"name\":\"{} {}\",\"ph\":\"C\",\"pid\":1,\"ts\":{ts}",
                    e.track.name(),
                    e.name
                )?,
            }
            if e.nargs > 0 {
                write!(w, ",\"args\":{{")?;
                for (i, (k, v)) in e.args[..e.nargs as usize].iter().enumerate() {
                    if i > 0 {
                        write!(w, ",")?;
                    }
                    write!(w, "\"{k}\":{v}")?;
                }
                write!(w, "}}")?;
            }
            write!(w, "}}")?;
        }
        writeln!(w, "\n]}}")
    }
}

/// Which track a fault/recovery instant renders on.
fn unit_track(unit: crate::FaultUnit) -> Track {
    match unit {
        crate::FaultUnit::Link | crate::FaultUnit::MacRx => Track::MacRx,
        crate::FaultUnit::DmaRead => Track::DmaRead,
        crate::FaultUnit::DmaWrite => Track::DmaWrite,
        crate::FaultUnit::FrameMemory => Track::FrameBus,
        crate::FaultUnit::Driver => Track::Driver,
    }
}

impl Probe for ChromeTrace {
    fn emit(&mut self, ev: Event) {
        match ev {
            Event::HandlerEnter { core, func, at } => {
                if self.open_handler.len() <= core {
                    self.open_handler.resize(core + 1, None);
                }
                if let Some((prev, since)) = self.open_handler[core].replace((func, at)) {
                    if at > since {
                        self.span(Track::Core(core), prev, since, at, None);
                    }
                }
            }
            Event::DmaStart { dir, idx, at, .. } => {
                self.dma_open.insert((dir as u8, idx), at);
            }
            Event::DmaDone { dir, idx, at } => {
                if let Some(start) = self.dma_open.remove(&(dir as u8, idx)) {
                    let track = match dir {
                        crate::DmaDir::Read => Track::DmaRead,
                        crate::DmaDir::Write => Track::DmaWrite,
                    };
                    self.span(track, "xfer", start, at, Some(("idx", idx as u64)));
                }
            }
            Event::FmBurst {
                stream,
                bytes,
                start,
                done,
                ..
            } => {
                self.span(
                    Track::FrameBus,
                    stream.label(),
                    start,
                    done,
                    Some(("bytes", bytes as u64)),
                );
            }
            Event::MacTxFetch { seq, at } => {
                self.instant(Track::MacTx, "fetch", at, Some(("seq", seq as u64)));
            }
            Event::MacTxWireStart { seq, at } => {
                self.wire_open = Some((seq, at));
            }
            Event::MacTxWireDone { seq, at } => {
                if let Some((s, start)) = self.wire_open.take() {
                    if s == seq {
                        self.span(Track::MacTx, "wire", start, at, Some(("seq", seq as u64)));
                    }
                }
            }
            Event::MacRxArrival {
                seq, dropped, at, ..
            } => {
                let name = if dropped { "drop" } else { "arrival" };
                self.instant(Track::MacRx, name, at, Some(("seq", seq as u64)));
            }
            Event::MacRxDescPublish { seq, error, at } => {
                let name = if error { "desc_error" } else { "desc" };
                self.instant(Track::MacRx, name, at, Some(("seq", seq as u64)));
            }
            Event::HostTxPost { seq, at } => {
                self.instant(Track::Driver, "tx_post", at, Some(("seq", seq as u64)));
            }
            Event::HostRxDeliver { seq, at, .. } => {
                self.instant(Track::Driver, "rx_deliver", at, Some(("seq", seq as u64)));
            }
            Event::MailboxWrite { reg, value, at } => {
                let _ = reg;
                self.instant(Track::Driver, "doorbell", at, Some(("value", value as u64)));
            }
            Event::SpGrant { bank, at, .. } => {
                if self.bank_grants.len() <= bank {
                    self.bank_grants.resize(bank + 1, 0);
                    self.bank_conflicts.resize(bank + 1, 0);
                }
                self.bank_grants[bank] += 1;
                if self.bank_grants[bank].is_multiple_of(BANK_SAMPLE) {
                    let args = [
                        ("grants", self.bank_grants[bank]),
                        ("conflicts", self.bank_conflicts[bank]),
                    ];
                    self.push(Entry {
                        track: Track::Bank(bank),
                        name: "sp",
                        ph: b'C',
                        ts: at,
                        dur: Ps::ZERO,
                        args,
                        nargs: 2,
                    });
                }
            }
            Event::SpConflict { bank, .. } => {
                if self.bank_conflicts.len() <= bank {
                    self.bank_grants.resize(bank + 1, 0);
                    self.bank_conflicts.resize(bank + 1, 0);
                }
                self.bank_conflicts[bank] += 1;
            }
            Event::WindowReset { at } => {
                self.instant(Track::Driver, "window_reset", at, None);
            }
            Event::Fault {
                kind,
                unit,
                info,
                at,
            } => {
                self.instant(
                    unit_track(unit),
                    kind.label(),
                    at,
                    Some(("info", info as u64)),
                );
            }
            Event::Recovery {
                kind,
                unit,
                info,
                at,
            } => {
                self.instant(
                    unit_track(unit),
                    kind.label(),
                    at,
                    Some(("info", info as u64)),
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DmaDir;

    #[test]
    fn handler_edges_become_slices() {
        let mut t = ChromeTrace::new();
        t.emit(Event::HandlerEnter {
            core: 0,
            func: "fetch_bd",
            at: Ps(100),
        });
        t.emit(Event::HandlerEnter {
            core: 0,
            func: "send_frame",
            at: Ps(900),
        });
        assert_eq!(t.len(), 1);
        let mut out = Vec::new();
        t.write_to(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("\"fetch_bd\""), "{s}");
        assert!(s.contains("\"thread_name\""));
        assert!(s.contains("core0"));
    }

    #[test]
    fn dma_spans_pair_start_done() {
        let mut t = ChromeTrace::new();
        t.emit(Event::DmaStart {
            dir: DmaDir::Read,
            idx: 5,
            src: 0,
            dst: 0,
            bytes: 1514,
            at: Ps(10),
        });
        t.emit(Event::DmaDone {
            dir: DmaDir::Read,
            idx: 5,
            at: Ps(500),
        });
        assert_eq!(t.len(), 1);
        let mut out = Vec::new();
        t.write_to(&mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("\"idx\":5"));
    }

    #[test]
    fn limit_caps_entries() {
        let mut t = ChromeTrace::with_limit(2);
        for i in 0..5u64 {
            t.emit(Event::MacRxArrival {
                seq: i as u32,
                len: 60,
                dropped: false,
                at: Ps(i * 100),
            });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn fault_and_recovery_become_instants() {
        let mut t = ChromeTrace::new();
        t.emit(Event::Fault {
            kind: crate::FaultKind::DmaError,
            unit: crate::FaultUnit::DmaRead,
            info: 3,
            at: Ps(100),
        });
        t.emit(Event::Recovery {
            kind: crate::RecoveryKind::WatchdogReset,
            unit: crate::FaultUnit::DmaRead,
            info: 0,
            at: Ps(200),
        });
        assert_eq!(t.len(), 2);
        let mut out = Vec::new();
        t.write_to(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("fault:dma_error"), "{s}");
        assert!(s.contains("recovery:watchdog_reset"), "{s}");
        assert!(s.contains("\"info\":3"), "{s}");
    }

    #[test]
    fn output_is_json_shaped() {
        let mut t = ChromeTrace::new();
        t.emit(Event::WindowReset { at: Ps(42) });
        let mut out = Vec::new();
        t.write_to(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with('{') && s.trim_end().ends_with('}'));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }
}
