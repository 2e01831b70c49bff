//! Flow-level workload generation for fleet runs.
//!
//! The paper's evaluation drives one NIC with fixed-size full-duplex
//! UDP streams; a fleet needs richer offered load. A [`Workload`]
//! describes who talks to whom (traffic matrix), how big the datagrams
//! are (fixed, bimodal, or bounded-Pareto heavy tail), and when they
//! leave (constant-rate, Poisson, or bursty arrivals). From it,
//! [`Workload::schedule`] derives a per-NIC transmit schedule — a
//! time-sorted list of [`TxPacket`]s — that the host driver posts
//! instead of the legacy back-to-back stream.
//!
//! Everything is deterministic in `(seed, nic)`: each NIC draws from
//! its own `XorShift64` stream, so schedules are identical however the
//! fleet is sharded and whatever order NICs are built in.

use crate::frame::{MAX_UDP_PAYLOAD, MIN_FRAME};
use crate::link::line_rate_fps;
use nicsim_sim::{Ps, Spec, XorShift64};

/// The spec keys, in [`Workload::spec`] order.
#[rustfmt::skip]
const KEYS: [&str; 16] = [
    "pattern", "shift", "target", "fraction", "size", "small", "large", "small_frac",
    "pareto_min", "alpha", "arrivals", "burst", "fps", "seed", "reliable", "rto_us",
];

/// Who each NIC sends to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Every packet picks a uniform-random destination (never self).
    Uniform,
    /// NIC `i` sends only to NIC `(i + shift) mod n` — a permutation
    /// matrix with no egress contention at the fabric.
    Permutation {
        /// Destination offset; [`Workload::check`] refuses a multiple of
        /// the NIC count, which would send each NIC's traffic to itself.
        shift: usize,
    },
    /// A fraction of traffic converges on one hot NIC; the rest is
    /// uniform.
    Hotspot {
        /// The hot destination.
        target: usize,
        /// Probability each packet goes to the target.
        fraction: f64,
    },
    /// All other NICs send to `target`; the target sends nothing. The
    /// classic incast drop experiment.
    Incast {
        /// The victim NIC.
        target: usize,
    },
}

/// Datagram size distribution (UDP payload bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeMix {
    /// Every datagram carries the same payload size.
    Fixed(usize),
    /// Small/large mix: `small_frac` of packets are `small` bytes, the
    /// rest `large` — the bimodal shape of real datacenter traces.
    Bimodal {
        /// Small payload size.
        small: usize,
        /// Large payload size.
        large: usize,
        /// Fraction of packets that are small.
        small_frac: f64,
    },
    /// Bounded Pareto: heavy-tailed sizes `min / (1-u)^(1/alpha)`
    /// clamped to `[min, 1472]`.
    Pareto {
        /// Minimum payload size (also the distribution scale).
        min: usize,
        /// Tail index; smaller is heavier.
        alpha: f64,
    },
}

/// Packet departure process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Constant bit rate: evenly spaced at the offered rate.
    Cbr,
    /// Poisson: exponential inter-arrival gaps at the offered rate.
    Poisson,
    /// On/off bursts: `burst` back-to-back packets (wire-spaced), then
    /// an exponential gap sized so the long-run rate matches.
    Bursty {
        /// Packets per burst.
        burst: usize,
    },
}

/// A complete fleet workload description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Traffic matrix.
    pub pattern: Pattern,
    /// Datagram size distribution.
    pub sizes: SizeMix,
    /// Departure process.
    pub arrivals: Arrivals,
    /// Offered load per sending NIC, frames per second.
    pub fps: f64,
    /// Master seed; NIC `i` draws from site `i`.
    pub seed: u64,
    /// Reliable delivery: the driver tracks per-flow unacked frames and
    /// retransmits on timeout with exponential backoff, and receivers
    /// deduplicate — goodput then counts delivered-exactly-once frames.
    pub reliable: bool,
    /// Retransmit timeout base, microseconds (attempt `n` waits
    /// `rto_us << n`, capped). Only meaningful with `reliable`.
    pub rto_us: u64,
}

impl Default for Workload {
    /// Uniform pattern, fixed 1472-byte datagrams, CBR at 100k fps.
    fn default() -> Workload {
        Workload {
            pattern: Pattern::Uniform,
            sizes: SizeMix::Fixed(MAX_UDP_PAYLOAD),
            arrivals: Arrivals::Cbr,
            fps: 100_000.0,
            seed: 1,
            reliable: false,
            rto_us: 50,
        }
    }
}

/// One scheduled transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxPacket {
    /// Earliest time the driver may post it.
    pub at: Ps,
    /// Destination NIC id.
    pub dst: u16,
    /// UDP payload bytes.
    pub udp_payload: usize,
}

impl Workload {
    /// Parse a workload spec: comma-separated `key=value` pairs in any
    /// order, each key at most once ([`Spec`]).
    ///
    /// Keys: `pattern` (`uniform` | `permutation` | `hotspot` |
    /// `incast`, default uniform) with `shift` (permutation offset,
    /// default 1), `target` (hotspot/incast destination, default 0) and
    /// `fraction` (hotspot share, default 0.5); one size family: `size`
    /// (fixed payload bytes, default 1472), `small` / `large` /
    /// `small_frac` (bimodal, default 64 / 1472 / 0.9) or `pareto_min` /
    /// `alpha` (bounded Pareto, default 64 / 1.2); `arrivals` (`cbr` |
    /// `poisson` | `bursty`, default cbr) with `burst` (packets per
    /// burst, default 16, at least 1); `fps`, `seed`, `reliable` (`0` |
    /// `1`) and `rto_us` (retransmit timeout base, default 50). A key
    /// the pattern, size family or arrival process does not use is an
    /// error, and so are two size families.
    ///
    /// Example: `pattern=incast,target=0,fps=400000,size=1472,seed=7`.
    ///
    /// # Errors
    ///
    /// Returns a description naming the first bad item or key.
    pub fn parse(spec: &str) -> Result<Workload, String> {
        let w = Workload::read(spec).map_err(|e| format!("workload: {e}"))?;
        w.validate()?;
        Ok(w)
    }

    /// [`Workload::parse`] before the bounds: each enum from its own keys.
    fn read(spec: &str) -> Result<Workload, String> {
        let mut s = Spec::read(spec, &KEYS)?;
        let pattern = match s.get("pattern").unwrap_or("uniform") {
            "uniform" => Pattern::Uniform,
            "permutation" => Pattern::Permutation {
                shift: s.value("shift", 1)?,
            },
            "hotspot" => Pattern::Hotspot {
                target: s.value("target", 0)?,
                fraction: s.value("fraction", 0.5)?,
            },
            "incast" => Pattern::Incast {
                target: s.value("target", 0)?,
            },
            v => return Err(format!("pattern={v}: bad value")),
        };
        let mut family = |keys: &[&'static str]| keys.iter().copied().find(|&k| s.get(k).is_some());
        let sizes = match (
            family(&["size"]),
            family(&["small", "large", "small_frac"]),
            family(&["pareto_min", "alpha"]),
        ) {
            (Some(a), Some(b), _) | (Some(a), None, Some(b)) | (None, Some(a), Some(b)) => {
                return Err(format!("{a} and {b}: two size families"));
            }
            (None, Some(_), None) => SizeMix::Bimodal {
                small: s.value("small", 64)?,
                large: s.value("large", MAX_UDP_PAYLOAD)?,
                small_frac: s.value("small_frac", 0.9)?,
            },
            (None, None, Some(_)) => SizeMix::Pareto {
                min: s.value("pareto_min", 64)?,
                alpha: s.value("alpha", 1.2)?,
            },
            _ => SizeMix::Fixed(s.value("size", MAX_UDP_PAYLOAD)?),
        };
        let arrivals = match s.get("arrivals").unwrap_or("cbr") {
            "cbr" => Arrivals::Cbr,
            "poisson" => Arrivals::Poisson,
            "bursty" => Arrivals::Bursty {
                burst: s.value("burst", 16)?,
            },
            v => return Err(format!("arrivals={v}: bad value")),
        };
        let reliable = match s.get("reliable").unwrap_or("0") {
            "1" | "true" => true,
            "0" | "false" => false,
            v => return Err(format!("reliable={v}: bad value")),
        };
        let d = Workload::default();
        let w = Workload {
            pattern,
            sizes,
            arrivals,
            fps: s.value("fps", d.fps)?,
            seed: s.value("seed", d.seed)?,
            reliable,
            rto_us: s.value("rto_us", d.rto_us)?,
        };
        s.finish()?;
        Ok(w)
    }

    /// The canonical spec: every key that applies, in [`KEYS`] order;
    /// `Workload::parse(&w.spec()) == Ok(w)` for every valid `w`.
    pub fn spec(&self) -> String {
        let pattern = match self.pattern {
            Pattern::Uniform => "uniform".into(),
            Pattern::Permutation { shift } => format!("permutation,shift={shift}"),
            Pattern::Hotspot {
                target: t,
                fraction: f,
            } => format!("hotspot,target={t},fraction={f}"),
            Pattern::Incast { target } => format!("incast,target={target}"),
        };
        let sizes = match self.sizes {
            SizeMix::Fixed(size) => format!("size={size}"),
            SizeMix::Bimodal {
                small: s,
                large: l,
                small_frac: f,
            } => {
                format!("small={s},large={l},small_frac={f}")
            }
            SizeMix::Pareto { min, alpha } => format!("pareto_min={min},alpha={alpha}"),
        };
        let arrivals = match self.arrivals {
            Arrivals::Cbr => "cbr".into(),
            Arrivals::Poisson => "poisson".into(),
            Arrivals::Bursty { burst } => format!("bursty,burst={burst}"),
        };
        let (fps, seed, reliable, rto_us) =
            (self.fps, self.seed, u8::from(self.reliable), self.rto_us);
        format!(
            "pattern={pattern},{sizes},arrivals={arrivals},fps={fps},seed={seed},\
             reliable={reliable},rto_us={rto_us}"
        )
    }

    /// Check internal consistency against a fleet of `nics` NICs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn check(&self, nics: usize) -> Result<(), String> {
        self.validate()?;
        if nics < 2 {
            return Err("workload: a fleet needs at least 2 NICs".into());
        }
        let target = match self.pattern {
            Pattern::Hotspot { target, .. } | Pattern::Incast { target } => Some(target),
            _ => None,
        };
        if let Some(t) = target {
            if t >= nics {
                return Err(format!("workload: target {t} out of range for {nics} NICs"));
            }
        }
        if let Pattern::Permutation { shift } = self.pattern {
            if shift % nics == 0 {
                return Err(format!(
                    "workload: shift={shift}: a multiple of the {nics} NICs sends each to itself"
                ));
            }
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), String> {
        // Nothing faster than minimum frames back to back can be offered
        // to the wire, and `schedule` allocates one packet per gap over
        // the horizon, so an unbounded rate wedges the run. Written so
        // NaN fails too.
        let max_fps = line_rate_fps(MIN_FRAME);
        if !(self.fps > 0.0 && self.fps <= max_fps) {
            return Err(format!(
                "workload: fps must be positive and at most 10 GbE line rate \
                 for minimum frames ({max_fps:.0}), got {:e}",
                self.fps
            ));
        }
        // Each family's payload sizes, and its shape parameter if out of
        // range.
        let (sizes, shape) = match self.sizes {
            SizeMix::Fixed(s) => (vec![("size", s)], None),
            SizeMix::Bimodal {
                small,
                large,
                small_frac: f,
            } => (
                vec![("small", small), ("large", large)],
                Some(("small_frac", f, "must be in [0,1]")).filter(|_| !(0.0..=1.0).contains(&f)),
            ),
            SizeMix::Pareto { min, alpha: a } => (
                vec![("pareto_min", min)],
                Some(("alpha", a, "must be positive")).filter(|_| a.is_nan() || a <= 0.0),
            ),
        };
        if let Some((key, v)) = sizes
            .into_iter()
            .find(|(_, s)| !(4..=MAX_UDP_PAYLOAD).contains(s))
        {
            return Err(format!(
                "workload: {key}={v}: payload size must be in 4..={MAX_UDP_PAYLOAD}"
            ));
        }
        if let Some((key, v, why)) = shape {
            return Err(format!("workload: {key}={v}: {why}"));
        }
        if let Pattern::Hotspot { fraction, .. } = self.pattern {
            if !(0.0..=1.0).contains(&fraction) {
                return Err("workload: hotspot fraction must be in [0,1]".into());
            }
        }
        if self.arrivals == (Arrivals::Bursty { burst: 0 }) {
            return Err("workload: burst=0: a burst is at least 1 packet".into());
        }
        if self.reliable && self.rto_us == 0 {
            return Err("workload: reliable mode needs rto_us >= 1".into());
        }
        // 100 s, `FaultPlan`'s duration bound: in picoseconds it still
        // fits a `u64` after the driver's backoff shift by 6.
        if self.rto_us > 100_000_000 {
            return Err(format!(
                "workload: rto_us must be at most 100 seconds (100000000), got {}",
                self.rto_us
            ));
        }
        Ok(())
    }

    /// Whether `nic` transmits at all under this workload (the incast
    /// victim does not).
    pub fn sends(&self, nic: usize) -> bool {
        !matches!(self.pattern, Pattern::Incast { target } if target == nic)
    }

    /// The transmit schedule for `nic` in a fleet of `nics`, covering
    /// `[0, horizon)`. Deterministic in `(seed, nic)` and independent
    /// of every other NIC's draw.
    ///
    /// # Panics
    ///
    /// Panics if the workload fails [`Workload::check`] for this fleet
    /// size.
    pub fn schedule(&self, nic: usize, nics: usize, horizon: Ps) -> Vec<TxPacket> {
        self.check(nics).expect("workload consistent with fleet");
        let mut out = Vec::new();
        if !self.sends(nic) {
            return out;
        }
        let mut rng = XorShift64::for_site(self.seed, nic as u64);
        let mean_gap = 1e12 / self.fps; // ps
        let mut t = Ps::ZERO;
        // Stagger NIC start phases under CBR so the fleet's aggregate
        // isn't a lockstep impulse train (Poisson/bursty already
        // de-phase naturally).
        if matches!(self.arrivals, Arrivals::Cbr) {
            t = Ps((uniform(&mut rng) * mean_gap) as u64);
        }
        let mut burst_left = 0usize;
        while t < horizon {
            let dst = self.pick_dst(&mut rng, nic, nics);
            let udp_payload = self.pick_size(&mut rng);
            out.push(TxPacket {
                at: t,
                dst: dst as u16,
                udp_payload,
            });
            let gap = match self.arrivals {
                Arrivals::Cbr => mean_gap,
                Arrivals::Poisson => exp_gap(&mut rng, mean_gap),
                Arrivals::Bursty { burst } => {
                    if burst_left == 0 {
                        burst_left = burst;
                    }
                    burst_left -= 1;
                    if burst_left > 0 {
                        // Back-to-back within the burst: one wire time.
                        crate::link::wire_time(crate::frame::frame_len(udp_payload)).0 as f64
                    } else {
                        // The off period carries the rest of the
                        // burst's share of the mean spacing.
                        exp_gap(&mut rng, mean_gap * burst as f64)
                    }
                }
            };
            t += Ps((gap.max(1.0)) as u64);
        }
        out
    }

    fn pick_dst(&self, rng: &mut XorShift64, nic: usize, nics: usize) -> usize {
        match self.pattern {
            Pattern::Uniform => uniform_peer(rng, nic, nics),
            Pattern::Permutation { shift } => (nic + shift % nics) % nics,
            Pattern::Hotspot { target, fraction } => {
                if uniform(rng) < fraction && target != nic {
                    target
                } else {
                    uniform_peer(rng, nic, nics)
                }
            }
            Pattern::Incast { target } => target,
        }
    }

    fn pick_size(&self, rng: &mut XorShift64) -> usize {
        match self.sizes {
            SizeMix::Fixed(s) => s,
            SizeMix::Bimodal {
                small,
                large,
                small_frac,
            } => {
                if uniform(rng) < small_frac {
                    small
                } else {
                    large
                }
            }
            SizeMix::Pareto { min, alpha } => {
                let u = uniform(rng);
                let x = min as f64 / (1.0 - u).powf(1.0 / alpha);
                (x as usize).clamp(min, MAX_UDP_PAYLOAD)
            }
        }
    }
}

/// Uniform draw in [0, 1) from the top 53 bits of the stream.
fn uniform(rng: &mut XorShift64) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Exponential inter-arrival gap with the given mean (ps).
fn exp_gap(rng: &mut XorShift64, mean: f64) -> f64 {
    let u = uniform(rng);
    -(1.0 - u).ln() * mean
}

/// A uniform destination that is never `nic` itself.
fn uniform_peer(rng: &mut XorShift64, nic: usize, nics: usize) -> usize {
    let d = rng.below(nics as u64 - 1) as usize;
    if d >= nic {
        d + 1
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_per_nic_independent() {
        let w = Workload {
            arrivals: Arrivals::Poisson,
            sizes: SizeMix::Pareto {
                min: 64,
                alpha: 1.3,
            },
            ..Workload::default()
        };
        let a = w.schedule(3, 8, Ps::from_ms(2));
        let b = w.schedule(3, 8, Ps::from_ms(2));
        assert_eq!(a, b);
        assert_ne!(a, w.schedule(4, 8, Ps::from_ms(2)));
    }

    #[test]
    fn cbr_rate_is_respected() {
        let w = Workload {
            fps: 200_000.0,
            ..Workload::default()
        };
        let s = w.schedule(0, 4, Ps::from_ms(1));
        // 1 ms at 200k fps = 200 packets (±1 for the phase stagger).
        assert!((199..=201).contains(&s.len()), "{} packets", s.len());
        assert!(s.windows(2).all(|p| p[0].at < p[1].at));
    }

    #[test]
    fn incast_victim_is_silent_and_others_converge() {
        let w = Workload {
            pattern: Pattern::Incast { target: 2 },
            ..Workload::default()
        };
        assert!(w.schedule(2, 4, Ps::from_ms(1)).is_empty());
        let s = w.schedule(0, 4, Ps::from_ms(1));
        assert!(!s.is_empty());
        assert!(s.iter().all(|p| p.dst == 2));
    }

    #[test]
    fn uniform_never_targets_self() {
        let w = Workload::default();
        for nic in 0..4 {
            assert!(w
                .schedule(nic, 4, Ps::from_ms(1))
                .iter()
                .all(|p| p.dst as usize != nic));
        }
    }

    #[test]
    fn pareto_sizes_are_bounded_and_varied() {
        let w = Workload {
            sizes: SizeMix::Pareto {
                min: 64,
                alpha: 1.1,
            },
            arrivals: Arrivals::Poisson,
            ..Workload::default()
        };
        let s = w.schedule(0, 4, Ps::from_ms(4));
        assert!(s.iter().all(|p| (64..=1472).contains(&p.udp_payload)));
        let smalls = s.iter().filter(|p| p.udp_payload < 128).count();
        let bigs = s.iter().filter(|p| p.udp_payload > 512).count();
        assert!(smalls > 0 && bigs > 0, "smalls={smalls} bigs={bigs}");
    }

    #[test]
    fn parse_round_trips_the_interesting_specs() {
        let w = Workload::parse("pattern=incast,target=3,fps=400000,size=256,seed=9").unwrap();
        assert_eq!(w.pattern, Pattern::Incast { target: 3 });
        assert_eq!(w.fps, 400_000.0);
        assert_eq!(w.sizes, SizeMix::Fixed(256));
        assert_eq!(w.seed, 9);
        let w = Workload::parse("pattern=hotspot,target=1,fraction=0.8,arrivals=bursty,burst=8")
            .unwrap();
        assert_eq!(
            w.pattern,
            Pattern::Hotspot {
                target: 1,
                fraction: 0.8
            }
        );
        assert_eq!(w.arrivals, Arrivals::Bursty { burst: 8 });
        let w = Workload::parse("pareto_min=64,alpha=1.5,arrivals=poisson").unwrap();
        assert_eq!(
            w.sizes,
            SizeMix::Pareto {
                min: 64,
                alpha: 1.5
            }
        );
        assert!(Workload::parse("pattern=starlight").is_err());
        assert!(Workload::parse("shift=2").is_err());
        assert!(Workload::parse("nonsense").is_err());
        for fps in ["0", "-1", "nan", "inf", "1e99", "2e7"] {
            let err = Workload::parse(&format!("fps={fps}")).unwrap_err();
            assert!(err.contains("fps"), "fps={fps}: {err}");
        }
        assert!(Workload::parse("fps=1.4e7").is_ok());
    }

    #[test]
    fn parse_reliable_mode_and_rto() {
        let w = Workload::parse("reliable=1,rto_us=30").unwrap();
        assert!(w.reliable);
        assert_eq!(w.rto_us, 30);
        let w = Workload::parse("reliable=0").unwrap();
        assert!(!w.reliable);
        assert_eq!(w.rto_us, 50, "default rto");
        assert!(Workload::parse("reliable=maybe").is_err());
        assert!(Workload::parse("reliable=1,rto_us=0").is_err());
        assert!(Workload::parse("reliable=1,rto_us=100000000").is_ok());
        for rto in ["100000001", "20000000000000"] {
            let err = Workload::parse(&format!("reliable=1,rto_us={rto}")).unwrap_err();
            assert!(err.contains("rto_us"), "rto_us={rto}: {err}");
        }
        assert!(Workload::parse("rto_us=bogus").is_err());
    }

    #[test]
    fn check_rejects_out_of_range_targets() {
        let w = Workload::parse("pattern=incast,target=9").unwrap();
        assert!(w.check(4).is_err());
        assert!(w.check(16).is_ok());
    }

    /// A shift that is a multiple of the NIC count would send every
    /// NIC's traffic to itself: refused naming it, never rewritten.
    #[test]
    fn check_rejects_a_shift_that_maps_each_nic_to_itself() {
        for (spec, nics) in [("shift=8", 8), ("shift=0", 8), ("shift=12", 4)] {
            let w = Workload::parse(&format!("pattern=permutation,{spec}")).unwrap();
            let err = w.check(nics).unwrap_err();
            assert!(err.starts_with(&format!("workload: {spec}: ")), "{err}");
        }
        let w = Workload::parse("pattern=permutation,shift=9").unwrap();
        w.check(8).unwrap();
        let s = w.schedule(3, 8, Ps::from_ms(1));
        assert!(!s.is_empty() && s.iter().all(|p| p.dst == 4));
    }

    /// Each payload-size key is named with its value when out of range.
    #[test]
    fn validate_names_the_size_key_and_value() {
        for spec in [
            "size=2",
            "size=1473",
            "small=3",
            "large=2000",
            "pareto_min=0",
        ] {
            let err = Workload::parse(spec).unwrap_err();
            let want = format!("workload: {spec}: payload size must be in 4..=1472");
            assert_eq!(err, want);
        }
        let err = Workload::parse("small_frac=1.5").unwrap_err();
        assert_eq!(err, "workload: small_frac=1.5: must be in [0,1]");
        let err = Workload::parse("alpha=0").unwrap_err();
        assert_eq!(err, "workload: alpha=0: must be positive");
    }

    #[test]
    fn bursty_long_run_rate_is_close() {
        let w = Workload {
            arrivals: Arrivals::Bursty { burst: 8 },
            fps: 100_000.0,
            sizes: SizeMix::Fixed(256),
            ..Workload::default()
        };
        let s = w.schedule(1, 4, Ps::from_ms(20));
        // 20 ms at 100k fps = 2000 packets; allow generous slack for
        // the stochastic off periods.
        assert!((1200..=2800).contains(&s.len()), "{} packets", s.len());
    }
}
