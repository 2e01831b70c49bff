//! The system-definition layer: declarative SoC composition.
//!
//! The paper's architecture is programmable precisely so that design
//! points — core counts, assist mix, memory banking — can be explored
//! without respinning hardware. This module makes the simulator match:
//! instead of `NicSystem::build` hand-wiring one fixed topology, a
//! [`SysDef`] *describes* the SoC as a list of components, each with a
//! declared clock-domain membership and interconnect attachment, and
//! the system builder assembles whatever the definition says.
//!
//! A definition is derived from [`NicConfig`] (via
//! [`SysDef::from_config`], driven by the config's `topology` section),
//! so architecture exploration is a config diff: `NicConfig::builder()
//! .cores(8).dma_engines(2)` composes an eight-core, two-DMA-engine
//! SoC with no simulator changes. The default definition reproduces
//! the paper's board — 6 cores, 4 banks, one DMA engine pair, one MAC
//! — bit-identically to the pre-sysdef hand-wired system (the
//! kernel-equivalence suite pins this).
//!
//! ## Port assignment
//!
//! The crossbar is the paper's "P+4 × S+1" switch generalized to
//! `cores + 2·dma_engines + 2·macs` ports: cores take ports
//! `0..cores`, then every DMA-read engine, every DMA-write engine,
//! every MAC TX, every MAC RX, in that order. With one engine pair and
//! one MAC this is exactly the legacy assignment (`cores`, `cores+1`,
//! `cores+2`, `cores+3`).
//!
//! ## Domains
//!
//! Each component declares the clock domain it belongs to
//! ([`ClockDomain`]): cores, scratchpad banks, and the instruction
//! memory are `Cpu`; DMA engines and the frame memory are `Sdram`
//! (frame-bus side); MACs are `Wire`; the host bridge (driver + host
//! memory) is `Host`. The kernels fold all four into one sequential
//! loop, so membership documents the paper's clocking rather than
//! steering execution ([`SysDef::domain_members`] lists a domain).

use crate::config::{NicConfig, Topology};
use nicsim_sim::ClockDomain;

/// What a component *is* — the discriminant the system builder
/// constructs from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentKind {
    /// A processing core running the firmware dispatch loop.
    Core {
        /// Core id (also its crossbar port).
        id: usize,
    },
    /// One scratchpad bank behind the crossbar.
    ScratchpadBank {
        /// Bank index.
        id: usize,
    },
    /// The per-core instruction memory path.
    InstrMemory,
    /// A DMA read engine (host memory → NIC).
    DmaRead {
        /// Engine id within the topology.
        engine: usize,
    },
    /// A DMA write engine (NIC → host memory).
    DmaWrite {
        /// Engine id within the topology.
        engine: usize,
    },
    /// A transmit MAC.
    MacTx {
        /// MAC id within the topology.
        mac: usize,
    },
    /// A receive MAC.
    MacRx {
        /// MAC id within the topology.
        mac: usize,
    },
    /// The GDDR SDRAM frame memory and its bus.
    FrameMemory,
    /// The host bridge: driver, mailboxes, host memory.
    HostBridge,
}

/// How a component connects to the rest of the SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attachment {
    /// A requester port on the scratchpad crossbar.
    XbarPort(usize),
    /// A responder (bank) side of the crossbar.
    XbarBank(usize),
    /// The frame bus (shared per-stream queues into the SDRAM).
    FrameBus,
    /// The host bus (PCI in the paper).
    HostBus,
    /// No interconnect attachment (e.g. the instruction memory, which
    /// every core reaches over its private fetch path).
    None,
}

/// One registered component: name, kind, clock domain, attachment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentDef {
    /// Stable display name (`core0`, `dmard1`, `mactx0`, ...).
    pub name: String,
    /// What to construct.
    pub kind: ComponentKind,
    /// Clock domain membership (the paper's clocking, §3).
    pub domain: ClockDomain,
    /// Interconnect attachment.
    pub attachment: Attachment,
}

/// The declarative SoC definition the system builder assembles from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SysDef {
    /// Every component, in construction order. Frame-side units appear
    /// grouped by kind (reads, writes, MAC TX, MAC RX) — also their
    /// per-cycle tick order, matching the legacy hand-wired sequence.
    pub components: Vec<ComponentDef>,
    topology: Topology,
    n_cores: usize,
    n_banks: usize,
}

impl SysDef {
    /// Compose the definition for `cfg` — the single source of truth
    /// for how config becomes topology.
    pub fn from_config(cfg: &NicConfig) -> SysDef {
        SysDef::compose(cfg.cores, cfg.banks, cfg.topology)
    }

    /// Compose a definition from explicit counts.
    pub fn compose(cores: usize, banks: usize, topology: Topology) -> SysDef {
        let mut components = Vec::new();
        for id in 0..cores {
            components.push(ComponentDef {
                name: format!("core{id}"),
                kind: ComponentKind::Core { id },
                domain: ClockDomain::Cpu,
                attachment: Attachment::XbarPort(id),
            });
        }
        for id in 0..banks {
            components.push(ComponentDef {
                name: format!("bank{id}"),
                kind: ComponentKind::ScratchpadBank { id },
                domain: ClockDomain::Cpu,
                attachment: Attachment::XbarBank(id),
            });
        }
        components.push(ComponentDef {
            name: "imem".into(),
            kind: ComponentKind::InstrMemory,
            domain: ClockDomain::Cpu,
            attachment: Attachment::None,
        });
        let mut port = cores;
        for engine in 0..topology.dma_engines {
            components.push(ComponentDef {
                name: format!("dmard{engine}"),
                kind: ComponentKind::DmaRead { engine },
                domain: ClockDomain::Sdram,
                attachment: Attachment::XbarPort(port),
            });
            port += 1;
        }
        for engine in 0..topology.dma_engines {
            components.push(ComponentDef {
                name: format!("dmawr{engine}"),
                kind: ComponentKind::DmaWrite { engine },
                domain: ClockDomain::Sdram,
                attachment: Attachment::XbarPort(port),
            });
            port += 1;
        }
        for mac in 0..topology.macs {
            components.push(ComponentDef {
                name: format!("mactx{mac}"),
                kind: ComponentKind::MacTx { mac },
                domain: ClockDomain::Wire,
                attachment: Attachment::XbarPort(port),
            });
            port += 1;
        }
        for mac in 0..topology.macs {
            components.push(ComponentDef {
                name: format!("macrx{mac}"),
                kind: ComponentKind::MacRx { mac },
                domain: ClockDomain::Wire,
                attachment: Attachment::XbarPort(port),
            });
            port += 1;
        }
        components.push(ComponentDef {
            name: "fm".into(),
            kind: ComponentKind::FrameMemory,
            domain: ClockDomain::Sdram,
            attachment: Attachment::FrameBus,
        });
        components.push(ComponentDef {
            name: "host".into(),
            kind: ComponentKind::HostBridge,
            domain: ClockDomain::Host,
            attachment: Attachment::HostBus,
        });
        SysDef {
            components,
            topology,
            n_cores: cores,
            n_banks: banks,
        }
    }

    /// The pre-refactor hand-wired system, written out literally: 6
    /// cores and 4 banks at ports `0..6`, the four assists at ports
    /// `6..10` in read / write / MAC-TX / MAC-RX order, one frame
    /// memory, one host bridge. The equivalence suite checks that
    /// [`SysDef::from_config`] of the default config reproduces this
    /// exactly — the declarative path composes the same SoC the
    /// hand-wired builder used to.
    pub fn hand_wired_default() -> SysDef {
        let mk = |name: &str, kind, domain, attachment| ComponentDef {
            name: name.into(),
            kind,
            domain,
            attachment,
        };
        use Attachment::*;
        use ClockDomain::*;
        use ComponentKind::*;
        let mut components = Vec::new();
        for id in 0..6 {
            components.push(mk(&format!("core{id}"), Core { id }, Cpu, XbarPort(id)));
        }
        for id in 0..4 {
            components.push(mk(
                &format!("bank{id}"),
                ScratchpadBank { id },
                Cpu,
                XbarBank(id),
            ));
        }
        components.push(mk("imem", InstrMemory, Cpu, Attachment::None));
        components.push(mk("dmard0", DmaRead { engine: 0 }, Sdram, XbarPort(6)));
        components.push(mk("dmawr0", DmaWrite { engine: 0 }, Sdram, XbarPort(7)));
        components.push(mk("mactx0", MacTx { mac: 0 }, Wire, XbarPort(8)));
        components.push(mk("macrx0", MacRx { mac: 0 }, Wire, XbarPort(9)));
        components.push(mk("fm", FrameMemory, Sdram, FrameBus));
        components.push(mk("host", HostBridge, Host, HostBus));
        SysDef {
            components,
            topology: Topology::default(),
            n_cores: 6,
            n_banks: 4,
        }
    }

    /// Number of processing cores.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Number of scratchpad banks.
    pub fn n_banks(&self) -> usize {
        self.n_banks
    }

    /// The frame-side unit counts.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Total crossbar requester ports (cores + one per frame-side
    /// scratchpad client).
    pub fn xbar_ports(&self) -> usize {
        self.n_cores + 2 * self.topology.dma_engines + 2 * self.topology.macs
    }

    /// Crossbar port of a component kind, if it has one.
    pub fn port_of(&self, kind: ComponentKind) -> Option<usize> {
        self.components.iter().find_map(|c| match c.attachment {
            Attachment::XbarPort(p) if c.kind == kind => Some(p),
            _ => None,
        })
    }

    /// Crossbar port of DMA-read engine `k`.
    pub fn dmard_port(&self, k: usize) -> usize {
        self.port_of(ComponentKind::DmaRead { engine: k })
            .expect("engine in definition")
    }

    /// Crossbar port of DMA-write engine `k`.
    pub fn dmawr_port(&self, k: usize) -> usize {
        self.port_of(ComponentKind::DmaWrite { engine: k })
            .expect("engine in definition")
    }

    /// Crossbar port of MAC TX `j`.
    pub fn mactx_port(&self, j: usize) -> usize {
        self.port_of(ComponentKind::MacTx { mac: j })
            .expect("mac in definition")
    }

    /// Crossbar port of MAC RX `j`.
    pub fn macrx_port(&self, j: usize) -> usize {
        self.port_of(ComponentKind::MacRx { mac: j })
            .expect("mac in definition")
    }

    /// Components in clock domain `d`.
    pub fn domain_members(&self, d: ClockDomain) -> impl Iterator<Item = &ComponentDef> + '_ {
        self.components.iter().filter(move |c| c.domain == d)
    }

    /// Structural consistency: crossbar ports are unique and cover
    /// `0..xbar_ports()`, banks cover `0..n_banks`, and exactly one
    /// frame memory and host bridge exist. The system builder asserts
    /// this before assembling.
    pub fn check(&self) -> Result<(), String> {
        let mut ports = vec![false; self.xbar_ports()];
        let mut banks = vec![false; self.n_banks];
        let (mut fms, mut hosts) = (0, 0);
        for c in &self.components {
            match c.attachment {
                Attachment::XbarPort(p) => {
                    if p >= ports.len() || ports[p] {
                        return Err(format!("{}: bad or duplicate port {p}", c.name));
                    }
                    ports[p] = true;
                }
                Attachment::XbarBank(b) => {
                    if b >= banks.len() || banks[b] {
                        return Err(format!("{}: bad or duplicate bank {b}", c.name));
                    }
                    banks[b] = true;
                }
                Attachment::FrameBus => fms += 1,
                Attachment::HostBus => hosts += 1,
                Attachment::None => {}
            }
        }
        if !ports.into_iter().all(|p| p) {
            return Err("unattached crossbar port".into());
        }
        if !banks.into_iter().all(|b| b) {
            return Err("unattached scratchpad bank".into());
        }
        if fms != 1 || hosts != 1 {
            return Err(format!(
                "need exactly one frame memory and host bridge (got {fms}, {hosts})"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_composes_the_hand_wired_system() {
        let derived = SysDef::from_config(&NicConfig::default());
        let wired = SysDef::hand_wired_default();
        assert_eq!(derived, wired);
        derived.check().unwrap();
    }

    #[test]
    fn legacy_port_assignment_is_preserved() {
        let d = SysDef::from_config(&NicConfig::default());
        assert_eq!(d.xbar_ports(), 10);
        assert_eq!(d.dmard_port(0), 6);
        assert_eq!(d.dmawr_port(0), 7);
        assert_eq!(d.mactx_port(0), 8);
        assert_eq!(d.macrx_port(0), 9);
    }

    #[test]
    fn non_default_topologies_check_out() {
        for (cores, dma, macs) in [(2, 2, 1), (8, 2, 2), (4, 1, 2)] {
            let d = SysDef::compose(
                cores,
                4,
                Topology {
                    dma_engines: dma,
                    macs,
                },
            );
            d.check().unwrap();
            assert_eq!(d.xbar_ports(), cores + 2 * dma + 2 * macs);
            // Grouped-by-kind port order: reads, writes, TX, RX.
            assert_eq!(d.dmard_port(0), cores);
            assert_eq!(d.dmawr_port(0), cores + dma);
            assert_eq!(d.mactx_port(0), cores + 2 * dma);
            assert_eq!(d.macrx_port(0), cores + 2 * dma + macs);
        }
    }

    #[test]
    fn domain_membership_is_declared_per_component() {
        let d = SysDef::from_config(&NicConfig::default());
        let names = |dom| -> Vec<&str> { d.domain_members(dom).map(|c| c.name.as_str()).collect() };
        assert_eq!(names(ClockDomain::Sdram), ["dmard0", "dmawr0", "fm"]);
        assert_eq!(names(ClockDomain::Wire), ["mactx0", "macrx0"]);
        assert_eq!(d.domain_members(ClockDomain::Cpu).count(), 6 + 4 + 1);
        assert_eq!(d.domain_members(ClockDomain::Host).count(), 1);
    }
}
