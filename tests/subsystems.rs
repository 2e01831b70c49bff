//! Cross-crate subsystem tests that exercise component seams the unit
//! tests inside each crate cannot reach.

use nicsim::{DmaDir, NullProbe};
use nicsim_assists::{Dma, RingRegs};
use nicsim_firmware::map::{self, MemMap};
use nicsim_host::{Driver, DriverConfig, HostLayout, HostMemory, Mailbox};
use nicsim_mem::{Crossbar, FrameMemory, FrameMemoryConfig, Scratchpad, SpOp, SpRequest, StreamId};
use nicsim_net::frame::{build_udp_frame, validate_frame};
use nicsim_sim::Ps;

#[test]
fn dma_read_cycles_its_ring_many_times() {
    // Push 3x the ring depth of descriptor-fetch commands through the
    // engine, simulating the firmware's producer, and check every copy.
    let mut sp = Scratchpad::new(256 * 1024, 4);
    let mut xbar = Crossbar::new(1, 4);
    let mut host = HostMemory::new(1 << 20);
    let mut fm = FrameMemory::new(FrameMemoryConfig::default());
    let entries = 8u32;
    let regs = RingRegs {
        ring: 0x1000,
        entries,
        prod: 0x100,
        done: 0x104,
    };
    let mut eng = Dma::new(DmaDir::Read, 0, regs, 0);
    let total = entries * 3;
    for i in 0..total {
        host.write_u32(0x8000 + i * 4, 0xbeef_0000 | i);
    }
    let mut now = Ps::ZERO;
    let mut issued = 0u32;
    for _ in 0..40_000 {
        now += Ps(5000);
        // Produce while there is claim-side room (mimic the firmware:
        // the claim follows the done counter here).
        let done = sp.peek(0x104);
        if issued < total && issued.wrapping_sub(done) < entries {
            let base = 0x1000 + (issued % entries) * 16;
            sp.poke(base, 0x8000 + issued * 4); // host src
            sp.poke(base + 4, 0x2000 + issued * 4); // scratchpad dst
            sp.poke(base + 8, 4 | nicsim_assists::cmd::FLAG_SP);
            sp.poke(base + 12, issued);
            issued += 1;
            sp.poke(0x100, issued);
        }
        xbar.tick(&mut sp);
        eng.tick_probed(now, &mut xbar, &sp, &mut host, &mut fm, &mut NullProbe);
        for c in fm.advance(now) {
            eng.on_sdram_complete_probed(c.tag, None, &mut host, now, &mut NullProbe);
        }
        if sp.peek(0x104) == total {
            break;
        }
    }
    assert_eq!(sp.peek(0x104), total, "all commands must complete");
    for i in 0..total {
        assert_eq!(sp.peek(0x2000 + i * 4), 0xbeef_0000 | i, "copy {i}");
    }
}

#[test]
fn driver_reassembles_every_posted_frame() {
    // The driver splits each frame into header and payload fragments;
    // stitching BD pairs back together must reproduce the frame bytes.
    let layout = HostLayout::default();
    let mut mem = HostMemory::new(layout.memory_size());
    let mut drv = Driver::new(
        DriverConfig {
            udp_payload: 333,
            ..DriverConfig::default()
        },
        layout,
    );
    drv.tick_probed(Ps::ZERO, &mut mem, &mut NullProbe);
    let writes = drv.take_mailbox_writes();
    let bds = writes
        .iter()
        .find(|w| w.reg == Mailbox::SendBdProd)
        .unwrap()
        .value;
    assert!(bds >= 2 && bds % 2 == 0);
    for pair in 0..bds / 2 {
        let bd0 = layout.send_bd_ring + pair * 32;
        let bd1 = bd0 + 16;
        let mut frame = mem.read(mem.read_u32(bd0), mem.read_u32(bd0 + 4)).to_vec();
        frame.extend_from_slice(mem.read(mem.read_u32(bd1), mem.read_u32(bd1 + 4)));
        frame.extend_from_slice(&[0u8; 4]);
        let info = validate_frame(&frame).unwrap();
        assert_eq!(info.seq, pair);
        assert_eq!(info.udp_payload, 333);
    }
}

#[test]
fn frame_memory_handles_interleaved_duplex_streams() {
    // Model the real usage: MAC RX writes while MAC TX reads, DMA engines
    // on both sides, contents never mix.
    let mut fm = FrameMemory::new(FrameMemoryConfig::default());
    let mut now = Ps::ZERO;
    let frames: Vec<Vec<u8>> = (0..16u32).map(|i| build_udp_frame(i, 700)).collect();
    for (i, f) in frames.iter().enumerate() {
        now += Ps(500);
        let base = (i as u32) * 2048;
        fm.submit_write(StreamId::DmaRead, base, f, i as u64, now);
        fm.submit_write(StreamId::MacRx, 0x40_0000 + base, f, 100 + i as u64, now);
    }
    fm.advance(Ps::from_ms(1));
    now = Ps::from_ms(1);
    for (i, f) in frames.iter().enumerate() {
        now += Ps(500);
        let base = (i as u32) * 2048;
        fm.submit_read(StreamId::MacTx, base, f.len() as u32, i as u64, now);
        fm.submit_read(
            StreamId::DmaWrite,
            0x40_0000 + base,
            f.len() as u32,
            100 + i as u64,
            now,
        );
    }
    let done = fm.advance(Ps::from_ms(2));
    assert_eq!(done.len(), 32);
    for c in done {
        let i = (c.tag % 100) as usize;
        assert_eq!(
            fm.peek(c.addr, c.len),
            &frames[i][..],
            "stream {:?}",
            c.stream
        );
    }
}

#[test]
fn scratchpad_rmw_sequences_model_the_ordering_protocol() {
    // A miniature of the firmware's ready/commit protocol over the raw
    // scratchpad ops, including bit-array word crossings.
    let mut sp = Scratchpad::new(1024, 4);
    let bits = 128u32;
    let mut commit = 0u32;
    // Frames complete in a scrambled order; commits only advance over
    // the in-order prefix.
    let order = [3u32, 0, 1, 5, 2, 4, 7, 6, 30, 31, 32, 33, 8];
    let mut committed = Vec::new();
    for &f in &order {
        sp.execute(SpRequest {
            addr: bits + (f / 32) * 4,
            op: SpOp::SetBit((f % 32) as u8),
        });
        loop {
            let run = sp.execute(SpRequest {
                addr: bits + (commit / 32) * 4,
                op: SpOp::Update {
                    start_bit: (commit % 32) as u8,
                },
            });
            if run == 0 {
                break;
            }
            for k in 0..run {
                committed.push(commit + k);
            }
            commit += run;
        }
    }
    // Frames 0..=7 commit once 6 lands; 8 commits immediately after;
    // 30..=33 stay pending (frames 9..29 missing).
    assert_eq!(committed, vec![0, 1, 2, 3, 4, 5, 6, 7, 8]);
    assert_eq!(commit, 9);
    // The pending bits survive for the eventual commit.
    assert_ne!(sp.peek(bits), 0x0, "bits 30,31 still set");
    assert_ne!(sp.peek(bits + 4), 0, "bits 32,33 still set");
}

#[test]
fn memory_map_counters_are_bank_spread() {
    // The hot progress counters should not all collide on one bank,
    // or the crossbar would serialize the dispatch loop's polling.
    let m = MemMap::new();
    let sp = Scratchpad::new(256 * 1024, 4);
    let hot = [
        m.send_bd.mailbox_prod,
        m.dmard(0).done,
        m.mactx_done,
        m.macrx_prod,
        m.dmawr(0).done,
        m.recv_bd.mailbox_prod,
    ];
    let banks: std::collections::HashSet<usize> = hot.iter().map(|&a| sp.bank_of(a)).collect();
    assert!(banks.len() >= 3, "hot counters bunched on {banks:?}");
}

#[test]
#[allow(clippy::assertions_on_constants)] // the relations, not the values, are under test
fn map_constants_are_mutually_consistent() {
    // Structural relations other components rely on.
    assert_eq!(map::SLOTS % 32, 0, "bit arrays are whole words");
    assert!(map::MACTX_RING >= map::SLOTS, "MAC TX ring cannot overflow");
    assert!(map::STAGING >= map::SLOTS, "staging outlives slot reuse");
    assert!(
        map::DMA_RING >= 2 * map::SLOTS + map::BD_CACHE / map::SEND_BD_BATCH,
        "DMA ring must exceed its structural outstanding bound"
    );
    assert!(map::BD_CACHE.is_multiple_of(map::SEND_BD_BATCH));
    assert!(map::BD_CACHE.is_multiple_of(map::RECV_BD_BATCH));
    assert!(
        FrameMemoryConfig::default().capacity >= map::RXBUF_BASE + map::RXBUF_BYTES,
        "the frame memory holds the receive region"
    );
}
