//! A compact version of the Figure 3 coherence study: would per-core
//! coherent caches have worked instead of the scratchpad?
//!
//! Captures the metadata access trace of a real 6-core line-rate run
//! (driven through the experiment engine), replays it through the MESI
//! simulator at several cache sizes, and shows why the paper chose a
//! program-managed scratchpad.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example cache_study
//! ```

use nicsim_coherence::{sweep_sizes, Access};
use nicsim_mem::{AccessKind, AccessTrace};
use nicsim_repro::{Experiment, NicConfig};

/// The paper filters traces "to include only frame metadata". Locks,
/// progress counters, statistics, and the per-core event scratch are
/// synchronization/queue state, not metadata; what remains is the
/// descriptor rings, BD caches and pools, frame slots, status bits, and
/// return-descriptor staging.
fn is_frame_metadata(m: &nicsim_firmware::MemMap, addr: u32) -> bool {
    addr >= m.dmard(0).ring && addr < m.stats
}

fn main() {
    let exp = Experiment::new("cache_study").windows_ms(1, 1).quiet();
    let cfg = NicConfig::default();
    let (_, sys) = exp.run_with_probe("trace", cfg, AccessTrace::with_limit(500_000));
    let cores = sys.config().cores;

    let m = sys.map();
    let trace = sys.unwrap_probe();
    // SMPCache models at most 8 caches: merge the DMA engines into one
    // requester and the MAC units into another, like the paper.
    let merged = trace.merge_requesters(|r| {
        if r < cores {
            r
        } else if r < cores + 2 {
            cores
        } else {
            cores + 1
        }
    });
    let accesses: Vec<Access> = merged
        .records()
        .iter()
        .filter(|r| is_frame_metadata(&m, r.addr))
        .map(|r| Access {
            requester: r.requester,
            addr: r.addr as u64,
            write: r.kind == AccessKind::Write,
        })
        .collect();
    println!(
        "captured {} metadata accesses from a line-rate run ({} requester caches)",
        accesses.len(),
        cores + 2
    );
    println!("{:>10} {:>12}", "cache size", "hit ratio %");
    for (size, ratio, _) in sweep_sizes(cores + 2, 16, &[64, 512, 4096, 32768], &accesses) {
        println!("{size:>10} {ratio:>12.1}");
    }
    println!();
    println!(
        "the flat, low curve is the paper's point: NIC metadata is \
         migratory and single-use, so caches waste area that a banked \
         scratchpad spends better"
    );
}
