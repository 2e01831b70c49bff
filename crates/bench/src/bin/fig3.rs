//! Figure 3: cache hit ratio for the 6-core configuration with MESI
//! coherence, per-processor cache sizes 16 B – 32 KB, fully associative,
//! LRU, 16-byte lines. DMA read/write traces are interleaved into one
//! cache and MAC TX/RX into another, as the paper does for SMPCache's
//! 8-cache limit. Writes `results/fig3.json` with the hit-ratio curve
//! under `"extra"`.

use nicsim::NicConfig;
use nicsim_bench::{header, Args};
use nicsim_coherence::{sweep_sizes, Access};
use nicsim_exp::Json;
use nicsim_mem::{AccessKind, AccessTrace};

/// The paper filters traces "to include only frame metadata". Locks,
/// progress counters, statistics, and the per-core event scratch are
/// synchronization/queue state, not metadata; what remains is the
/// descriptor rings, BD caches and pools, frame slots, status bits, and
/// return-descriptor staging.
fn is_frame_metadata(m: &nicsim_firmware::MemMap, addr: u32) -> bool {
    addr >= m.dmard(0).ring && addr < m.stats
}

fn main() {
    let args = Args::parse("fig3");
    let exp = &args.exp;
    header(
        "Figure 3: MESI hit ratio vs per-processor cache size (6 cores)",
        "hit ratio never exceeds ~55%; <1% of writes invalidate",
    );
    let cfg = args.configure(NicConfig::default());
    let (run, sys) = exp.run_with_probe("rmw@166+trace", cfg, AccessTrace::with_limit(2_000_000));
    let cores = sys.config().cores;
    let first_mac = sys.config().topology.mactx_port(cores);
    let m = sys.map();
    let trace = sys.unwrap_probe();
    // Cores keep their ids; DMA engines -> cache 6; MAC pair -> cache 7.
    let merged = trace.merge_requesters(|r| {
        if r < cores {
            r
        } else if r < first_mac {
            cores // every DMA read + DMA write port interleaved
        } else {
            cores + 1 // MAC TX + MAC RX interleaved
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
        "replaying {} metadata accesses into 8 caches",
        accesses.len()
    );
    let sizes: Vec<usize> = (4..=15).map(|p| 1usize << p).collect(); // 16B..32KB
    println!(
        "{:>10} {:>12} {:>22}",
        "size", "hit ratio %", "invalidating writes %"
    );
    let mut max_ratio: f64 = 0.0;
    let mut curve = Vec::new();
    for (size, ratio, inv) in sweep_sizes(cores + 2, 16, &sizes, &accesses) {
        println!("{:>10} {:>12.1} {:>22.2}", size, ratio, inv * 100.0);
        max_ratio = max_ratio.max(ratio);
        curve.push(
            Json::obj()
                .with("cache_bytes", size)
                .with("hit_ratio_pct", ratio)
                .with("invalidating_writes_pct", inv * 100.0),
        );
    }
    println!("maximum collective hit ratio: {max_ratio:.1}% (paper: never above 55%)");
    let extra = Json::obj()
        .with("metadata_accesses", accesses.len())
        .with("max_hit_ratio_pct", max_ratio)
        .with("mesi_curve", Json::Arr(curve));
    exp.finish(vec![run], Some(extra)).expect("write results");
}
