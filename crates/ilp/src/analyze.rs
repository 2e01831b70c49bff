//! The idealized IPC computation for Table 2.
//!
//! For each processor configuration the analyzer schedules the expanded
//! trace onto an infinite machine with only the configured constraints
//! active:
//!
//! * **issue width** — at most `width` instructions begin per cycle;
//! * **issue order** — in-order machines cannot issue instruction *i+1*
//!   before instruction *i*'s issue cycle; out-of-order machines issue
//!   any instruction whose operands are ready (infinite window);
//! * **pipeline** — `Perfect` completes everything in one cycle (the
//!   only limit is that dependent instructions cannot issue in the same
//!   cycle); `Stalls` models the five-stage pipeline with full
//!   forwarding: a load's consumer must wait one extra cycle, and only
//!   one memory operation can issue per cycle;
//! * **branch prediction** — `Perfect` (any number of correct branches
//!   per cycle), `Pbp1` (one perfectly-predicted branch per cycle), or
//!   `None` (a branch stops all further issue until the next cycle).

use crate::expand::{Inst, InstKind};

/// In-order or out-of-order issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueOrder {
    /// Instructions issue in program order.
    InOrder,
    /// Any ready instruction may issue (infinite window).
    OutOfOrder,
}

/// Pipeline model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineModel {
    /// All instructions complete in a single cycle.
    Perfect,
    /// Five-stage pipeline with forwarding: load-use stalls one cycle;
    /// one memory operation per cycle.
    Stalls,
}

/// Branch prediction model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchModel {
    /// Unlimited correctly-predicted branches per cycle.
    Perfect,
    /// A single correctly-predicted branch per cycle.
    Pbp1,
    /// No prediction: nothing after a branch (in program order) issues
    /// until the next cycle (the paper's definition: "a branch stops any
    /// further instructions from issuing until the next cycle").
    None,
}

/// One processor configuration of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessorConfig {
    /// Issue order.
    pub order: IssueOrder,
    /// Issue width.
    pub width: u32,
    /// Pipeline model.
    pub pipeline: PipelineModel,
    /// Branch model.
    pub branches: BranchModel,
}

#[derive(Default, Clone, Copy)]
struct CycleState {
    issued: u32,
    mem_issued: u32,
    branches: u32,
    branch_blocked: bool,
}

/// Compute the theoretical IPC of `trace` under `cfg`.
///
/// Returns 0.0 for an empty trace.
pub fn analyze(trace: &[Inst], cfg: ProcessorConfig) -> f64 {
    if trace.is_empty() {
        return 0.0;
    }
    // Register -> cycle at which its value becomes usable by a
    // dependent instruction's issue.
    let mut ready_at = [0u64; 32];
    // Per-cycle issue bookkeeping, indexed by cycle and grown on demand:
    // out-of-order issue can schedule into the past relative to the scan
    // point, and cycles never touched read as empty.
    let mut cycles: Vec<CycleState> = Vec::new();
    let mut prev_issue = 0u64;
    let mut last_cycle = 0u64;
    // With no branch prediction, instructions after a branch cannot
    // issue before this cycle.
    let mut branch_fence = 0u64;
    // Saturation skip pointers (keep the scan amortized-linear): every
    // cycle below `width_full_below` has all issue slots taken; every
    // cycle below `mem_full_below` has its memory slot taken. Skipping
    // them is sound — such cycles can never accept the instruction.
    let mut width_full_below = 0u64;
    let mut mem_full_below = 0u64;

    for (idx, inst) in trace.iter().enumerate() {
        // Earliest cycle permitted by data dependences. The global rate
        // bound (at most `width` instructions per cycle, so instruction
        // i can never issue before cycle i/width) keeps the scan pinned
        // near the frontier.
        let mut earliest = branch_fence
            .max(width_full_below)
            .max(idx as u64 / cfg.width as u64);
        if cfg.pipeline == PipelineModel::Stalls
            && matches!(inst.kind, InstKind::Load | InstKind::Store)
        {
            earliest = earliest.max(mem_full_below);
        }
        for s in inst.srcs.into_iter().flatten() {
            earliest = earliest.max(ready_at[s as usize]);
        }
        if cfg.order == IssueOrder::InOrder {
            earliest = earliest.max(prev_issue);
        }
        // Find a cycle with a free slot satisfying structural rules.
        let mut c = earliest;
        loop {
            if cycles.len() <= c as usize {
                cycles.resize(c as usize + 1, CycleState::default());
            }
            let st = &mut cycles[c as usize];
            let width_ok = st.issued < cfg.width;
            let mem_ok = cfg.pipeline == PipelineModel::Perfect
                || inst.kind == InstKind::Alu
                || inst.kind == InstKind::Branch
                || st.mem_issued < 1;
            let branch_ok = match (cfg.branches, inst.kind) {
                (BranchModel::Perfect, _) => true,
                (BranchModel::Pbp1, InstKind::Branch) => st.branches < 1,
                (BranchModel::Pbp1, _) => true,
                (BranchModel::None, _) => !st.branch_blocked,
            };
            if width_ok && mem_ok && branch_ok {
                st.issued += 1;
                let issued_now = st.issued;
                let is_mem = matches!(inst.kind, InstKind::Load | InstKind::Store);
                if is_mem {
                    st.mem_issued += 1;
                }
                if inst.kind == InstKind::Branch {
                    st.branches += 1;
                    if cfg.branches == BranchModel::None {
                        st.branch_blocked = true;
                        branch_fence = c + 1;
                    }
                }
                // Advance the saturation skip pointers (amortized O(1)).
                if issued_now >= cfg.width {
                    while cycles
                        .get(width_full_below as usize)
                        .is_some_and(|s| s.issued >= cfg.width)
                    {
                        width_full_below += 1;
                    }
                }
                if is_mem {
                    while cycles
                        .get(mem_full_below as usize)
                        .is_some_and(|s| s.mem_issued >= 1)
                    {
                        mem_full_below += 1;
                    }
                }
                break;
            }
            c += 1;
        }
        // Producer latency.
        if let Some(d) = inst.dst {
            let lat = match (cfg.pipeline, inst.kind) {
                (PipelineModel::Stalls, InstKind::Load) => 2,
                _ => 1,
            };
            ready_at[d as usize] = c + lat;
        }
        prev_issue = c;
        last_cycle = last_cycle.max(c);
    }
    trace.len() as f64 / (last_cycle + 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::{expand, TraceOp};

    fn cfg(order: IssueOrder, width: u32, pipe: PipelineModel, bp: BranchModel) -> ProcessorConfig {
        ProcessorConfig {
            order,
            width,
            pipeline: pipe,
            branches: bp,
        }
    }

    fn firmware_like_trace() -> Vec<Inst> {
        // Mimics the firmware mix: ~1/3 memory operations, frequent
        // load-use chains, a branch roughly every seven instructions.
        let mut ops = Vec::new();
        for i in 0..800u32 {
            ops.push(TraceOp::Load);
            ops.push(TraceOp::Alu(1));
            ops.push(TraceOp::Load);
            ops.push(TraceOp::Alu(1 + i % 2));
            ops.push(TraceOp::Branch {
                mispredict: i % 3 == 0,
            });
            ops.push(TraceOp::Store);
        }
        expand(&ops)
    }

    #[test]
    fn single_issue_in_order_cannot_exceed_one() {
        let t = firmware_like_trace();
        let ipc = analyze(
            &t,
            cfg(
                IssueOrder::InOrder,
                1,
                PipelineModel::Perfect,
                BranchModel::Perfect,
            ),
        );
        assert!(ipc <= 1.0 + 1e-9);
        assert!(ipc > 0.5);
    }

    #[test]
    fn width_never_hurts() {
        let t = firmware_like_trace();
        for order in [IssueOrder::InOrder, IssueOrder::OutOfOrder] {
            let mut prev = 0.0;
            for w in [1, 2, 4] {
                let ipc = analyze(&t, cfg(order, w, PipelineModel::Stalls, BranchModel::Pbp1));
                assert!(ipc + 1e-9 >= prev, "width {w} regressed: {ipc} < {prev}");
                prev = ipc;
            }
        }
    }

    #[test]
    fn out_of_order_at_least_in_order() {
        let t = firmware_like_trace();
        for w in [1, 2, 4] {
            for pipe in [PipelineModel::Perfect, PipelineModel::Stalls] {
                for bp in [BranchModel::Perfect, BranchModel::Pbp1, BranchModel::None] {
                    let io = analyze(&t, cfg(IssueOrder::InOrder, w, pipe, bp));
                    let ooo = analyze(&t, cfg(IssueOrder::OutOfOrder, w, pipe, bp));
                    assert!(ooo + 1e-9 >= io, "w={w} {pipe:?} {bp:?}: {ooo} < {io}");
                }
            }
        }
    }

    #[test]
    fn stalls_reduce_ipc() {
        let t = firmware_like_trace();
        let perfect = analyze(
            &t,
            cfg(
                IssueOrder::InOrder,
                2,
                PipelineModel::Perfect,
                BranchModel::Perfect,
            ),
        );
        let stalls = analyze(
            &t,
            cfg(
                IssueOrder::InOrder,
                2,
                PipelineModel::Stalls,
                BranchModel::Perfect,
            ),
        );
        assert!(stalls < perfect);
    }

    #[test]
    fn branch_models_order_correctly() {
        let t = firmware_like_trace();
        let perfect = analyze(
            &t,
            cfg(
                IssueOrder::OutOfOrder,
                4,
                PipelineModel::Stalls,
                BranchModel::Perfect,
            ),
        );
        let pbp1 = analyze(
            &t,
            cfg(
                IssueOrder::OutOfOrder,
                4,
                PipelineModel::Stalls,
                BranchModel::Pbp1,
            ),
        );
        let none = analyze(
            &t,
            cfg(
                IssueOrder::OutOfOrder,
                4,
                PipelineModel::Stalls,
                BranchModel::None,
            ),
        );
        // Greedy program-order list scheduling is within a small
        // tolerance of monotone across branch models.
        assert!(perfect * 1.03 >= pbp1, "{perfect} vs {pbp1}");
        assert!(pbp1 * 1.03 >= none, "{pbp1} vs {none}");
    }

    #[test]
    fn paper_trend_in_order_prefers_hazard_removal() {
        // "For an in-order processor, it is more important to eliminate
        // pipeline hazards than to predict branches."
        let t = firmware_like_trace();
        let fix_pipe = analyze(
            &t,
            cfg(
                IssueOrder::InOrder,
                4,
                PipelineModel::Perfect,
                BranchModel::None,
            ),
        );
        let fix_bp = analyze(
            &t,
            cfg(
                IssueOrder::InOrder,
                4,
                PipelineModel::Stalls,
                BranchModel::Perfect,
            ),
        );
        assert!(
            fix_pipe > fix_bp,
            "perfect pipeline ({fix_pipe:.2}) should beat perfect BP ({fix_bp:.2}) in order"
        );
    }

    #[test]
    fn paper_trend_branch_prediction_matters_more_out_of_order() {
        // "Conversely, for an out-of-order processor, it is more
        // important to accurately predict branches" — branch prediction
        // buys an out-of-order machine more than it buys an in-order
        // machine (which hides little behind a branch anyway).
        let t = firmware_like_trace();
        let gain = |order| {
            analyze(
                &t,
                cfg(order, 4, PipelineModel::Stalls, BranchModel::Perfect),
            ) - analyze(&t, cfg(order, 4, PipelineModel::Stalls, BranchModel::None))
        };
        let ooo = gain(IssueOrder::OutOfOrder);
        let io = gain(IssueOrder::InOrder);
        assert!(
            ooo > io,
            "BP gain out-of-order ({ooo:.2}) should exceed in-order ({io:.2})"
        );
    }

    #[test]
    fn empty_trace_is_zero() {
        assert_eq!(
            analyze(
                &[],
                cfg(
                    IssueOrder::InOrder,
                    1,
                    PipelineModel::Perfect,
                    BranchModel::Perfect
                )
            ),
            0.0
        );
    }

    #[test]
    fn serial_dependence_chain_caps_ipc_at_one() {
        // A pure chain: each ALU reads the previous result.
        let insts: Vec<Inst> = (0..100)
            .map(|i| Inst {
                kind: InstKind::Alu,
                dst: Some((i % 30 + 1) as u8),
                srcs: [Some(((i + 29) % 30 + 1) as u8), None],
            })
            .collect();
        let ipc = analyze(
            &insts,
            cfg(
                IssueOrder::OutOfOrder,
                4,
                PipelineModel::Perfect,
                BranchModel::Perfect,
            ),
        );
        assert!((ipc - 1.0).abs() < 0.05, "chain IPC {ipc}");
    }
}
