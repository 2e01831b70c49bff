//! Offline ILP-limit analysis of NIC firmware (paper §2.2, Table 2).
//!
//! The paper derives theoretical peak IPCs from a dynamic instruction
//! trace of idealized firmware under combinations of:
//!
//! * in-order vs. out-of-order issue, widths 1/2/4;
//! * a perfect pipeline (single-cycle completion) vs. a five-stage
//!   pipeline with dependence stalls (load-use takes an extra cycle, one
//!   memory operation per cycle);
//! * perfect branch prediction (PBP — any number of branches per cycle),
//!   a single perfectly-predicted branch per cycle (PBP1), and no branch
//!   prediction (a branch stops further issue until the next cycle).
//!
//! The conclusion — that a simple single-issue in-order core captures
//! most of the available ILP, so the complexity of wide/out-of-order
//! issue is better spent on more cores — motivates the architecture.
//!
//! This crate expands a coarse operation trace of the running firmware
//! into register-level instructions with realistic dependence chains
//! ([`expand`]) and computes the idealized IPC for each processor
//! configuration ([`analyze`]).

#![forbid(unsafe_code)]

pub mod analyze;
pub mod expand;

pub use analyze::{analyze, BranchModel, IssueOrder, PipelineModel, ProcessorConfig};
pub use expand::{expand, Inst, InstKind, TraceOp};
