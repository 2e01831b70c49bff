//! An assist's crossbar port: a FIFO of scratchpad transactions.
//!
//! Assists, like cores, have a single outstanding transaction on the
//! crossbar. `SpPort` queues the transactions an assist wants to perform
//! and issues them in order, returning each completion (tagged by the
//! assist) as it arrives.

use nicsim_mem::{Crossbar, SpRequest};
use std::collections::VecDeque;

/// A FIFO scratchpad-access port for a hardware assist.
#[derive(Debug)]
pub struct SpPort {
    port: usize,
    queue: VecDeque<(SpRequest, u32)>,
    inflight: Option<u32>,
    accesses: u64,
}

impl SpPort {
    /// Create a port bound to crossbar requester `port`.
    pub fn new(port: usize) -> SpPort {
        SpPort {
            port,
            queue: VecDeque::new(),
            inflight: None,
            accesses: 0,
        }
    }

    /// The crossbar requester index.
    pub fn port(&self) -> usize {
        self.port
    }

    /// Enqueue a transaction with an assist-defined tag.
    pub fn push(&mut self, req: SpRequest, tag: u32) {
        self.queue.push_back((req, tag));
    }

    /// Transactions not yet completed (queued + in flight).
    pub fn backlog(&self) -> usize {
        self.queue.len() + usize::from(self.inflight.is_some())
    }

    /// Total transactions completed (the assists' share of scratchpad
    /// bandwidth in Table 4).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Zero the access counter.
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
    }

    /// Advance one cycle: collect the completed transaction (if any) and
    /// issue the next queued one. Returns `(tag, response)` on completion.
    pub fn tick(&mut self, xbar: &mut Crossbar) -> Option<(u32, u32)> {
        let mut done = None;
        if let Some(tag) = self.inflight {
            if let Some(v) = xbar.take_response(self.port) {
                self.inflight = None;
                self.accesses += 1;
                done = Some((tag, v));
            }
        }
        if self.inflight.is_none() && xbar.port_idle(self.port) {
            if let Some((req, tag)) = self.queue.pop_front() {
                xbar.submit(self.port, req);
                self.inflight = Some(tag);
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nicsim_mem::{Scratchpad, SpOp};

    #[test]
    fn fifo_order_preserved() {
        let mut sp = Scratchpad::new(1024, 4);
        let mut xbar = Crossbar::new(1, 4);
        let mut port = SpPort::new(0);
        for i in 0..5u32 {
            port.push(
                SpRequest {
                    addr: i * 4,
                    op: SpOp::Write(i + 100),
                },
                i,
            );
        }
        let mut tags = Vec::new();
        for _ in 0..40 {
            xbar.tick(&mut sp);
            if let Some((tag, _)) = port.tick(&mut xbar) {
                tags.push(tag);
            }
        }
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
        for i in 0..5u32 {
            assert_eq!(sp.peek(i * 4), i + 100);
        }
        assert_eq!(port.accesses(), 5);
        assert_eq!(port.backlog(), 0);
    }

    #[test]
    fn read_returns_value() {
        let mut sp = Scratchpad::new(64, 4);
        sp.poke(8, 77);
        let mut xbar = Crossbar::new(1, 4);
        let mut port = SpPort::new(0);
        port.push(
            SpRequest {
                addr: 8,
                op: SpOp::Read,
            },
            9,
        );
        let mut got = None;
        for _ in 0..10 {
            xbar.tick(&mut sp);
            if let Some(r) = port.tick(&mut xbar) {
                got = Some(r);
            }
        }
        assert_eq!(got, Some((9, 77)));
    }
}
