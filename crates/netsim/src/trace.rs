//! Aggregate execution counters.
//!
//! The simulator keeps counters, not an event log: [`TraceStats`] is exact
//! and never drops data, and it is what the checkers, the benchmark and
//! the `exp_*` binaries read. A fault's event trail belongs to its replay,
//! not to every simulator.

/// Aggregate counters of one simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Frames put on a channel: data frames (quiet sends included), a
    /// cut's replayed in-flight frames and snapshot markers.
    pub msgs_sent: u64,
    /// Data frames delivered.
    pub msgs_delivered: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// Timer firings.
    pub timers_fired: u64,
    /// Session transitions to Up.
    pub sessions_up: u64,
    /// Session transitions to Down.
    pub sessions_down: u64,
    /// Node crashes.
    pub crashes: u64,
}

/// A simulator's counters, read through [`Trace::stats`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub(crate) stats: TraceStats,
}

impl Trace {
    /// Aggregate counters.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }
}
