//! Queue disciplines for the shard queues ([`crate::tenant::FairQueue`]).

/// Queue discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueuePolicy {
    /// First-in first-out (arrival order).
    Fifo,
    /// Earliest-deadline-first.
    Edf,
}

impl QueuePolicy {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            QueuePolicy::Fifo => "fifo",
            QueuePolicy::Edf => "edf",
        }
    }
}
