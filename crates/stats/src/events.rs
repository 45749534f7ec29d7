//! The observability seam between the protocol engines and everything
//! that counts: a memory system emits [`ProtocolEvent`]s, a
//! [`CounterSink`] turns them into numbers.
//!
//! Before this seam existed the engines poked `Traffic` methods and ad-hoc
//! counter fields directly, so every new statistic meant touching the
//! protocol code. Now the engines report *what happened* exactly once per
//! event and the sink decides what to count; experiments, the CLI and
//! tests all read the same [`CounterSink`] totals, which are current
//! after every event.

use crate::traffic::Traffic;

/// One protocol-level event, as emitted by a memory system.
///
/// Each variant corresponds to exactly one global-interconnect transaction
/// or bookkeeping fact; the mapping to bytes/segments (Figures 3–4) lives
/// in the sink, not the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolEvent {
    /// A remote read fill supplied a Shared copy (data transaction).
    ReadFill,
    /// An ownership upgrade (invalidation broadcast, command only).
    Upgrade,
    /// A read-exclusive fetch (write miss carrying data + invalidation).
    ReadExclusive,
    /// A displaced responsible copy was injected to another node (data).
    Injection,
    /// An injection resolved by migrating ownership to a replica (command).
    OwnershipMigration,
    /// An injection found no receiver machine-wide: OS page-out.
    Pageout,
    /// A Shared replica was silently dropped by replacement (no traffic).
    SharedDrop,
    /// A line was first materialized by on-demand page allocation.
    ColdAlloc,
    /// A dirty private-cache victim was written back to a remote home
    /// (the NUMA baseline's replacement-traffic analogue; data).
    RemoteWriteback,
}

/// Replacement / allocation event counters (beyond bus traffic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolCounters {
    /// Successful injections of displaced responsible copies.
    pub injections: u64,
    /// Injections resolved by migrating ownership to an existing replica.
    pub ownership_migrations: u64,
    /// Shared replicas silently dropped by replacement.
    pub shared_drops: u64,
    /// Injections with no receiver anywhere (OS page-out).
    pub pageouts: u64,
    /// Lines first materialized by on-demand page allocation.
    pub cold_allocs: u64,
    /// Dirty write-backs to a remote home (NUMA baseline only).
    pub remote_writebacks: u64,
}

/// The standard sink: the paper's traffic decomposition plus the
/// replacement counters, updated exactly as the figures require.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSink {
    /// Global interconnect traffic, decomposed as in Figures 3–4.
    pub traffic: Traffic,
    /// Replacement / allocation event counters.
    pub counters: ProtocolCounters,
}

impl CounterSink {
    /// Count one event. This is the only place an event is mapped to a
    /// traffic segment and a counter.
    #[inline]
    pub fn record(&mut self, ev: ProtocolEvent) {
        match ev {
            ProtocolEvent::ReadFill => self.traffic.record_read_fill(),
            ProtocolEvent::Upgrade => self.traffic.record_upgrade(),
            ProtocolEvent::ReadExclusive => self.traffic.record_read_exclusive(),
            ProtocolEvent::Injection => {
                self.traffic.record_injection();
                self.counters.injections += 1;
            }
            ProtocolEvent::OwnershipMigration => {
                self.traffic.record_ownership_migration();
                self.counters.ownership_migrations += 1;
            }
            ProtocolEvent::Pageout => {
                self.traffic.record_pageout();
                self.counters.pageouts += 1;
            }
            ProtocolEvent::SharedDrop => self.counters.shared_drops += 1,
            ProtocolEvent::ColdAlloc => self.counters.cold_allocs += 1,
            ProtocolEvent::RemoteWriteback => {
                // The victim line's data crosses the interconnect to its
                // home: replacement-segment traffic, like an injection.
                self.traffic.record_injection();
                self.counters.remote_writebacks += 1;
            }
        }
    }
}

/// A [`CounterSink`] decorator that counts protocol transactions on top
/// of the totals the inner sink keeps.
///
/// This is the seam the live invariant auditor hangs off: the engines emit
/// events exactly once per global transaction, so "did this access perform
/// a protocol transaction?" is answerable by polling
/// [`AuditSink::take_pending`] after the access — without the protocol code
/// knowing auditing exists. When disarmed (the default) the decorator adds
/// one predictable branch per event.
#[derive(Clone, Copy, Debug, Default)]
pub struct AuditSink {
    /// The decorated sink; totals keep flowing through unchanged.
    pub inner: CounterSink,
    armed: bool,
    pending: u32,
}

impl AuditSink {
    /// Count one event into the inner sink (and, when armed, into the
    /// per-access transaction tally).
    #[inline]
    pub fn record(&mut self, ev: ProtocolEvent) {
        if self.armed {
            self.pending += 1;
        }
        self.inner.record(ev);
    }

    /// Enable or disable transaction counting.
    pub fn arm(&mut self, on: bool) {
        self.armed = on;
        self.pending = 0;
    }

    /// Is the decorator currently counting?
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Number of events recorded since the last poll; resets the count.
    pub fn take_pending(&mut self) -> u32 {
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{CMD_TXN_BYTES, DATA_TXN_BYTES};

    #[test]
    fn events_map_to_traffic_segments() {
        let mut s = CounterSink::default();
        s.record(ProtocolEvent::ReadFill);
        s.record(ProtocolEvent::Upgrade);
        s.record(ProtocolEvent::ReadExclusive);
        s.record(ProtocolEvent::Injection);
        s.record(ProtocolEvent::OwnershipMigration);
        assert_eq!(s.traffic.read_bytes, DATA_TXN_BYTES);
        assert_eq!(s.traffic.write_bytes, CMD_TXN_BYTES + DATA_TXN_BYTES);
        assert_eq!(s.traffic.replace_bytes, DATA_TXN_BYTES + CMD_TXN_BYTES);
        assert_eq!(s.counters.injections, 1);
        assert_eq!(s.counters.ownership_migrations, 1);
    }

    #[test]
    fn bookkeeping_events_move_no_bytes() {
        let mut s = CounterSink::default();
        s.record(ProtocolEvent::SharedDrop);
        s.record(ProtocolEvent::ColdAlloc);
        assert_eq!(s.traffic.total_bytes(), 0);
        assert_eq!(s.counters.shared_drops, 1);
        assert_eq!(s.counters.cold_allocs, 1);
    }

    #[test]
    fn pageout_counts_in_both_traffic_and_counters() {
        let mut s = CounterSink::default();
        s.record(ProtocolEvent::Pageout);
        assert_eq!(s.traffic.pageouts, 1);
        assert_eq!(s.traffic.replace_txns, 1);
        assert_eq!(s.counters.pageouts, 1);
    }

    #[test]
    fn remote_writeback_is_replacement_traffic() {
        let mut s = CounterSink::default();
        s.record(ProtocolEvent::RemoteWriteback);
        assert_eq!(s.traffic.replace_bytes, DATA_TXN_BYTES);
        assert_eq!(s.counters.remote_writebacks, 1);
    }

    #[test]
    fn audit_decorator_counts_and_forwards_every_event() {
        let mut s = AuditSink::default();
        s.arm(true);
        s.record(ProtocolEvent::Upgrade);
        s.record(ProtocolEvent::SharedDrop);
        assert_eq!(s.take_pending(), 2);
        assert_eq!(s.inner.traffic.write_txns, 1);
        assert_eq!(s.inner.counters.shared_drops, 1);
    }
}
