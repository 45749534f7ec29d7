//! The correctness gate: every simulation's [`SimReport`] is reduced to a
//! fingerprint and checked. At the default seed the fingerprint must
//! equal the one pinned in `pinned.txt`; at any other seed every run of
//! one cell inside the process must agree with the first.
//!
//! Simulated statistics are correctness outputs of this benchmark, not
//! metrics: a change that only speeds the simulator up must leave every
//! fingerprint bit-identical.

use crate::spec::DEFAULT_SEED;
use coma_sim::canon::{fnv1a_u64, FNV_OFFSET};
use coma_stats::SimReport;
use std::collections::BTreeMap;

const PINNED: &str = include_str!("../pinned.txt");

/// FNV-1a over the simulated outputs a speed-only change must keep:
/// execution time, reads and writes by level, traffic by segment,
/// injections, migrations, drops, and bus and DRAM busy time.
pub fn fingerprint(r: &SimReport) -> u64 {
    let t = &r.traffic;
    [r.exec_time_ns]
        .iter()
        .chain(&r.counts.reads)
        .chain(&r.counts.writes)
        .chain(&[
            t.read_bytes,
            t.write_bytes,
            t.replace_bytes,
            t.read_txns,
            t.write_txns,
            t.replace_txns,
            t.pageouts,
            r.injections,
            r.ownership_migrations,
            r.shared_drops,
            r.bus_busy_ns,
            r.dram_busy_ns,
        ])
        .fold(FNV_OFFSET, |h, &v| fnv1a_u64(h, v))
}

/// The fingerprint pinned for `cell` at [`DEFAULT_SEED`]. Each line of
/// `pinned.txt` is `0x<hex> <cell name>`.
pub fn pinned(cell: &str) -> Option<u64> {
    PINNED.lines().find_map(|line| {
        let (hex, name) = line.split_once(' ')?;
        if name != cell {
            return None;
        }
        u64::from_str_radix(hex.strip_prefix("0x")?, 16).ok()
    })
}

/// Counts attempted and failed operations (one simulation or one sweep
/// cell each) and explains every failure on stderr.
pub struct Gate {
    seed: u64,
    seen: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn new(seed: u64) -> Self {
        Gate {
            seed,
            seen: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Check one operation's result: a failure (panic or `ConfigError`,
    /// carried as `Err`) or a fingerprint mismatch counts as failed.
    /// Returns whether it passed.
    pub fn check(&mut self, cell: &str, result: Result<&SimReport, &str>) -> bool {
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                self.expect(false, cell, e);
                return false;
            }
        };
        let got = fingerprint(report);
        let want = if self.seed == DEFAULT_SEED {
            pinned(cell)
        } else {
            Some(*self.seen.entry(cell.to_string()).or_insert(got))
        };
        let msg = match want {
            Some(w) => format!("fingerprint 0x{got:016x}, expected 0x{w:016x}"),
            None => format!("fingerprint 0x{got:016x} is not pinned"),
        };
        self.expect(want == Some(got), cell, &msg);
        want == Some(got)
    }

    /// Count one operation that passed iff `ok`.
    pub fn expect(&mut self, ok: bool, cell: &str, why: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED {cell}: {why}");
        }
    }
}
