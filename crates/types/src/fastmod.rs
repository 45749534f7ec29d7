//! Division-free modulo by a runtime constant (Lemire's fastmod).
//!
//! The attraction-memory set count is derived from the working set and the
//! memory pressure, which yields "odd cache sizes" (paper §3.1) — the set
//! mapping is a genuine `x % d` with a non-power-of-two `d`, evaluated once
//! per cache probe on the simulator's hottest path. A hardware 64-bit
//! division costs tens of cycles; precomputing the magic constant
//! `M = ceil(2^128 / d)` turns every subsequent modulo into two widening
//! multiplies (Lemire, Kaser & Kurz, "Faster remainder by direct
//! computation", 2019, extended from the published 32-bit version to u64
//! operands with a 128-bit magic).
//!
//! Real operands are line numbers and set counts, both far below 2^32, so
//! [`FastMod::reduce`] first tries the published 32-bit form — one 64-bit
//! multiply and one widening 64×64 multiply — and keeps the 128-bit chain
//! for the general case.

/// A divisor with a precomputed magic constant for division-free `%`.
#[derive(Clone, Copy, Debug)]
pub struct FastMod {
    d: u64,
    /// `ceil(2^128 / d)`, or 0 when `d == 1` (every remainder is 0, which
    /// the multiply then produces without a special case).
    m: u128,
    /// `ceil(2^64 / d)` (wrapping to 0 when `d == 1`): the 32-bit magic,
    /// valid while both `d` and the operand fit in 32 bits.
    m32: u64,
}

/// High 64 bits of the 192-bit product `a * d`.
#[inline]
fn mul128_by_64_hi(a: u128, d: u64) -> u64 {
    let lo = (a as u64 as u128) * d as u128;
    let hi = (a >> 64) * d as u128;
    ((hi + (lo >> 64)) >> 64) as u64
}

impl FastMod {
    /// Precompute the magic for divisor `d`. Panics if `d == 0`.
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "FastMod divisor must be non-zero");
        let m = if d == 1 { 0 } else { u128::MAX / d as u128 + 1 };
        let m32 = (u64::MAX / d).wrapping_add(1);
        FastMod { d, m, m32 }
    }

    /// The divisor this instance reduces by.
    #[inline]
    pub fn divisor(self) -> u64 {
        self.d
    }

    /// `x % d`, without a division instruction.
    #[inline]
    pub fn reduce(self, x: u64) -> u64 {
        if (x | self.d) >> 32 == 0 {
            let lowbits = self.m32.wrapping_mul(x);
            return ((lowbits as u128 * self.d as u128) >> 64) as u64;
        }
        let lowbits = self.m.wrapping_mul(x as u128);
        mul128_by_64_hi(lowbits, self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn agrees_with_hardware_modulo_on_edge_values() {
        for d in [1u64, 2, 3, 5, 7, 13, 64, 1000, u64::MAX - 1, u64::MAX] {
            let f = FastMod::new(d);
            for x in [
                0u64,
                1,
                2,
                d.wrapping_sub(1),
                d,
                d.wrapping_add(1),
                u64::MAX,
            ] {
                assert_eq!(f.reduce(x), x % d, "x={x} d={d}");
            }
        }
    }

    #[test]
    fn agrees_with_hardware_modulo_randomized() {
        let mut rng = Rng64::new(0x0F45_740D);
        for _ in 0..20_000 {
            let d = rng.next_u64().max(1);
            let x = rng.next_u64();
            let f = FastMod::new(d);
            assert_eq!(f.reduce(x), x % d, "x={x} d={d}");
        }
        // Small divisors (the realistic set-count range) deserve density.
        for _ in 0..20_000 {
            let d = rng.range(1, 1 << 20);
            let x = rng.next_u64();
            assert_eq!(FastMod::new(d).reduce(x), x % d, "x={x} d={d}");
        }
    }

    #[test]
    fn agrees_with_hardware_modulo_on_32_bit_operands() {
        // Both fit in 32 bits: the one-multiply path. Straddling cases
        // (either side wider) must fall back to the 128-bit chain.
        let mut rng = Rng64::new(0x3232);
        for _ in 0..20_000 {
            let d = rng.range(1, 1 << 32);
            let x = rng.below(1 << 32);
            assert_eq!(FastMod::new(d).reduce(x), x % d, "x={x} d={d}");
        }
        for (x, d) in [
            (u32::MAX as u64, u32::MAX as u64),
            (u32::MAX as u64, 1),
            (1 << 32, 3),
            (7, 1 << 32),
            (u32::MAX as u64, (1 << 32) + 1),
        ] {
            assert_eq!(FastMod::new(d).reduce(x), x % d, "x={x} d={d}");
        }
    }

    #[test]
    #[should_panic]
    fn zero_divisor_panics() {
        FastMod::new(0);
    }
}
