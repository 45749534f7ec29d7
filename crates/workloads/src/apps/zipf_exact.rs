//! Differential test of [`ZipfSampler`] against the binary search of the
//! `f64` CDF it replaced, over every `(n, s)` the catalog builds plus
//! tiny and uniform supports.
//!
//! [`shared_zipf`](super::shared_zipf) records the shape of each sampler
//! built on the test thread, so the catalog's shapes come from the
//! generators themselves rather than from a copy of their sizing.

use crate::catalog::AppId;
use crate::stream::Scale;
use crate::SynthSpec;
use coma_types::{Rng64, ZipfSampler};
use std::cell::RefCell;

thread_local! {
    static SHAPES: RefCell<Vec<(u64, f64)>> = const { RefCell::new(Vec::new()) };
}

pub(super) fn record_shape(n: u64, s: f64) {
    SHAPES.with(|v| v.borrow_mut().push((n, s)));
}

const TWO_53: f64 = (1u64 << 53) as f64;

/// The normalized Zipf CDF, accumulated exactly as the sampler does.
fn reference_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for k in 1..=n {
        acc += (k as f64).powf(-s);
        cdf.push(acc);
    }
    let total = acc;
    for v in &mut cdf {
        *v /= total;
    }
    cdf
}

/// The reference draw: binary search for `u`, clamped to the support.
fn reference_index(cdf: &[f64], u: f64) -> usize {
    match cdf.binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf is finite")) {
        Ok(i) => i,
        Err(i) => i.min(cdf.len() - 1),
    }
}

/// Probe every threshold at −1, 0 and +1, then 10⁵ random variates
/// drawn through `sample` against `f64_unit` on a twin generator.
fn assert_matches_reference(n: usize, s: f64) {
    let z = ZipfSampler::new(n, s);
    assert_eq!(z.len(), n);
    let cdf = reference_cdf(n, s);
    for &c in &cdf {
        let t = (c * TWO_53) as u64;
        for m in [t.wrapping_sub(1), t, t + 1] {
            if m < 1 << 53 {
                let want = reference_index(&cdf, m as f64 / TWO_53);
                assert_eq!(z.index(m), want, "n={n} s={s} m={m:#x}");
            }
        }
    }
    let mut a = Rng64::new(n as u64 ^ s.to_bits());
    let mut b = a.clone();
    for _ in 0..100_000 {
        let want = reference_index(&cdf, b.f64_unit());
        assert_eq!(z.sample(&mut a), want, "n={n} s={s}");
    }
}

#[test]
fn catalog_samplers_match_the_binary_search() {
    SHAPES.with(|v| v.borrow_mut().clear());
    for app in AppId::ALL.into_iter().chain(AppId::TRAFFIC) {
        app.build(16, 42, Scale::SMOKE);
    }
    crate::build_synth(16, 42, Scale::SMOKE, SynthSpec::default());
    let mut shapes = SHAPES.with(|v| v.take());
    // Barnes, FMM, Radiosity, Raytrace, Volrend, KV Zipf, Synth.
    assert_eq!(shapes.len(), 7, "one sampler per Zipf workload: {shapes:?}");
    shapes.sort_by(|a, b| a.partial_cmp(b).unwrap());
    shapes.dedup();
    for (n, s) in shapes {
        let cdf = reference_cdf(n as usize, s);
        assert!(
            cdf.windows(2).all(|w| w[0] < w[1]),
            "n={n} s={s}: CDF not strictly increasing"
        );
        assert_matches_reference(n as usize, s);
    }
}

#[test]
fn tiny_and_uniform_supports_match_the_binary_search() {
    for n in [1, 2, 3, 4, 5, 9, 1000] {
        for s in [0.0, 0.5, 1.0, 2.0] {
            assert_matches_reference(n, s);
        }
    }
}
