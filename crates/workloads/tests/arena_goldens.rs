//! Byte-identity goldens for compiled workloads: an FNV-1a fingerprint
//! of every catalog application's [`OpArena`] (its packed records and
//! its stream spans) at smoke scale on 16 processors, at two seeds, plus
//! one default synthetic workload.
//!
//! Any change to a generator, to the random draws it makes (the Zipf
//! sampler included) or to the compile pass shows up here as a changed
//! constant, so a refactor that claims to leave the reference streams
//! alone can prove it.

use coma_workloads::{build_synth, AppId, OpArena, Scale, SynthSpec};

const PROCS: usize = 16;

/// FNV-1a over the arena: each record's packed `u64` word, then each
/// stream's `[start, end)` span, all little-endian.
fn fingerprint(arena: &OpArena) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for r in arena.records() {
        let word = ((r.kind() as u64) << 60) | (r.gap_ns() << 40) | r.payload();
        eat(&word.to_le_bytes());
    }
    for p in 0..arena.n_streams() {
        let (start, end) = arena.span(p);
        eat(&start.to_le_bytes());
        eat(&end.to_le_bytes());
    }
    h
}

fn catalog_fingerprint(app: AppId, seed: u64) -> u64 {
    fingerprint(&OpArena::compile(
        app.build(PROCS, seed, Scale::SMOKE).streams,
    ))
}

/// `(app, fingerprint at seed 42, fingerprint at seed 7)`.
const CATALOG: [(AppId, u64, u64); 16] = [
    (AppId::Barnes, 0xdee482d21af4870e, 0xb86c5abdf045d03a),
    (AppId::Cholesky, 0x8042c42491c77d2b, 0xd823e3f2fc1e4325),
    (AppId::Fft, 0x5eb3379bc65de613, 0xd8af8cd033fe2a4d),
    (AppId::Fmm, 0xa2d88db8f79b62be, 0xe821d56c8517f2d3),
    (AppId::LuCont, 0x73828e2ae02effc5, 0x641b09ded8ba6642),
    (AppId::LuNon, 0xc8d583f6ad1812b8, 0xa4358d250551a2d0),
    (AppId::OceanCont, 0xfd752d0bddc296f3, 0x2ba0900f661717ed),
    (AppId::OceanNon, 0x0a0463f4309bc8ed, 0xfa030b35e9d8b5b1),
    (AppId::Radiosity, 0x26aade3ff2f16d26, 0x8f35140bb2eeec1c),
    (AppId::Radix, 0xebec1a6e3fe30210, 0x23c019b9189ccfee),
    (AppId::Raytrace, 0xbd48c4be7a374e30, 0x4cbfbb424f7c1c6a),
    (AppId::Volrend, 0xf7ef2dcbc9d08c98, 0xc958c44a997a2156),
    (AppId::WaterN2, 0xb846147a454a9985, 0xb5bf9e8e7e79ef19),
    (AppId::WaterSp, 0x23e7526f957f806c, 0x92cf6e22444df4e8),
    (AppId::KvZipf, 0x4f58d9ac69b87c81, 0x427d48f7aa861d3a),
    (AppId::GraphBfs, 0xb7c76152cb9ad7c0, 0xcdf7afe8b23d6f33),
];

/// `SynthSpec::default()` on 16 processors, seed 42.
const SYNTH_DEFAULT: u64 = 0x1c5dcf10a2b7c2a9;

#[test]
fn catalog_arenas_are_byte_identical() {
    let mut wrong = Vec::new();
    for (app, at42, at7) in CATALOG {
        for (seed, want) in [(42, at42), (7, at7)] {
            let got = catalog_fingerprint(app, seed);
            if got != want {
                wrong.push(format!(
                    "{app} seed {seed}: {got:#018x} (pinned {want:#018x})"
                ));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "arena fingerprints changed:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn catalog_covers_every_app() {
    let pinned: Vec<AppId> = CATALOG.iter().map(|c| c.0).collect();
    let every: Vec<AppId> = AppId::ALL.into_iter().chain(AppId::TRAFFIC).collect();
    assert_eq!(pinned, every);
}

#[test]
fn default_synth_arena_is_byte_identical() {
    let wl = build_synth(PROCS, 42, Scale::SMOKE, SynthSpec::default());
    let got = fingerprint(&OpArena::compile(wl.streams));
    assert_eq!(got, SYNTH_DEFAULT, "synth arena fingerprint {got:#018x}");
}
