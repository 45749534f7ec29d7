//! Randomized equivalence test: the dense line-indexed [`Directory`] must
//! agree with a naive `HashMap<line, (owner, BTreeSet<sharer>)>` model
//! under arbitrary interleavings of its mutators — including sharer sets
//! wider than the four inline slots (the spill table), lines that die and
//! are re-inserted, paged-out marks, and sparse line numbers up to 2^20.
//! After every step the whole observable state is compared: `get` and
//! `owner` on every line the case uses, `len`, `iter`, the paged-out
//! set, and every level's presence masks recomputed from the model with
//! plain topology arithmetic.

use coma_protocol::Directory;
use coma_types::{LineNum, MachineConfig, NodeId, NodeSet, Rng64, Topology};
use std::collections::{BTreeSet, HashMap, HashSet};

type Model = HashMap<u64, (u16, BTreeSet<u16>)>;

struct Shape {
    name: &'static str,
    dir: fn() -> Directory,
    n_nodes: u16,
    topo: Topology,
    nodes_per_group: usize,
}

fn geometry_dir(n_procs: usize, topology: Topology) -> Directory {
    let cfg = MachineConfig {
        n_procs,
        procs_per_node: 1,
        topology,
        ..Default::default()
    };
    Directory::for_geometry(&cfg.geometry(4 << 20).unwrap())
}

fn shapes() -> [Shape; 3] {
    [
        Shape {
            name: "flat",
            dir: Directory::flat,
            n_nodes: 32,
            topo: Topology::flat(),
            nodes_per_group: 32,
        },
        Shape {
            name: "two_level(4)",
            dir: || geometry_dir(16, Topology::two_level(4)),
            n_nodes: 16,
            topo: Topology::two_level(4),
            nodes_per_group: 4,
        },
        Shape {
            name: "tree(8, 3)",
            dir: || geometry_dir(16, Topology::tree(8, 3)),
            n_nodes: 16,
            topo: Topology::tree(8, 3),
            nodes_per_group: 2,
        },
    ]
}

/// The mask level `height` must hold for a live line, from the model.
fn model_presence(shape: &Shape, height: usize, owner: u16, sharers: &BTreeSet<u16>) -> u64 {
    std::iter::once(owner)
        .chain(sharers.iter().copied())
        .map(|n| {
            1u64 << shape
                .topo
                .unit_of(n as usize / shape.nodes_per_group, height - 1)
        })
        .fold(0, |a, b| a | b)
}

fn check(shape: &Shape, d: &Directory, model: &Model, paged: &HashSet<u64>, lines: &[u64]) {
    let ctx = shape.name;
    assert_eq!(d.len(), model.len(), "{ctx}: len");
    for &l in lines {
        let got = d.get(LineNum(l));
        let want = model.get(&l).map(|(o, s)| {
            let mut set = NodeSet::empty();
            s.iter().for_each(|&n| set.insert(n));
            (NodeId(*o), set)
        });
        assert_eq!(got.map(|i| (i.owner, i.sharers)), want, "{ctx}: get({l})");
        assert_eq!(d.owner(LineNum(l)), want.map(|w| w.0), "{ctx}: owner({l})");
        assert_eq!(
            d.contains(LineNum(l)),
            want.is_some(),
            "{ctx}: contains({l})"
        );
    }
    let mut live: Vec<(u64, u16, Vec<u16>)> = d
        .iter()
        .map(|(l, i)| (l.0, i.owner.0, i.sharer_nodes().map(|n| n.0).collect()))
        .collect();
    live.sort_unstable();
    let mut want: Vec<(u64, u16, Vec<u16>)> = model
        .iter()
        .map(|(&l, (o, s))| (l, *o, s.iter().copied().collect()))
        .collect();
    want.sort_unstable();
    assert_eq!(live, want, "{ctx}: iter");
    let mut out: Vec<u64> = d.paged_out_lines().map(|l| l.0).collect();
    out.sort_unstable();
    let mut want_out: Vec<u64> = paged.iter().copied().collect();
    want_out.sort_unstable();
    assert_eq!(out, want_out, "{ctx}: paged-out lines");

    assert_eq!(d.levels().len(), shape.topo.levels, "{ctx}: level count");
    for lvl in d.levels() {
        let h = lvl.height();
        let mut got: Vec<(u64, u64)> = lvl.iter().map(|(l, m)| (l.0, m)).collect();
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = model
            .iter()
            .map(|(&l, (o, s))| (l, model_presence(shape, h, *o, s)))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "{ctx}: level {h} masks");
        for &l in lines {
            let want = model.get(&l).map(|(o, s)| model_presence(shape, h, *o, s));
            assert_eq!(
                lvl.presence(LineNum(l)),
                want,
                "{ctx}: level {h} presence({l})"
            );
        }
    }
}

/// One random case: `steps` mutations over a pool of `lines`.
fn run_case(shape: &Shape, rng: &mut Rng64, lines: &[u64], steps: usize) {
    let mut d = (shape.dir)();
    let mut model = Model::new();
    let mut paged: HashSet<u64> = HashSet::new();
    for _ in 0..steps {
        let l = lines[rng.below(lines.len() as u64) as usize];
        let line = LineNum(l);
        let node = rng.below(shape.n_nodes as u64) as u16;
        match (model.get_mut(&l), rng.below(8)) {
            (None, 0..=3) => {
                d.insert_sole(line, NodeId(node));
                model.insert(l, (node, BTreeSet::new()));
                paged.remove(&l);
            }
            (None, 4) => {
                assert_eq!(d.take_paged_out(line), paged.remove(&l));
            }
            (None, _) => {
                // Mutators on a dead line are no-ops (or None).
                d.remove_sharer(line, NodeId(node));
                d.clear_sharers(line);
                assert_eq!(d.remove(line), None);
            }
            (Some((owner, sharers)), op) => match op {
                0..=2 => {
                    if node != *owner {
                        d.add_sharer(line, NodeId(node));
                        sharers.insert(node);
                    }
                }
                3 => {
                    // Prefer a real member, so removals actually shrink.
                    let victim = sharers.iter().next().copied().unwrap_or(node);
                    d.remove_sharer(line, NodeId(victim));
                    sharers.remove(&victim);
                }
                4 => {
                    d.set_owner(line, NodeId(node));
                    *owner = node;
                    sharers.remove(&node);
                }
                5 => {
                    d.clear_sharers(line);
                    sharers.clear();
                }
                6 => {
                    let got = d.remove(line).expect("live line");
                    let (o, s) = model.remove(&l).unwrap();
                    assert_eq!(got.owner, NodeId(o));
                    assert_eq!(got.sharer_nodes().map(|n| n.0).collect::<BTreeSet<_>>(), s);
                }
                _ => {
                    d.page_out(line);
                    model.remove(&l);
                    paged.insert(l);
                }
            },
        }
        check(shape, &d, &model, &paged, lines);
    }
}

#[test]
fn directory_matches_naive_model() {
    let mut rng = Rng64::new(0xD1EC_7011);
    for shape in shapes() {
        // Few lines, many sharers per line: spill churn, deaths and
        // re-insertions.
        for _ in 0..6 {
            let n = rng.range(1, 24) as usize;
            let lines: Vec<u64> = (0..n).map(|_| rng.below(96)).collect();
            run_case(&shape, &mut rng, &lines, 400);
        }
    }
}

#[test]
fn directory_matches_naive_model_on_sparse_lines() {
    // A few lines scattered up to 2^20, so the dense tables grow far past
    // the small ones. Every check scans the whole grown table, so the
    // case is kept short.
    let mut rng = Rng64::new(0x005B_A25E);
    for shape in shapes() {
        let lines: Vec<u64> = (0..6)
            .map(|i| if i < 3 { i } else { rng.below(1 << 20) })
            .chain([(1 << 20) - 1])
            .collect();
        run_case(&shape, &mut rng, &lines, 30);
    }
}

#[test]
fn spill_survives_shrink_and_regrowth() {
    for shape in shapes() {
        let mut d = (shape.dir)();
        let line = LineNum(5);
        d.insert_sole(line, NodeId(0));
        for n in 1..shape.n_nodes {
            d.add_sharer(line, NodeId(n));
        }
        assert_eq!(d.get(line).unwrap().n_sharers(), shape.n_nodes as u32 - 1);
        for n in 1..shape.n_nodes - 1 {
            d.remove_sharer(line, NodeId(n));
        }
        let info = d.get(line).unwrap();
        assert_eq!(
            info.sharer_nodes().collect::<Vec<_>>(),
            vec![NodeId(shape.n_nodes - 1)]
        );
        // Kill it while spilled, then re-insert: nothing of the old
        // sharer set may leak into the new life.
        for n in 1..shape.n_nodes {
            d.add_sharer(line, NodeId(n));
        }
        d.remove(line).unwrap();
        d.insert_sole(line, NodeId(3));
        assert_eq!(d.get(line).unwrap().n_sharers(), 0, "{}", shape.name);
        d.add_sharer(line, NodeId(1));
        assert_eq!(d.get(line).unwrap().n_sharers(), 1, "{}", shape.name);
    }
}
