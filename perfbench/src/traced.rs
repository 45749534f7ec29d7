//! The traced run: host time split across the simulator's layers.
//!
//! The run phase is attributed without instrumenting the simulator. One
//! recording run captures the coherence engine's call stream and the
//! `Outcome` it returned for every access; the benchmark then times the
//! engine alone on a replay of the call stream, and the timing walk
//! (`MachineResources::time_access`) alone on a replay of the outcomes.
//! What the untraced run spends beyond those two is the driver, event
//! queue, synchronization and statistics (`sim.driver_ns_per_ref`).
//! Set-up is split the same way by timing generation, arena compile and
//! `Simulation::new` separately.
//!
//! Every phase is a span (name, start, end, parent) kept in memory and
//! written to `out/trace-<workload>-seed<seed>.json` at the end.

use crate::gate::Gate;
use crate::spec::{sweep_cells, Cell, Workload, PER_LAYER, SWEEP_WORKERS};
use crate::timed::{check_sweep, cold_ctx, paper_sweep};
use crate::{out_dir, panic_message, refs, simulate, Timed};
use coma_bench::json::Value;
use coma_protocol::{CoherenceEngine, MemorySystem, Outcome, ProtocolCounters};
use coma_sim::{InterconnectKind, MachineResources, MemoryModel, SimParams, Simulation};
use coma_stats::{SimReport, Traffic};
use coma_types::{LatencyConfig, LineNum, MachineGeometry, Nanos, ProcId};
use coma_workloads::{OpArena, OpStream, Workload as Ops};
use std::cell::RefCell;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Repetitions of each timed phase of a single-simulation workload; the
/// minimum is kept. A sweep cell is short, and its phases are summed
/// over 114 cells, so it runs each phase once.
const SINGLE_REPS: usize = 5;

/// One engine call of the recorded stream.
#[derive(Clone, Copy)]
enum Call {
    Read(ProcId, LineNum),
    Write(ProcId, LineNum),
    Flush,
}

/// A recorded run: the engine calls in order, and the outcome of each
/// read and write.
struct Recording {
    geom: MachineGeometry,
    calls: Vec<Call>,
    outcomes: Vec<Outcome>,
}

/// The COMA engine exactly as `Simulation::new` builds it.
fn coma_engine(geom: MachineGeometry, p: &SimParams) -> CoherenceEngine {
    assert!(
        p.memory_model == MemoryModel::Coma && p.interconnect == InterconnectKind::SnoopingBus,
        "the layer replay models the COMA engine on the arbitrated fabric"
    );
    let mut e = CoherenceEngine::with_inclusion(
        geom,
        p.victim_policy,
        p.accept_policy,
        p.machine.intra_node_transfers,
        p.machine.inclusive_hierarchy,
    );
    e.set_audit(p.audit);
    e
}

/// Run `wl` under the standard driver with a recording memory system.
/// This is the only code that depends on the `Simulation::with_memory`
/// seam.
fn record_run(wl: Ops, params: &SimParams) -> Result<(SimReport, Recording), String> {
    struct Recorder {
        engine: CoherenceEngine,
        log: Rc<RefCell<Recording>>,
    }
    impl Recorder {
        fn log(&self, call: Call, out: Outcome) -> Outcome {
            let mut log = self.log.borrow_mut();
            log.calls.push(call);
            log.outcomes.push(out);
            out
        }
    }
    impl MemorySystem for Recorder {
        fn read(&mut self, proc: ProcId, line: LineNum) -> Outcome {
            let out = self.engine.read(proc, line);
            self.log(Call::Read(proc, line), out)
        }
        fn write(&mut self, proc: ProcId, line: LineNum) -> Outcome {
            let out = self.engine.write(proc, line);
            self.log(Call::Write(proc, line), out)
        }
        fn geometry(&self) -> &MachineGeometry {
            self.engine.geometry()
        }
        fn flush_stats(&mut self) {
            self.log.borrow_mut().calls.push(Call::Flush);
            self.engine.flush_stats()
        }
        fn traffic(&self) -> &Traffic {
            self.engine.traffic()
        }
        fn counters(&self) -> &ProtocolCounters {
            self.engine.counters()
        }
        fn check_invariants(&self) -> Result<(), String> {
            self.engine.check_invariants()
        }
        fn am_census(&self) -> (usize, usize, usize) {
            self.engine.am_census()
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    let geom = params
        .machine
        .geometry(wl.ws_bytes)
        .map_err(|e| format!("ConfigError: {e}"))?;
    let log = Rc::new(RefCell::new(Recording {
        geom,
        calls: Vec::new(),
        outcomes: Vec::new(),
    }));
    let recorder = Recorder {
        engine: coma_engine(geom, params),
        log: Rc::clone(&log),
    };
    let report = Simulation::with_memory(wl, params, Box::new(recorder)).run();
    let rec = Rc::try_unwrap(log)
        .ok()
        .expect("the finished simulation dropped its memory system")
        .into_inner();
    Ok((report, rec))
}

/// Feed the recorded call stream into `engine`; returns how many outcomes
/// differ from the recorded ones.
fn replay_protocol(rec: &Recording, mut engine: CoherenceEngine) -> usize {
    let mut recorded = rec.outcomes.iter();
    let mut mismatches = 0;
    for &call in &rec.calls {
        let out = match call {
            Call::Read(p, l) => engine.read(p, l),
            Call::Write(p, l) => engine.write(p, l),
            Call::Flush => {
                engine.flush_stats();
                continue;
            }
        };
        mismatches += usize::from(recorded.next() != Some(&out));
    }
    mismatches + recorded.len()
}

/// Walk every recorded outcome through `res`. Each processor's `now` is
/// its previous completion: the walk's host cost does not depend on the
/// time values.
fn replay_timing(rec: &Recording, mut res: MachineResources, lat: &LatencyConfig) -> Nanos {
    let mut now: Vec<Nanos> = vec![0; rec.geom.n_procs];
    let mut outcomes = rec.outcomes.iter();
    for &call in &rec.calls {
        if let Call::Read(p, _) | Call::Write(p, _) = call {
            let out = outcomes.next().expect("one outcome per access");
            now[p.as_usize()] = res.time_access(now[p.as_usize()], p, out, lat);
        }
    }
    now.into_iter().max().unwrap_or(0)
}

struct Span {
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// Spans of one traced run, kept in memory until the run ends.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) -> Duration {
        let s = &mut self.spans[id];
        s.end = self.origin.elapsed();
        s.end - s.start
    }

    /// Run `f` inside span `name`; returns its value and the span length.
    fn time<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.open(name, Some(parent));
        let v = f();
        (v, self.close(id))
    }

    /// The shortest of `reps` spans of `f`, with the last value.
    fn min_of<T>(
        &mut self,
        reps: usize,
        name: &str,
        parent: usize,
        mut f: impl FnMut() -> T,
    ) -> (T, Duration) {
        let (mut v, mut best) = self.time(name, parent, &mut f);
        for _ in 1..reps {
            let (w, d) = self.time(name, parent, &mut f);
            (v, best) = (w, best.min(d));
        }
        (v, best)
    }

    fn to_json(&self) -> Value {
        let ns = |d: Duration| Value::int(d.as_nanos() as u64);
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::Obj(vec![
                        ("name".into(), Value::Str(s.name.clone())),
                        ("start_ns".into(), ns(s.start)),
                        ("end_ns".into(), ns(s.end)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::int(p as u64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Host-time and simulated totals over every traced simulation, so a
/// sweep's per-layer figures weight each cell by its work.
#[derive(Default)]
struct Totals {
    sims: u64,
    gen: Duration,
    gen_ops: u64,
    compile: Duration,
    records: u64,
    arena_bytes: u64,
    new: Duration,
    run: Duration,
    wall: Duration,
    traced_wall: Duration,
    protocol: Duration,
    timing: Duration,
    refs: u64,
    reads: u64,
    read_node_misses: u64,
    injections: u64,
    migrations: u64,
    drops: u64,
    bus_bytes: u64,
    exec_ns: u64,
    bus_busy_ns: u64,
    dram_busy_ns: u64,
    dram_avail_ns: u64,
    sync_ns: u64,
    proc_ns: u64,
}

fn ns_per(d: Duration, n: u64) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Trace one simulation into `tot`, checking every run in `gate`.
fn trace_cell(
    cell: &Cell,
    seed: u64,
    reps: usize,
    spans: &mut Spans,
    parent: usize,
    gate: &mut Gate,
    tot: &mut Totals,
) {
    let n_procs = cell.params.machine.n_procs;
    let build = || cell.app.build(n_procs, seed, cell.scale);

    let (ops, gen) = spans.min_of(reps, "workloads.generate", parent, || {
        let mut wl = build();
        let mut ops = 0u64;
        for s in &mut wl.streams {
            while black_box(s.next_op()).is_some() {
                ops += 1;
            }
        }
        ops
    });
    let (arena, compile) = spans.min_of(reps, "workloads.compile", parent, || {
        OpArena::compile(build().streams)
    });
    let records = arena.len() as u64;
    let arena_bytes = std::mem::size_of_val(arena.records()) as u64;
    drop(arena);
    let (sim, new) = spans.min_of(reps, "sim.new", parent, || {
        Simulation::new(build(), &cell.params)
    });
    if let Err(e) = sim.map(drop) {
        gate.check(&cell.name, Err(&format!("ConfigError: {e}")));
        return;
    }

    let mut runs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (result, _) = spans.time("sim.untraced_run", parent, || simulate(cell, seed));
        let ok = gate.check(
            &cell.name,
            result.as_ref().map(|t| &t.report).map_err(|e| e.as_str()),
        );
        match result {
            Ok(t) if ok => runs.push(t),
            _ => return,
        }
    }
    let run = runs
        .iter()
        .map(|t| t.run)
        .min()
        .expect("at least one repetition");
    let wall = runs
        .iter()
        .map(Timed::wall)
        .min()
        .expect("at least one repetition");

    let (recorded, traced_wall) = spans.time("sim.recording_run", parent, || {
        record_run(build(), &cell.params)
    });
    let rec = match recorded {
        Ok((r, rec)) if gate.check(&cell.name, Ok(&r)) => rec,
        Ok(_) => return,
        Err(e) => {
            gate.check(&cell.name, Err(&e));
            return;
        }
    };

    let mut protocol = Duration::MAX;
    let mut mismatches = 0;
    for _ in 0..reps {
        let engine = coma_engine(rec.geom, &cell.params);
        let (bad, d) = spans.time("protocol.replay", parent, || replay_protocol(&rec, engine));
        mismatches += bad;
        protocol = protocol.min(d);
    }
    gate.expect(
        mismatches == 0,
        &cell.name,
        &format!("{mismatches} replayed outcomes differ from the recorded ones"),
    );
    let lat = &cell.params.latency;
    let mut timing = Duration::MAX;
    for _ in 0..reps {
        let res = MachineResources::new(&rec.geom, lat);
        let (end, d) = spans.time("timing.replay", parent, || replay_timing(&rec, res, lat));
        black_box(end);
        timing = timing.min(d);
    }

    let r = &runs[0].report;
    tot.sims += 1;
    tot.gen += gen;
    tot.gen_ops += ops;
    tot.compile += compile;
    tot.records += records;
    tot.arena_bytes += arena_bytes;
    tot.new += new;
    tot.run += run;
    tot.wall += wall;
    tot.traced_wall += traced_wall;
    tot.protocol += protocol;
    tot.timing += timing;
    tot.refs += refs(r);
    tot.reads += r.counts.total_reads();
    tot.read_node_misses += r.counts.read_node_misses();
    tot.injections += r.injections;
    tot.migrations += r.ownership_migrations;
    tot.drops += r.shared_drops;
    tot.bus_bytes += r.traffic.total_bytes();
    tot.exec_ns += r.exec_time_ns;
    tot.bus_busy_ns += r.bus_busy_ns;
    tot.dram_busy_ns += r.dram_busy_ns;
    tot.dram_avail_ns += r.exec_time_ns * rec.geom.n_nodes as u64;
    tot.sync_ns += r.per_proc.iter().map(|b| b.sync_ns).sum::<u64>();
    tot.proc_ns += r.per_proc.iter().map(|b| b.total_ns()).sum::<u64>();
}

/// [`trace_cell`], with a panic anywhere in it counted as a failed
/// operation.
fn trace_checked(
    cell: &Cell,
    seed: u64,
    reps: usize,
    spans: &mut Spans,
    parent: usize,
    gate: &mut Gate,
    tot: &mut Totals,
) {
    let traced = catch_unwind(AssertUnwindSafe(|| {
        trace_cell(cell, seed, reps, spans, parent, gate, tot)
    }));
    if let Err(payload) = traced {
        gate.check(&cell.name, Err(&panic_message(payload)));
    }
}

/// The `experiments` layer, measured on the paper sweep only.
#[derive(Default)]
struct SweepLayer {
    warm_s: f64,
    cache_hit_frac: f64,
    cell_ms: f64,
    pool_speedup: f64,
}

/// Cold sweeps on [`SWEEP_WORKERS`] threads and on one, and a warm
/// rerun of the first, each as a span.
fn trace_sweep_scheduler(seed: u64, spans: &mut Spans, root: usize, gate: &mut Gate) -> SweepLayer {
    let cells = sweep_cells();
    let ctx = cold_ctx(seed, SWEEP_WORKERS);
    let ((cold, _), cold_d) = spans.time("experiments.cold_sweep", root, || paper_sweep(&ctx));
    check_sweep(&ctx, &cold, &cells, gate);
    let ((warm, _), warm_d) = spans.time("experiments.warm_sweep", root, || paper_sweep(&ctx));
    let hits: usize = warm.iter().map(|s| s.hits).sum();
    let ctx1 = cold_ctx(seed, 1);
    let ((serial, _), serial_d) =
        spans.time("experiments.serial_cold_sweep", root, || paper_sweep(&ctx1));
    check_sweep(&ctx1, &serial, &cells, gate);
    SweepLayer {
        warm_s: warm_d.as_secs_f64(),
        cache_hit_frac: hits as f64 / cells.len() as f64,
        cell_ms: cold_d.as_secs_f64() * 1e3 * SWEEP_WORKERS as f64 / cells.len() as f64,
        pool_speedup: serial_d.as_secs_f64() / cold_d.as_secs_f64(),
    }
}

/// Run the traced measurement of `w`; returns the per-layer metrics in
/// the order of [`PER_LAYER`] and writes the span file.
pub fn trace(w: Workload, seed: u64, gate: &mut Gate) -> [f64; PER_LAYER.len()] {
    let mut spans = Spans {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let root = spans.open(&format!("traced:{}", w.name()), None);
    let mut tot = Totals::default();
    let mut exp = SweepLayer::default();
    match w.single() {
        Some(cell) => trace_checked(&cell, seed, SINGLE_REPS, &mut spans, root, gate, &mut tot),
        None => {
            exp = trace_sweep_scheduler(seed, &mut spans, root, gate);
            for cell in sweep_cells() {
                let id = spans.open(&format!("cell:{}", cell.name), Some(root));
                trace_checked(&cell, seed, 1, &mut spans, id, gate, &mut tot);
                spans.close(id);
            }
        }
    }
    spans.close(root);

    let protocol = ns_per(tot.protocol, tot.refs);
    let timing = ns_per(tot.timing, tot.refs);
    let driver = ns_per(tot.run, tot.refs) - protocol - timing;
    if driver < 0.0 {
        eprintln!(
            "WARNING {}: negative driver residual {driver:.1} ns/ref: the replays cost more \
             than the run they attribute",
            w.name()
        );
    }
    let values = [
        ns_per(tot.gen, tot.gen_ops),
        (tot.compile.as_secs_f64() - tot.gen.as_secs_f64()) * 1e9 / tot.records.max(1) as f64,
        ratio(tot.arena_bytes, tot.sims),
        protocol,
        ratio(tot.read_node_misses, tot.reads),
        1e3 * ratio(tot.injections, tot.refs),
        1e3 * ratio(tot.migrations, tot.refs),
        1e3 * ratio(tot.drops, tot.refs),
        ratio(tot.bus_bytes, tot.refs),
        timing,
        ratio(tot.bus_busy_ns, tot.exec_ns),
        ratio(tot.dram_busy_ns, tot.dram_avail_ns),
        driver,
        (tot.new.as_secs_f64() - tot.compile.as_secs_f64()) * 1e3 / tot.sims.max(1) as f64,
        ratio(tot.sync_ns, tot.proc_ns),
        ratio(tot.records, tot.refs),
        exp.warm_s,
        exp.cache_hit_frac,
        exp.cell_ms,
        exp.pool_speedup,
        tot.traced_wall.as_secs_f64() / tot.wall.as_secs_f64().max(f64::MIN_POSITIVE),
    ];
    write_trace_file(w, seed, &values, driver < 0.0, &spans);
    values
}

fn write_trace_file(
    w: Workload,
    seed: u64,
    values: &[f64],
    negative_residual: bool,
    spans: &Spans,
) {
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|((name, _), v)| (name.to_string(), Value::float(*v)))
        .collect();
    let doc = Value::Obj(vec![
        ("workload".into(), Value::Str(w.name().to_string())),
        ("seed".into(), Value::int(seed)),
        (
            "negative_driver_residual".into(),
            Value::Bool(negative_residual),
        ),
        ("metrics".into(), Value::Obj(metrics)),
        ("spans".into(), spans.to_json()),
    ]);
    let path = out_dir().join(format!("trace-{}-seed{seed}.json", w.name()));
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc.to_json()));
    match written {
        Ok(()) => eprintln!("[trace] {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
