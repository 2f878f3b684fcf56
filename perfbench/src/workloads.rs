//! The four workloads: inputs, the closed loop, the checks and the metrics.

use crate::data::{
    self, base_dataset, pixel_literals, written_pixels, MaskRow, Meta, Rng, State, PIXELS,
};
use crate::drive::{self, ClientLog, ReadJob, WriteClock, WriteLog, WritePlan};
use crate::layers::{self, Counters, Probe};
use crate::mixes;
use crate::oracle::{self, Row};
use crate::serve::{Deployment, SetupCost};
use crate::spec::{insert_sql, Stmt, Write};
use crate::stats::{
    mean, median, metric, note, proc_io_write_bytes, quantile, rss_peak_mib, CpuTicks, Metric,
};
use crate::trace::Tracer;
use masksearch_core::MaskId;
use masksearch_db::MaskDb;
use masksearch_service::Client;
use masksearch_storage::MaskStore;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = [
    "explore-warm",
    "audit-cold",
    "ingest-mixed",
    "cluster-fanout",
];

const MIB: u64 = 1 << 20;
const MASK_BYTES: f64 = (PIXELS * 4) as f64;

/// Run options from the command line.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Directory for this run's databases.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_file: PathBuf,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mix {
    Explore,
    Audit,
    Ingest,
}

/// Input make-up of a workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    images: u64,
    cache_bytes: u64,
    shards: usize,
    mix: Mix,
    /// Distinct read statements.
    statements: usize,
    /// Set-ups per run (their median is `setup_s`).
    setups: usize,
}

fn shape(workload: &str, smoke: bool) -> Option<Shape> {
    let (images, cache_bytes, shards, mix) = match workload {
        "explore-warm" => (600, 256 * MIB, 1, Mix::Explore),
        "audit-cold" => (600, 8 * MIB, 1, Mix::Audit),
        "ingest-mixed" => (300, 256 * MIB, 1, Mix::Ingest),
        "cluster-fanout" => (600, 256 * MIB, 2, Mix::Explore),
        _ => return None,
    };
    Some(if smoke {
        Shape {
            images: 24,
            cache_bytes: if mix == Mix::Audit {
                MIB / 4
            } else {
                cache_bytes
            },
            shards,
            mix,
            statements: 20,
            setups: 1,
        }
    } else {
        Shape {
            images,
            cache_bytes,
            shards,
            mix,
            statements: 192,
            setups: 5,
        }
    })
}

/// What a run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
}

// ---------------------------------------------------------------------------
// The run.

struct Served {
    logs: Vec<ClientLog>,
    writes: Option<WriteLog>,
    run_s: f64,
    /// Share of the busy CPU time the host gave in each window.
    given: Vec<f64>,
    /// Counters read where timing started.
    start: Snapshot,
}

/// Process, store, cache and coordinator counters. Read where timing starts
/// and again after the timed phase, so the per-read figures cover the
/// timed reads and not the warm-up.
#[derive(Debug, Default)]
struct Snapshot {
    counters: Counters,
    io_write_bytes: u64,
    masks_loaded: u64,
    cache_hits: u64,
    cache_misses: u64,
    cluster: Option<masksearch_cluster::ClusterMetricsSnapshot>,
}

impl Snapshot {
    fn take(deployment: &Deployment) -> Self {
        let mut out = Self {
            counters: Counters::now(),
            io_write_bytes: proc_io_write_bytes(),
            cluster: deployment
                .coordinator
                .as_ref()
                .map(|c| c.coordinator().metrics()),
            ..Self::default()
        };
        for node in &deployment.nodes {
            let session = node.session();
            out.masks_loaded += session.store().io_stats().masks_loaded();
            let cache = session.cache().stats();
            out.cache_hits += cache.hits;
            out.cache_misses += cache.misses;
        }
        out
    }
}

/// Runs the closed loop: two readers, or the writer and one reader.
#[allow(clippy::too_many_arguments)]
fn serve_phase(
    deployment: &Deployment,
    sqls: &[String],
    windowed: &[bool],
    warm_ops: usize,
    run: Duration,
    writer: Option<(u64, WritePlan, &[String], &WriteClock)>,
    epoch: Instant,
    trace_after: Option<Duration>,
    rng: &mut Rng,
) -> Served {
    let addr = deployment.addr();
    let readers = if writer.is_some() { 1 } else { 2 };
    // Readers, the writer, and the CPU-time sampler start timing together.
    let barrier = Barrier::new(readers + writer.is_some() as usize + 1);
    let clock = writer.as_ref().map(|w| w.3);
    let orders: Vec<Vec<u32>> = (0..readers)
        .map(|_| {
            let mut order: Vec<u32> = (0..sqls.len() as u32).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    let (logs, writes, (start, given)) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            barrier.wait();
            let start = Snapshot::take(deployment);
            let started = Instant::now();
            let window = run / WINDOWS as u32;
            let mut last = CpuTicks::now();
            let given = (1..=WINDOWS as u32)
                .map(|w| {
                    std::thread::sleep(
                        (started + window * w).saturating_duration_since(Instant::now()),
                    );
                    let now = CpuTicks::now();
                    let share = now.given_since(&last);
                    last = now;
                    share
                })
                .collect::<Vec<f64>>();
            (start, given)
        });
        let handles: Vec<_> = orders
            .into_iter()
            .enumerate()
            .map(|(c, order)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    drive::read_loop(ReadJob {
                        addr,
                        sql: sqls,
                        windowed,
                        order,
                        warm_ops,
                        barrier,
                        run,
                        clock,
                        tracer: trace_after.map(|after| (Tracer::new(epoch), after)),
                        request_base: (c as u64 + 1) << 32,
                    })
                })
            })
            .collect();
        let writes = writer.map(|(seed, plan, literals, clock)| {
            drive::write_loop(
                addr,
                seed,
                plan,
                literals,
                &barrier,
                run,
                clock,
                trace_after.map(|after| (Tracer::new(epoch), after)),
            )
        });
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect();
        (logs, writes, sampler.join().expect("sampler thread"))
    });
    Served {
        logs,
        writes,
        run_s: run.as_secs_f64(),
        given,
        start,
    }
}

/// Timed runs are cut into this many equal windows. On a shared virtual
/// machine the hypervisor steals a varying share of the CPU time (up to
/// half of the busy time of the 2-vCPU reference machine, changing within
/// seconds), and a run reads slower by about that share. Each window's
/// given share — busy CPU time not stolen, over busy CPU time, read from
/// `/proc/stat` and never from the measured times — scales the times that
/// end in it: a latency `t` counts as `t × given`, the CPU time the host
/// gave while it passed, and rates count per second of given time. On a
/// machine the host steals nothing from, the shares are 1 and every figure
/// is as measured.
const WINDOWS: usize = 16;

/// Latency figures of the timed reads.
struct Latency {
    /// As measured (the per-layer figures).
    client_ms: Vec<f64>,
    server_ms: Vec<f64>,
    wire_ms: Vec<f64>,
    /// Client latencies scaled by the given share of their window (the
    /// end-to-end figures), all and per statement class.
    given_ms: Vec<f64>,
    given_by_class: BTreeMap<&'static str, Vec<f64>>,
    /// Given share of each window.
    given: Vec<f64>,
    window_s: f64,
}

fn latency(served: &Served, stmts: &[Stmt]) -> Latency {
    let mut l = Latency {
        client_ms: Vec::new(),
        server_ms: Vec::new(),
        wire_ms: Vec::new(),
        given_ms: Vec::new(),
        given_by_class: BTreeMap::new(),
        given: served.given.clone(),
        window_s: served.run_s / WINDOWS as f64,
    };
    for read in served.logs.iter().flat_map(|log| &log.reads) {
        if read.client_us < 0.0 {
            continue;
        }
        let ms = read.client_us / 1e3;
        l.client_ms.push(ms);
        l.server_ms.push(read.server_us as f64 / 1e3);
        l.wire_ms.push(ms - read.server_us as f64 / 1e3);
        let given = ms * l.given_at(read.at_s);
        l.given_ms.push(given);
        l.given_by_class
            .entry(stmts[read.stmt as usize].class().name())
            .or_default()
            .push(given);
    }
    l
}

impl Latency {
    /// The given share of the window in which a time `at_s` seconds into
    /// the run falls.
    fn given_at(&self, at_s: f64) -> f64 {
        let window = ((at_s / self.window_s).max(0.0) as usize).min(WINDOWS - 1);
        self.given.get(window).copied().unwrap_or(1.0)
    }

    /// Length of the timed phase in seconds, each window weighted by its
    /// given share.
    fn given_s(&self) -> f64 {
        (0..WINDOWS)
            .map(|w| self.given.get(w).copied().unwrap_or(1.0))
            .sum::<f64>()
            * self.window_s
    }
}

/// Checks every answer of a read-only mix against the oracle over `state`.
fn check_static(served: &Served, stmts: &[Stmt], state: &State, problems: &mut Vec<String>) {
    let mut first: BTreeMap<u32, &Vec<Row>> = BTreeMap::new();
    for log in &served.logs {
        for (stmt, rows) in &log.first {
            first.entry(*stmt).or_insert(rows);
        }
    }
    let mut expected_digest = BTreeMap::new();
    for (&i, rows) in &first {
        let expected = oracle::evaluate(&stmts[i as usize], state);
        if **rows != expected {
            problems.push(format!(
                "statement {i} answered {} rows, oracle has {} (first difference at row {:?}): {}",
                rows.len(),
                expected.len(),
                rows.iter().zip(&expected).position(|(a, b)| a != b),
                stmts[i as usize].sql()
            ));
        }
        expected_digest.insert(i, drive::digest(&expected));
    }
    for read in served.logs.iter().flat_map(|log| &log.reads) {
        if read.window.is_some() {
            continue;
        }
        if expected_digest.get(&read.stmt) != Some(&read.digest) {
            problems.push(format!(
                "an answer to statement {} differs from the oracle",
                read.stmt
            ));
        }
    }
}

/// Applies acknowledged write `seq` to the benchmark's copy of the state.
fn apply_write(state: &mut State, seed: u64, seq: u64, write: &Write) {
    match write {
        Write::Insert(rows) => {
            for &(id, image) in rows {
                state.insert(
                    id,
                    MaskRow {
                        meta: Meta {
                            image_id: image,
                            model_id: 0,
                            predicted_label: None,
                            object_box: None,
                        },
                        pixels: Arc::new(written_pixels(seed, id, seq)),
                    },
                );
            }
        }
        Write::Update(id) => {
            let row = state.get_mut(id).expect("update of a live mask");
            row.pixels = Arc::new(written_pixels(seed, *id, seq));
        }
        Write::Delete(ids) => {
            for id in ids {
                state.remove(id);
            }
        }
    }
}

/// Replays the acknowledged writes and checks every windowed read against
/// the states it may have observed. Returns the final state.
fn check_windowed(
    served: &Served,
    stmts: &[Stmt],
    base: &State,
    seed: u64,
    problems: &mut Vec<String>,
) -> State {
    let writes = served.writes.as_ref().map_or(&[][..], |w| &w.acked[..]);
    let mut reads: Vec<&drive::Read> = served
        .logs
        .iter()
        .flat_map(|log| &log.reads)
        .filter(|r| r.window.is_some())
        .collect();
    reads.sort_by_key(|r| r.window.as_ref().map(|w| w.0));
    let mut values: Vec<Vec<BTreeMap<u64, u64>>> = vec![Vec::new(); reads.len()];
    let mut memos: Vec<oracle::CpMemo> = vec![oracle::CpMemo::new(); stmts.len()];
    let mut state = base.clone();
    let mut next = 0usize;
    let mut active: Vec<usize> = Vec::new();
    for k in 0..=writes.len() as u64 {
        if k > 0 {
            apply_write(&mut state, seed, k - 1, &writes[k as usize - 1].0);
        }
        while next < reads.len() && reads[next].window.as_ref().map(|w| w.0) == Some(k) {
            active.push(next);
            next += 1;
        }
        active.retain(|&r| {
            let (_, hi, _) = reads[r].window.as_ref().expect("windowed read");
            let stmt = reads[r].stmt as usize;
            values[r].push(oracle::mask_values(&stmts[stmt], &state, &mut memos[stmt]));
            *hi > k
        });
    }
    for (r, read) in reads.iter().enumerate() {
        let (_, _, rows) = read.window.as_ref().expect("windowed read");
        if !oracle::check_window(&stmts[read.stmt as usize], &values[r], rows) {
            problems.push(format!(
                "a read of statement {} matches no state in its write window {:?}",
                read.stmt,
                read.window.as_ref().map(|w| (w.0, w.1))
            ));
        }
    }
    state
}

/// Checks that each read sent again after a delete race names a mask that a
/// `DELETE` sent before the error removed.
fn check_delete_races(served: &Served, problems: &mut Vec<String>) -> u64 {
    let writes = served.writes.as_ref().map_or(&[][..], |w| &w.acked[..]);
    let deleted_by: BTreeMap<u64, u64> = writes
        .iter()
        .zip(1u64..)
        .filter_map(|((w, _, _), seq)| match w {
            Write::Delete(ids) => Some(ids.iter().map(move |&id| (id, seq))),
            _ => None,
        })
        .flatten()
        .collect();
    let races: Vec<&(u64, u64)> = served
        .logs
        .iter()
        .flat_map(|log| &log.delete_races)
        .collect();
    for &&(mask, sent) in &races {
        if deleted_by.get(&mask).is_none_or(|&seq| seq > sent) {
            problems.push(format!(
                "a read failed on mask {mask}, which no DELETE sent before the error removed"
            ));
        }
    }
    races.len() as u64
}

/// Reopens the database through recovery and checks that every
/// acknowledged write is there with identical pixels and every acknowledged
/// delete is gone.
fn check_recovery(dir: &Path, state: &State, deleted: &[u64], problems: &mut Vec<String>) -> f64 {
    let started = Instant::now();
    let db = match MaskDb::open(dir, crate::serve::db_config()) {
        Ok(db) => db,
        Err(e) => {
            problems.push(format!("reopen after the run failed: {e}"));
            return 0.0;
        }
    };
    let recovered_s = started.elapsed().as_secs_f64();
    let catalog = db.catalog();
    if catalog.len() != state.len() {
        problems.push(format!(
            "recovered catalog holds {} masks, {} were acknowledged live",
            catalog.len(),
            state.len()
        ));
    }
    let store = db.store();
    for (&id, row) in state {
        match store.get(MaskId::new(id)) {
            Ok(mask) => {
                let same = mask.data().len() == PIXELS
                    && mask
                        .data()
                        .iter()
                        .zip(row.pixels.iter())
                        .all(|(&v, &q)| v == data::value(q));
                if !same {
                    problems.push(format!("mask {id} recovered with different pixels"));
                }
            }
            Err(e) => problems.push(format!(
                "acknowledged mask {id} missing after recovery: {e}"
            )),
        }
    }
    for &id in deleted {
        if store.contains(MaskId::new(id)) {
            problems.push(format!("deleted mask {id} present after recovery"));
        }
    }
    recovered_s
}

fn deleted_ids(writes: &WriteLog, state: &State) -> Vec<u64> {
    let mut out: Vec<u64> = writes
        .acked
        .iter()
        .filter_map(|(w, _, _)| match w {
            Write::Delete(ids) => Some(ids.clone()),
            _ => None,
        })
        .flatten()
        .filter(|id| !state.contains_key(id))
        .collect();
    out.sort_unstable();
    out
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let shape = shape(&opts.workload, opts.smoke).ok_or_else(|| {
        format!(
            "unknown workload {:?} (expected one of {WORKLOADS:?})",
            opts.workload
        )
    })?;
    let literals = pixel_literals();
    let base = base_dataset(opts.seed, shape.images);
    let mut rng = Rng::stream(opts.seed, 2);
    let stmts = match shape.mix {
        Mix::Explore => mixes::explore(&mut rng, &base, shape.statements),
        Mix::Audit => mixes::audit(&mut rng, &base, shape.images, shape.statements),
        Mix::Ingest => mixes::ingest(&mut rng, &base, shape.images, shape.statements),
    };
    let sqls: Vec<String> = stmts.iter().map(Stmt::sql).collect();
    note(&format!(
        "{} masks and {} statements generated",
        base.len(),
        stmts.len()
    ));
    let windowed: Vec<bool> = stmts
        .iter()
        .map(|s| shape.mix == Mix::Ingest && mixes::reads_writes(s))
        .collect();

    // Set up several times from empty directories; serve from the last.
    let mut setups: Vec<SetupCost> = Vec::new();
    let mut deployment = None;
    for r in 0..shape.setups {
        if let Some(previous) = deployment.take() {
            Deployment::stop(previous);
            let _ = std::fs::remove_dir_all(opts.work.join(format!("setup{}", r - 1)));
        }
        let root = opts.work.join(format!("setup{r}"));
        let (d, cost) = Deployment::start(&root, &base, shape.shards, shape.cache_bytes)?;
        note(&format!(
            "set-up {r}: {:.3} s ({:.3} of busy CPU time given), {} masks in {} batches",
            cost.seconds,
            cost.given,
            cost.masks,
            cost.batch_ms.len()
        ));
        setups.push(cost);
        deployment = Some(d);
    }
    let deployment = deployment.expect("at least one set-up");

    let epoch = Instant::now();
    let run = Duration::from_secs_f64(opts.seconds);
    let warm_ops = match shape.mix {
        Mix::Audit => 8,
        _ => stmts.len(),
    };
    let clock = WriteClock::default();
    let plan = WritePlan::new(opts.seed, shape.images, 2 * shape.images);

    let writer = (shape.mix == Mix::Ingest).then_some((opts.seed, plan, &literals[..], &clock));
    // A traced run records spans in its second half only, so the first
    // half shows what tracing costs.
    let served = serve_phase(
        &deployment,
        &sqls,
        &windowed,
        warm_ops,
        run,
        writer,
        epoch,
        opts.trace.then_some(run / 2),
        &mut rng,
    );
    note("served");
    let end = Snapshot::take(&deployment);
    let start = &served.start;
    let io_run = end.io_write_bytes.saturating_sub(start.io_write_bytes);
    let counters_run = end.counters.since(&start.counters);
    let loaded_actual = end.masks_loaded - start.masks_loaded;
    let cache_run = (
        end.cache_hits - start.cache_hits,
        end.cache_misses - start.cache_misses,
    );
    let cluster_run = end.cluster.zip(start.cluster);
    let queue_wait_ms = deployment.nodes[0]
        .server
        .engine()
        .metrics()
        .queue_wait
        .p50()
        .as_secs_f64()
        * 1e3;

    let mut problems: Vec<String> = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    for log in &served.logs {
        attempted += log.attempted;
        failed += log.failed;
        problems.extend(log.errors.iter().cloned());
    }
    if let Some(w) = &served.writes {
        attempted += w.attempted;
        failed += w.failed;
        problems.extend(w.errors.iter().cloned());
    }

    // The traced run's layer breakdown.
    let mut tracer = Tracer::new(epoch);
    let mut probe = Probe::default();
    let mut fanout_ms = Vec::new();
    let mut insert_compile_us = 0.0;
    if opts.trace {
        for log in &served.logs {
            if let Some((t, _)) = &log.tracer {
                tracer.absorb(t.clone());
            }
        }
        if let Some((t, _)) = served.writes.as_ref().and_then(|w| w.tracer.clone()) {
            tracer.absorb(t);
        }
        let sessions: Vec<&masksearch_query::Session> = deployment
            .nodes
            .iter()
            .map(|n| n.session().as_ref())
            .collect();
        probe = layers::probe(&sessions, &stmts, &sqls, &mut tracer);
        let pixels: Vec<Vec<u8>> = (0..4)
            .map(|i| written_pixels(opts.seed, 1 << 40, i))
            .collect();
        let tuples: Vec<(u64, u64, &[u8])> = pixels
            .iter()
            .enumerate()
            .map(|(i, p)| ((1 << 40) + i as u64, 1 << 40, p.as_slice()))
            .collect();
        insert_compile_us =
            layers::compile_insert_us_per_mask(&insert_sql(&tuples, &literals), 4, &mut tracer);
        if deployment.coordinator.is_some() {
            fanout_ms = fanout_overhead(&deployment, &sqls)?;
        }
    }

    let index_bytes: u64 = deployment
        .nodes
        .iter()
        .map(|n| n.session().index_bytes() + n.db.tile_store().total_bytes())
        .sum();
    note("layers probed");
    let wal_bytes: u64 = deployment
        .nodes
        .iter()
        .map(|n| n.db.ingest_stats().wal_bytes)
        .sum();
    let disk_bytes = deployment.disk_bytes();
    let dirs = deployment.stop();

    note("stopped");
    // Correctness.
    let mut delete_races = 0;
    let final_state = match shape.mix {
        Mix::Ingest => {
            check_static(&served, &stmts, &base, &mut problems);
            let state = check_windowed(&served, &stmts, &base, opts.seed, &mut problems);
            delete_races = check_delete_races(&served, &mut problems);
            if let Some(w) = &served.writes {
                let deleted = deleted_ids(w, &state);
                let recovery_s = check_recovery(&dirs[0], &state, &deleted, &mut problems);
                note(&format!(
                    "recovery reopen {recovery_s:.3} s, {} masks checked; {} writes, {:.0} KB of SQL per mask written",
                    state.len(),
                    w.acked.len(),
                    w.sql_bytes as f64 / 1e3 / w.masks_written.max(1) as f64
                ));
            }
            state
        }
        _ => {
            check_static(&served, &stmts, &base, &mut problems);
            base.clone()
        }
    };

    let lat = latency(&served, &stmts);
    note(&format!(
        "given share of busy CPU time per window: {:?}",
        served
            .given
            .iter()
            .map(|f| (f * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    ));
    let reads = lat.client_ms.len() as u64;
    note(&format!(
        "checked; {} timed reads in {:.2} s ({} statements), {} failed, {} sent again after a delete race",
        reads,
        served.run_s,
        stmts.len(),
        failed,
        delete_races
    ));
    let live_pixel_bytes = final_state.len() as f64 * MASK_BYTES;
    let metrics = if opts.trace {
        let path = &opts.trace_file;
        tracer
            .write_jsonl(path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        note(&format!(
            "{} spans written to {}",
            tracer.spans.len(),
            path.display()
        ));
        let half = served.run_s / 2.0;
        let (traced, untraced): (Vec<&drive::Read>, Vec<&drive::Read>) = served
            .logs
            .iter()
            .flat_map(|l| &l.reads)
            .filter(|r| r.client_us >= 0.0)
            .partition(|r| r.at_s >= half);
        let p50_of = |reads: Vec<&drive::Read>| {
            median(&reads.iter().map(|r| r.client_us / 1e3).collect::<Vec<_>>())
        };
        let (traced_p50, untraced_p50) = (p50_of(traced), p50_of(untraced));
        note(&format!(
            "client p50 untraced {untraced_p50:.4} ms, traced {traced_p50:.4} ms"
        ));
        per_layer(PerLayerInputs {
            lat: &lat,
            probe: &probe,
            tracer: &tracer,
            queue_wait_ms,
            loaded_reported: served.logs.iter().map(|l| l.loaded_reported).sum(),
            loaded_actual,
            delete_races,
            cache_run,
            counters_run,
            counters_total: Counters::now(),
            reads,
            insert_compile_us,
            index_bytes,
            wal_bytes,
            live_pixel_bytes,
            setups: &setups,
            writes: served.writes.as_ref(),
            cluster_run,
            fanout_ms: &fanout_ms,
            overhead_ms: traced_p50 - untraced_p50,
        })
    } else {
        end_to_end(&lat, &served, &setups, io_run, disk_bytes, live_pixel_bytes)
    };
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
    })
}

/// Coordinator wall minus the slowest shard's wall for each statement sent
/// through the coordinator and directly to every shard.
fn fanout_overhead(deployment: &Deployment, sqls: &[String]) -> Result<Vec<f64>, String> {
    let connect = |addr| Client::connect(addr).map_err(|e| format!("connect: {e}"));
    let mut coordinator = connect(deployment.addr())?;
    let mut shards = deployment
        .nodes
        .iter()
        .map(|n| connect(n.server.local_addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = Vec::new();
    for sql in sqls {
        let Ok(c) = coordinator.query(sql) else {
            continue;
        };
        let slowest = shards
            .iter_mut()
            .filter_map(|s| s.query(sql).ok())
            .map(|r| r.summary.wall_us)
            .max()
            .unwrap_or(0);
        out.push((c.summary.wall_us as f64 - slowest as f64) / 1e3);
    }
    let _ = coordinator.quit();
    for s in shards {
        let _ = s.quit();
    }
    Ok(out)
}

fn end_to_end(
    lat: &Latency,
    served: &Served,
    setups: &[SetupCost],
    io_run: u64,
    disk_bytes: u64,
    live_pixel_bytes: f64,
) -> Vec<Metric> {
    let class = |name: &str| median(lat.given_by_class.get(name).map_or(&[][..], |v| &v[..]));
    let (write_ms, masks_per_s, write_amp) = match &served.writes {
        Some(w) => {
            let mut ms = Vec::new();
            let mut masks = 0u64;
            for (write, latency_ms, at_s) in &w.acked {
                ms.push(latency_ms * lat.given_at(*at_s));
                masks += match write {
                    Write::Insert(rows) => rows.len() as u64,
                    Write::Update(_) => 1,
                    Write::Delete(_) => 0,
                };
            }
            (
                median(&ms),
                masks as f64 / lat.given_s(),
                io_run as f64 / (w.masks_written as f64 * MASK_BYTES),
            )
        }
        None => {
            let ms: Vec<f64> = setups
                .iter()
                .map(|s| median(&s.batch_ms) * s.given)
                .collect();
            let rates: Vec<f64> = setups
                .iter()
                .map(|s| s.masks as f64 / (s.insert_s * s.given))
                .collect();
            let amps: Vec<f64> = setups
                .iter()
                .map(|s| s.write_bytes as f64 / (s.masks as f64 * MASK_BYTES))
                .collect();
            (median(&ms), median(&rates), median(&amps))
        }
    };
    let setup_s: Vec<f64> = setups.iter().map(|s| s.seconds * s.given).collect();
    vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("query_p50_ms", median(&lat.given_ms), "ms"),
        metric(
            "query_qps",
            lat.given_ms.len() as f64 / lat.given_s(),
            "1/s",
        ),
        metric("filter_p50_ms", class("filter"), "ms"),
        metric("topk_p50_ms", class("topk"), "ms"),
        metric("agg_p50_ms", class("agg"), "ms"),
        metric("write_p50_ms", write_ms, "ms"),
        metric("ingest_masks_per_s", masks_per_s, "masks/s"),
        metric("write_amp", write_amp, "ratio"),
        metric("space_amp", disk_bytes as f64 / live_pixel_bytes, "ratio"),
    ]
}

struct PerLayerInputs<'a> {
    lat: &'a Latency,
    probe: &'a Probe,
    tracer: &'a Tracer,
    queue_wait_ms: f64,
    loaded_reported: u64,
    loaded_actual: u64,
    delete_races: u64,
    cache_run: (u64, u64),
    counters_run: Counters,
    counters_total: Counters,
    reads: u64,
    insert_compile_us: f64,
    index_bytes: u64,
    wal_bytes: u64,
    live_pixel_bytes: f64,
    setups: &'a [SetupCost],
    writes: Option<&'a WriteLog>,
    cluster_run: Option<(
        masksearch_cluster::ClusterMetricsSnapshot,
        masksearch_cluster::ClusterMetricsSnapshot,
    )>,
    fanout_ms: &'a [f64],
    overhead_ms: f64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn per_layer(x: PerLayerInputs<'_>) -> Vec<Metric> {
    let p = x.probe;
    let statements = p.statements as f64;
    let total = x.counters_total;
    let user_bytes = x.setups.last().map_or(0.0, |s| s.masks as f64 * MASK_BYTES)
        + x.writes
            .map_or(0.0, |w| w.masks_written as f64 * MASK_BYTES);
    let (scatter, rounds, refined) = match x.cluster_run {
        Some((now, before)) => {
            let queries = (now.queries - before.queries) as f64;
            let ranked = (now.ranked_queries - before.ranked_queries) as f64;
            (
                ratio((now.shard_requests - before.shard_requests) as f64, queries),
                ratio((now.topk_rounds - before.topk_rounds) as f64, ranked),
                (now.topk_refined_requests - before.topk_refined_requests) as f64,
            )
        }
        None => (0.0, 0.0, 0.0),
    };
    let self_ms = x.tracer.self_ms_by_layer();
    let self_of = |layer: &str| self_ms.get(layer).copied().unwrap_or(0.0);
    let served_requests = x.lat.client_ms.len() as f64;
    vec![
        metric("process.rss_peak_mib", rss_peak_mib(), "MiB"),
        metric("service.server_p50_ms", median(&x.lat.server_ms), "ms"),
        metric("service.wire_p50_ms", median(&x.lat.wire_ms), "ms"),
        metric(
            "service.client_p99_ms",
            quantile(&x.lat.given_ms, 0.99),
            "ms",
        ),
        metric(
            "service.pair_p50_ms",
            median(x.lat.given_by_class.get("pair").map_or(&[][..], |v| &v[..])),
            "ms",
        ),
        metric("service.queue_wait_p50_ms", x.queue_wait_ms, "ms"),
        metric(
            "service.loaded_reported_per_actual",
            ratio(x.loaded_reported as f64, x.loaded_actual as f64),
            "ratio",
        ),
        metric("sql.compile_us", median(&p.compile_us), "us"),
        metric("sql.compile_us_per_mask", x.insert_compile_us, "us"),
        metric("plan.plan_us", median(&p.plan_us), "us"),
        metric("plan.kernel_on", p.planner[0] as f64, "count"),
        metric("plan.kernel_off", p.planner[1] as f64, "count"),
        metric("plan.bounds_skipped", p.planner[2] as f64, "count"),
        metric("plan.index_on", p.planner[3] as f64, "count"),
        metric("plan.index_off", p.planner[4] as f64, "count"),
        metric("query.resolve_ms", median(&p.resolve_ms), "ms"),
        metric("query.filter_ms", median(&p.filter_ms), "ms"),
        metric("query.verify_ms", median(&p.verify_ms), "ms"),
        metric("query.unaccounted_ms", median(&p.unaccounted_ms), "ms"),
        metric("query.delete_race_retries", x.delete_races as f64, "count"),
        metric("query.candidates", mean(&p.candidates), "count"),
        metric("query.verified", mean(&p.verified), "count"),
        metric(
            "index.bounds_ns_per_candidate",
            median(&p.bounds_ns_per_candidate),
            "ns",
        ),
        metric(
            "index.decided_ratio",
            ratio(p.decided as f64, p.decidable as f64),
            "ratio",
        ),
        metric(
            "index.bytes_per_mask_byte",
            ratio(x.index_bytes as f64, x.live_pixel_bytes),
            "ratio",
        ),
        metric(
            "core.kernel_mpix_per_s",
            median(&p.kernel_mpix_per_s),
            "Mpix/s",
        ),
        metric(
            "core.tiles_pruned",
            ratio(p.tiles[0] as f64, statements),
            "count",
        ),
        metric(
            "core.tiles_hist",
            ratio(p.tiles[1] as f64, statements),
            "count",
        ),
        metric(
            "core.tiles_scanned",
            ratio(p.tiles[2] as f64, statements),
            "count",
        ),
        metric(
            "storage.cache_hit_rate",
            ratio(x.cache_run.0 as f64, (x.cache_run.0 + x.cache_run.1) as f64),
            "ratio",
        ),
        metric(
            "storage.masks_loaded_per_query",
            ratio(x.loaded_actual as f64, x.reads as f64),
            "count",
        ),
        metric("storage.load_us_per_mask", median(&p.load_us), "us"),
        metric(
            "storage.catalog_wait_ms",
            ratio(x.counters_run.catalog_wait_us as f64 / 1e3, x.reads as f64),
            "ms",
        ),
        metric(
            "storage.cache_lock_wait_ms",
            ratio(
                x.counters_run.cache_lock_wait_us as f64 / 1e3,
                x.reads as f64,
            ),
            "ms",
        ),
        metric(
            "db.pager_reads_per_load",
            ratio(x.counters_run.pager_reads as f64, x.loaded_actual as f64),
            "count",
        ),
        metric(
            "db.commit_ms",
            ratio(total.wal_commit_us as f64 / 1e3, total.wal_commits as f64),
            "ms",
        ),
        metric(
            "db.wal_bytes_per_user_byte",
            ratio(x.wal_bytes as f64, user_bytes),
            "ratio",
        ),
        metric("db.checkpoints", total.checkpoints as f64, "count"),
        metric(
            "db.checkpoint_ms",
            ratio(total.checkpoint_us as f64 / 1e3, total.checkpoints as f64),
            "ms",
        ),
        metric("cluster.scatter_requests_per_query", scatter, "count"),
        metric("cluster.fanout_overhead_ms", median(x.fanout_ms), "ms"),
        metric("cluster.merge_us", median(&p.merge_us), "us"),
        metric("cluster.topk_rounds_mean", rounds, "count"),
        metric("cluster.refined_requests", refined, "count"),
        metric(
            "self.service_wire_ms",
            ratio(self_of("service.wire"), served_requests),
            "ms",
        ),
        metric(
            "self.service_server_ms",
            ratio(self_of("service.server"), served_requests),
            "ms",
        ),
        metric("self.sql_ms", ratio(self_of("sql"), statements), "ms"),
        metric("self.plan_ms", ratio(self_of("plan"), statements), "ms"),
        metric("self.query_ms", ratio(self_of("query"), statements), "ms"),
        metric(
            "self.query_stages_ms",
            ratio(self_of("query.stage"), statements),
            "ms",
        ),
        metric("self.index_ms", ratio(self_of("index"), statements), "ms"),
        metric(
            "self.storage_ms",
            ratio(self_of("storage"), statements),
            "ms",
        ),
        metric("self.core_ms", ratio(self_of("core"), statements), "ms"),
        metric("self.merge_ms", ratio(self_of("cluster"), statements), "ms"),
        metric("trace.overhead_ms", x.overhead_ms, "ms"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::Read;
    use crate::oracle::Key;

    /// Serves a small database, answers a mix through the real server, and
    /// shows that the oracle check passes on the answers and fails once one
    /// returned row is corrupted.
    #[test]
    fn a_corrupted_row_fails_the_oracle_check() {
        let base = base_dataset(3, 16);
        let mut rng = Rng::stream(3, 2);
        let stmts = mixes::explore(&mut rng, &base, 24);
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-{}", std::process::id()));
        let (deployment, _) = Deployment::start(&dir, &base, 1, 64 * MIB).expect("set-up");
        let mut client = Client::connect(deployment.addr()).expect("connect");
        let mut log = ClientLog::default();
        for (i, stmt) in stmts.iter().enumerate() {
            let response = client.query(&stmt.sql()).expect("answer");
            let rows = drive::rows_of(&response);
            log.reads.push(Read {
                stmt: i as u32,
                client_us: 1.0,
                at_s: 0.0,
                server_us: 0,
                digest: drive::digest(&rows),
                window: None,
            });
            log.first.insert(i as u32, rows);
        }
        client.quit().expect("quit");
        deployment.stop();
        let _ = std::fs::remove_dir_all(&dir);

        let mut served = Served {
            logs: vec![log],
            writes: None,
            run_s: 1.0,
            given: Vec::new(),
            start: Snapshot::default(),
        };
        let mut problems = Vec::new();
        check_static(&served, &stmts, &base, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");

        let log = &mut served.logs[0];
        let (&stmt, rows) = log
            .first
            .iter_mut()
            .find(|(_, rows)| rows.len() > 1)
            .expect("a statement with rows");
        let row = &mut rows[1];
        match row.value {
            Some(v) => row.value = Some(v + 1.0),
            None => {
                row.key = match row.key {
                    Key::Mask(id) => Key::Mask(id + 100_000),
                    Key::Image(id) => Key::Image(id + 100_000),
                }
            }
        }
        let digest = drive::digest(rows);
        log.reads[stmt as usize].digest = digest;
        let mut problems = Vec::new();
        check_static(&served, &stmts, &base, &mut problems);
        assert_eq!(problems.len(), 2, "{problems:?}");
    }
}
