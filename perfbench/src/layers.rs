//! Direct calls into each layer's public functions, timed with spans: the
//! traced run's per-layer breakdown of the statements the clients sent.

use crate::data::{Rect, SIDE};
use crate::spec::{Cp, Roi as SpecRoi, Stmt};
use crate::trace::Tracer;
use masksearch_core::{MaskId, PixelRange, Roi, TiledMask};
use masksearch_obs::counters;
use masksearch_query::{eval, merge, Order, QueryKind, QueryOutput, Session};
use masksearch_sql::{compile_statement, Statement};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Masks loaded directly per statement to time the storage and kernel
/// layers.
const LOADS_PER_STATEMENT: usize = 16;

#[derive(Debug, Default)]
pub struct Probe {
    pub compile_us: Vec<f64>,
    pub plan_us: Vec<f64>,
    pub resolve_ms: Vec<f64>,
    pub filter_ms: Vec<f64>,
    pub verify_ms: Vec<f64>,
    pub unaccounted_ms: Vec<f64>,
    pub candidates: Vec<f64>,
    pub verified: Vec<f64>,
    pub decided: u64,
    pub decidable: u64,
    pub tiles: [u64; 3],
    /// kernel on, kernel off, bounds skipped, index on, index off.
    pub planner: [u64; 5],
    pub bounds_ns_per_candidate: Vec<f64>,
    pub load_us: Vec<f64>,
    pub kernel_mpix_per_s: Vec<f64>,
    pub merge_us: Vec<f64>,
    pub statements: u64,
}

fn core_roi(roi: SpecRoi, object: Option<Roi>) -> Roi {
    let full = || Roi::new(0, 0, SIDE, SIDE).expect("full roi");
    match roi {
        SpecRoi::Full => full(),
        SpecRoi::Object => object.unwrap_or_else(full),
        SpecRoi::Rect(Rect { x0, y0, x1, y1 }) => Roi::new(x0, y0, x1, y1).expect("valid rect"),
    }
}

fn first_cp(stmt: &Stmt) -> &Cp {
    match stmt {
        Stmt::Filter { cp, .. }
        | Stmt::TopK { cp, .. }
        | Stmt::Avg { cp, .. }
        | Stmt::Intersect { cp, .. }
        | Stmt::PairFilter { cp, .. }
        | Stmt::PairTopK { cp, .. } => cp,
    }
}

fn ranking(query: &masksearch_query::Query) -> Option<(usize, Order)> {
    match &query.kind {
        QueryKind::TopK { k, order, .. } | QueryKind::PairTopK { k, order, .. } => {
            Some((*k, *order))
        }
        QueryKind::Aggregate { top_k, .. } | QueryKind::MaskAggregate { top_k, .. } => *top_k,
        _ => None,
    }
}

/// Times every layer for each statement on `sessions[0]`; with two
/// sessions (the shards of a cluster) the merge runs on their partial
/// answers.
pub fn probe(sessions: &[&Session], stmts: &[Stmt], sqls: &[String], tracer: &mut Tracer) -> Probe {
    let session = sessions[0];
    let mut p = Probe::default();
    for (i, (stmt, sql)) in stmts.iter().zip(sqls).enumerate() {
        let request = 1_000_000 + i as u64;
        let started = Instant::now();
        let Ok(Statement::Query(query)) = compile_statement(sql) else {
            continue;
        };
        let compiled = Instant::now();
        tracer.span(
            "sql.compile_statement",
            "sql",
            started,
            compiled,
            None,
            request,
        );
        p.compile_us.push((compiled - started).as_secs_f64() * 1e6);

        let started = Instant::now();
        std::hint::black_box(session.plan_query(&query));
        let planned = Instant::now();
        tracer.span("plan.plan_query", "plan", started, planned, None, request);
        p.plan_us.push((planned - started).as_secs_f64() * 1e6);

        let started = Instant::now();
        let Ok(output) = session.execute(&query) else {
            continue;
        };
        let executed = Instant::now();
        let exec = tracer.span("query.execute", "query", started, executed, None, request);
        let s = output.stats;
        for (name, wall) in [
            ("query.resolve", s.resolve_wall),
            ("query.filter", s.filter_wall),
            ("query.verify", s.verify_wall),
        ] {
            tracer.child_of_duration(name, "query.stage", exec, wall);
        }
        let wall_ms = (executed - started).as_secs_f64() * 1e3;
        let stages = [s.resolve_wall, s.filter_wall, s.verify_wall];
        let stage_ms: Vec<f64> = stages.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        p.resolve_ms.push(stage_ms[0]);
        p.filter_ms.push(stage_ms[1]);
        p.verify_ms.push(stage_ms[2]);
        p.unaccounted_ms
            .push(wall_ms - stage_ms.iter().sum::<f64>());
        p.candidates.push(s.candidates as f64);
        p.verified.push(s.verified as f64);
        p.decided += s.pruned + s.accepted_without_load;
        p.decidable += s.candidates;
        p.tiles[0] += s.tiles_pruned;
        p.tiles[1] += s.tiles_hist;
        p.tiles[2] += s.tiles_scanned;
        for (slot, v) in p.planner.iter_mut().zip([
            s.planner_kernel_on,
            s.planner_kernel_off,
            s.planner_bounds_skipped,
            s.planner_index_on,
            s.planner_index_off,
        ]) {
            *slot += v;
        }
        p.statements += 1;

        let candidates = session.resolve_selection(&query.selection);
        if let QueryKind::Filter { predicate } = &query.kind {
            let inputs: Vec<_> = candidates
                .iter()
                .filter_map(|&id| Some((session.record(id).ok()?, session.chi_for(id)?)))
                .collect();
            let started = Instant::now();
            for (record, chi) in &inputs {
                std::hint::black_box(eval::predicate_bounds(predicate, record, chi, true).ok());
            }
            let bounded = Instant::now();
            tracer.span(
                "index.predicate_bounds",
                "index",
                started,
                bounded,
                None,
                request,
            );
            if !inputs.is_empty() {
                p.bounds_ns_per_candidate
                    .push((bounded - started).as_nanos() as f64 / inputs.len() as f64);
            }
        }

        // Loads bypass the cache; cache-missing candidates come first.
        let mut to_load: Vec<MaskId> = candidates
            .iter()
            .copied()
            .filter(|&id| session.cache().peek_tiled(id).is_none())
            .take(LOADS_PER_STATEMENT)
            .collect();
        for &id in &candidates {
            if to_load.len() >= LOADS_PER_STATEMENT {
                break;
            }
            if !to_load.contains(&id) {
                to_load.push(id);
            }
        }
        let mut loaded: Vec<(MaskId, TiledMask)> = Vec::new();
        let started = Instant::now();
        for &id in &to_load {
            if let Ok(tiled) = session.store().get_tiled(id) {
                loaded.push((id, tiled));
            }
        }
        let done = Instant::now();
        tracer.span("storage.get_tiled", "storage", started, done, None, request);
        if !loaded.is_empty() {
            p.load_us
                .push((done - started).as_secs_f64() * 1e6 / loaded.len() as f64);
        }

        let cp = first_cp(stmt);
        let (lo, hi) = cp.range.bounds();
        let range = PixelRange::new(lo, hi).expect("valid range");
        let terms: Vec<(Roi, &TiledMask)> = loaded
            .iter()
            .map(|(id, tiled)| {
                let object = session.record(*id).ok().and_then(|r| r.object_box);
                (core_roi(cp.roi, object), tiled)
            })
            .collect();
        let pixels: u64 = terms.iter().map(|(roi, _)| roi.area()).sum();
        let started = Instant::now();
        for (roi, tiled) in &terms {
            std::hint::black_box(tiled.cp(roi, &range));
        }
        let done = Instant::now();
        tracer.span("core.tiled_cp", "core", started, done, None, request);
        let secs = (done - started).as_secs_f64();
        if pixels > 0 && secs > 0.0 {
            p.kernel_mpix_per_s.push(pixels as f64 / secs / 1e6);
        }

        if sessions.len() < 2 {
            continue;
        }
        let parts: Vec<QueryOutput> = sessions
            .iter()
            .filter_map(|s| s.execute(&query).ok())
            .collect();
        let started = Instant::now();
        let merged = match ranking(&query) {
            Some((k, order)) => merge::merge_ranked(&parts, k, order),
            None => merge::merge_unordered(parts),
        };
        let done = Instant::now();
        std::hint::black_box(merged);
        tracer.span("query.merge", "cluster", started, done, None, request);
        p.merge_us.push((done - started).as_secs_f64() * 1e6);
    }
    p
}

/// Compile time per mask of an `INSERT` carrying `masks` masks.
pub fn compile_insert_us_per_mask(sql: &str, masks: u64, tracer: &mut Tracer) -> f64 {
    let started = Instant::now();
    let compiled = compile_statement(sql);
    let done = Instant::now();
    std::hint::black_box(compiled.is_ok());
    tracer.span("sql.compile_insert", "sql", started, done, None, 2_000_000);
    (done - started).as_secs_f64() * 1e6 / masks.max(1) as f64
}

/// Process-wide counters read before and after a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub catalog_wait_us: u64,
    pub cache_lock_wait_us: u64,
    pub wal_commits: u64,
    pub wal_commit_us: u64,
    pub checkpoints: u64,
    pub checkpoint_us: u64,
    pub pager_reads: u64,
}

impl Counters {
    pub fn now() -> Self {
        let get = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        Self {
            catalog_wait_us: get(&counters::CATALOG_READ_WAIT_US)
                + get(&counters::CATALOG_WRITE_WAIT_US),
            cache_lock_wait_us: get(&counters::CACHE_LOCK_WAIT_US),
            wal_commits: get(&counters::WAL_COMMITS),
            wal_commit_us: get(&counters::WAL_COMMIT_US),
            checkpoints: get(&counters::DB_CHECKPOINTS),
            checkpoint_us: get(&counters::DB_CHECKPOINT_US),
            pager_reads: get(&counters::PAGER_READS),
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            catalog_wait_us: self.catalog_wait_us - earlier.catalog_wait_us,
            cache_lock_wait_us: self.cache_lock_wait_us - earlier.cache_lock_wait_us,
            wal_commits: self.wal_commits - earlier.wal_commits,
            wal_commit_us: self.wal_commit_us - earlier.wal_commit_us,
            checkpoints: self.checkpoints - earlier.checkpoints,
            checkpoint_us: self.checkpoint_us - earlier.checkpoint_us,
            pager_reads: self.pager_reads - earlier.pager_reads,
        }
    }
}
