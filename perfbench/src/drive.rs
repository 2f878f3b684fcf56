//! Closed-loop clients: each sends its next statement only after the answer
//! to the previous one arrived, the way an analyst waits for a result.

use crate::data::{written_pixels, Rng};
use crate::oracle::{Key, Row};
use crate::spec::{delete_sql, insert_sql, update_sql, Write};
use crate::trace::Tracer;
use masksearch_query::RowKey;
use masksearch_service::protocol::WireResponse;
use masksearch_service::Client;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Converts wire rows into the oracle's row type.
pub fn rows_of(response: &WireResponse) -> Vec<Row> {
    response
        .rows
        .iter()
        .map(|r| Row {
            key: match r.key {
                RowKey::Mask(id) => Key::Mask(id.raw()),
                RowKey::Image(id) => Key::Image(id.raw()),
            },
            value: r.value,
        })
        .collect()
}

/// FNV-1a over the rows' keys and value bits.
pub fn digest(rows: &[Row]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for row in rows {
        match row.key {
            Key::Mask(id) => {
                eat(1);
                eat(id)
            }
            Key::Image(id) => {
                eat(2);
                eat(id)
            }
        }
        eat(row.value.map_or(u64::MAX, f64::to_bits));
    }
    h
}

/// Progress of the single writer, shared with the reader: how many writes
/// were acknowledged and how many were sent.
#[derive(Debug, Default)]
pub struct WriteClock {
    pub acked: AtomicU64,
    pub sent: AtomicU64,
}

impl WriteClock {
    /// Waits until write `seq` is acknowledged, or a second has passed.
    fn wait_acked(&self, seq: u64) {
        let until = Instant::now() + Duration::from_secs(1);
        while self.acked.load(Ordering::SeqCst) < seq && Instant::now() < until {
            std::thread::sleep(Duration::from_micros(20));
        }
    }
}

/// Times a read failed by a delete race is sent again.
const RACE_RETRIES: usize = 3;

/// One timed read.
#[derive(Debug, Clone)]
pub struct Read {
    pub stmt: u32,
    pub client_us: f64,
    /// Completion time in seconds since timing started.
    pub at_s: f64,
    pub server_us: u64,
    pub digest: u64,
    /// Writes acknowledged before sending and sent before the answer came
    /// back (ingest workload only), with the rows kept for the check.
    pub window: Option<(u64, u64, Vec<Row>)>,
}

#[derive(Debug, Default)]
pub struct ClientLog {
    pub reads: Vec<Read>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The first answer to each statement, for the oracle check.
    pub first: BTreeMap<u32, Vec<Row>>,
    /// Sum of the `loaded=` fields of the timed answers.
    pub loaded_reported: u64,
    /// Reads that failed because a concurrent `DELETE` removed one of their
    /// candidates, and were sent again: the mask named in the error and the
    /// writes sent before the error came back.
    pub delete_races: Vec<(u64, u64)>,
    /// Spans of round trips sent after the given time into the run.
    pub tracer: Option<(Tracer, Duration)>,
}

impl ClientLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// What a reader does.
pub struct ReadJob<'a> {
    pub addr: SocketAddr,
    pub sql: &'a [String],
    /// Statements whose answer depends on concurrent writes.
    pub windowed: &'a [bool],
    pub order: Vec<u32>,
    /// Untimed statements before timing starts.
    pub warm_ops: usize,
    /// Every client passes it when warm; timing starts there.
    pub barrier: &'a Barrier,
    pub run: Duration,
    pub clock: Option<&'a WriteClock>,
    pub tracer: Option<(Tracer, Duration)>,
    pub request_base: u64,
}

/// Runs one reader connection until the deadline.
pub fn read_loop(job: ReadJob<'_>) -> ClientLog {
    let mut log = ClientLog {
        tracer: job.tracer,
        ..ClientLog::default()
    };
    let mut client = match Client::connect(job.addr) {
        Ok(c) => c,
        Err(e) => {
            log.fail(format!("connect: {e}"));
            job.barrier.wait();
            return log;
        }
    };
    let mut request = job.request_base;
    let timed_from = job.warm_ops;
    let mut deadline = None;
    let mut i = 0usize;
    loop {
        let timed = i >= timed_from;
        if timed {
            let end = *deadline.get_or_insert_with(|| {
                job.barrier.wait();
                Instant::now() + job.run
            });
            if Instant::now() >= end {
                break;
            }
        }
        let stmt = job.order[i % job.order.len()];
        i += 1;
        request += 1;
        let windowed = job.windowed[stmt as usize];
        let before = job.clock.map_or(0, |c| c.acked.load(Ordering::SeqCst));
        let sent = Instant::now();
        let mut result = client.query(&job.sql[stmt as usize]);
        if let Some(clock) = job.clock.filter(|_| windowed) {
            // The engine fails a read whose candidate a concurrent DELETE
            // removes (see README.md). Such a read is sent again once the
            // writes sent by then are acknowledged; the wait and the retry
            // are part of the read's latency, and the mask is checked
            // against the writer's deletes afterwards.
            for _ in 0..RACE_RETRIES {
                let Some(mask) = result
                    .as_ref()
                    .err()
                    .and_then(|e| deleted_mask(&e.to_string()))
                else {
                    break;
                };
                let racing = clock.sent.load(Ordering::SeqCst);
                log.delete_races.push((mask, racing));
                clock.wait_acked(racing);
                result = client.query(&job.sql[stmt as usize]);
            }
        }
        let done = Instant::now();
        let after = job.clock.map_or(0, |c| c.sent.load(Ordering::SeqCst));
        log.attempted += 1;
        let response = match result {
            Ok(r) => r,
            Err(e) => {
                log.fail(format!("statement {stmt}: {e}"));
                continue;
            }
        };
        if timed {
            log.loaded_reported += response.summary.loaded;
        }
        let rows = rows_of(&response);
        let d = digest(&rows);
        if !windowed {
            log.first.entry(stmt).or_insert_with(|| rows.clone());
        }
        if !timed {
            if windowed {
                // Warm-up reads of changing data are checked like timed ones.
                log.reads.push(Read {
                    stmt,
                    client_us: -1.0,
                    at_s: -1.0,
                    server_us: 0,
                    digest: d,
                    window: Some((before, after, rows)),
                });
            }
            continue;
        }
        let since_start = deadline.map_or(Duration::ZERO, |end| sent + job.run - end);
        let traced = log
            .tracer
            .as_mut()
            .filter(|(_, after)| since_start >= *after);
        if let Some((tracer, _)) = traced {
            let rt = tracer.span(
                "client.round_trip",
                "service.wire",
                sent,
                done,
                None,
                request,
            );
            tracer.child_of_duration(
                "server.wall",
                "service.server",
                rt,
                Duration::from_micros(response.summary.wall_us),
            );
        }
        log.reads.push(Read {
            stmt,
            client_us: (done - sent).as_secs_f64() * 1e6,
            at_s: deadline.map_or(0.0, |end| (done + job.run - end).as_secs_f64()),
            server_us: response.summary.wall_us,
            digest: d,
            window: windowed.then_some((before, after, rows)),
        });
    }
    let _ = client.quit();
    log
}

/// The mask named by an error that a read gets when a concurrent `DELETE`
/// removed one of its candidates between resolving and loading it.
pub fn deleted_mask(error: &str) -> Option<u64> {
    let at = error.find("mask ")? + "mask ".len();
    let rest = &error[at..];
    let (id, tail) = rest.split_at(rest.find(' ')?);
    let racing =
        tail.starts_with(" not found in the store") || tail.starts_with(" is not in the catalog");
    racing.then(|| id.parse().ok()).flatten()
}

/// The writer's deterministic statement sequence: rounds of three inserts
/// of one new image's two masks, one in-place re-mask and one delete.
///
/// Masks of even images (counted from the first inserted image) are the
/// ones re-masked and masks of odd images the ones deleted, so an `UPDATE`
/// never names a deleted mask. Readers select both.
#[derive(Debug, Clone)]
pub struct WritePlan {
    rng: Rng,
    first_image: u64,
    next_image: u64,
    next_id: u64,
    kept: Vec<u64>,
    churned: Vec<u64>,
    issued: u64,
}

/// Writer statements per round.
pub const WRITE_ROUND: u64 = 5;

impl WritePlan {
    pub fn new(seed: u64, first_image: u64, first_id: u64) -> Self {
        Self {
            rng: Rng::stream(seed, 7),
            first_image,
            next_image: first_image,
            next_id: first_id,
            kept: Vec::new(),
            churned: Vec::new(),
            issued: 0,
        }
    }

    pub fn next_write(&mut self) -> Write {
        let slot = self.issued % WRITE_ROUND;
        self.issued += 1;
        match slot {
            2 => Write::Update(self.kept[self.rng.below(0, self.kept.len() as u64) as usize]),
            4 => {
                let at = self.rng.below(0, self.churned.len() as u64) as usize;
                Write::Delete(vec![self.churned.swap_remove(at)])
            }
            _ => {
                let image = self.next_image;
                self.next_image += 1;
                let ids = [self.next_id, self.next_id + 1];
                self.next_id += 2;
                if (image - self.first_image).is_multiple_of(2) {
                    self.kept.extend(ids);
                } else {
                    self.churned.extend(ids);
                }
                Write::Insert(ids.iter().map(|&id| (id, image)).collect())
            }
        }
    }
}

#[derive(Debug, Default)]
pub struct WriteLog {
    /// Acknowledged writes in order, with their latency in milliseconds
    /// and completion time in seconds since timing started.
    pub acked: Vec<(Write, f64, f64)>,
    /// Masks whose pixels were written (inserted or re-masked).
    pub masks_written: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub sql_bytes: u64,
    /// Spans of writes sent after the given time into the run.
    pub tracer: Option<(Tracer, Duration)>,
}

/// The single writer: streams whole rounds of writes until the deadline.
#[allow(clippy::too_many_arguments)]
pub fn write_loop(
    addr: SocketAddr,
    seed: u64,
    mut plan: WritePlan,
    literals: &[String],
    barrier: &Barrier,
    run: Duration,
    clock: &WriteClock,
    tracer: Option<(Tracer, Duration)>,
) -> WriteLog {
    let mut log = WriteLog {
        tracer,
        ..WriteLog::default()
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.failed += 1;
            log.errors.push(format!("connect: {e}"));
            barrier.wait();
            return log;
        }
    };
    barrier.wait();
    let started = Instant::now();
    let deadline = started + run;
    let mut seq = 0u64;
    while !seq.is_multiple_of(WRITE_ROUND) || Instant::now() < deadline {
        let write = plan.next_write();
        let (sql, masks, expect) = match &write {
            Write::Insert(rows) => {
                let pixels: Vec<Vec<u8>> = rows
                    .iter()
                    .map(|&(id, _)| written_pixels(seed, id, seq))
                    .collect();
                let tuples: Vec<(u64, u64, &[u8])> = rows
                    .iter()
                    .zip(&pixels)
                    .map(|(&(id, image), p)| (id, image, p.as_slice()))
                    .collect();
                (
                    insert_sql(&tuples, literals),
                    rows.len() as u64,
                    (rows.len() as u64, 0, 0),
                )
            }
            Write::Update(id) => (
                update_sql(*id, &written_pixels(seed, *id, seq), literals),
                1,
                (0, 0, 1),
            ),
            Write::Delete(ids) => (delete_sql(ids), 0, (0, ids.len() as u64, 0)),
        };
        seq += 1;
        log.attempted += 1;
        log.sql_bytes += sql.len() as u64;
        clock.sent.store(seq, Ordering::SeqCst);
        let sent = Instant::now();
        let result = client.query(&sql);
        let done = Instant::now();
        let ok = match result {
            Ok(r) => {
                let s = r.summary;
                if (s.inserted, s.deleted, s.updated) == expect {
                    let traced = log
                        .tracer
                        .as_mut()
                        .filter(|(_, after)| sent - started >= *after);
                    if let Some((tracer, _)) = traced {
                        let rt = tracer.span(
                            "client.write",
                            "service.write_wire",
                            sent,
                            done,
                            None,
                            seq,
                        );
                        tracer.child_of_duration(
                            "server.write_wall",
                            "service.write_server",
                            rt,
                            Duration::from_micros(s.wall_us),
                        );
                    }
                    true
                } else {
                    log.errors.push(format!(
                        "write {seq}: acknowledged (inserted, deleted, updated) = {:?}, expected {expect:?}",
                        (s.inserted, s.deleted, s.updated)
                    ));
                    false
                }
            }
            Err(e) => {
                log.errors.push(format!("write {seq}: {e}"));
                false
            }
        };
        if !ok {
            // The database state is no longer known; stop writing.
            log.failed += 1;
            break;
        }
        clock.acked.store(seq, Ordering::SeqCst);
        log.acked.push((
            write,
            (done - sent).as_secs_f64() * 1e3,
            (done - started).as_secs_f64(),
        ));
        log.masks_written += masks;
    }
    let _ = client.quit();
    log
}

#[cfg(test)]
mod tests {
    use super::deleted_mask;

    #[test]
    fn delete_race_errors_name_their_mask() {
        let store = "server error: query failed: storage error: mask 711 not found in the store";
        assert_eq!(deleted_mask(store), Some(711));
        assert_eq!(
            deleted_mask("ERR mask 885 is not in the catalog"),
            Some(885)
        );
        assert_eq!(deleted_mask("ERR mask 885 has the wrong shape"), None);
        assert_eq!(deleted_mask("ERR connection reset"), None);
    }
}
