//! Bringing the system up: durable databases on real files, a TCP server
//! per database, and optionally a coordinator over two shard servers.

use crate::data::{value, Meta, State, SIDE};
use crate::stats::{dir_bytes, proc_io_write_bytes, CpuTicks};
use masksearch_cluster::{
    ClusterConfig, Coordinator, CoordinatorHandle, CoordinatorServer, ShardMap,
};
use masksearch_core::{ImageId, Label, Mask, MaskId, MaskRecord, MaskType, ModelId, Roi};
use masksearch_db::{DbConfig, MaskDb};
use masksearch_index::ChiConfig;
use masksearch_query::{Session, SessionConfig};
use masksearch_service::{Client, Engine, Server, ServerHandle, ServiceConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Masks per set-up insert batch (one WAL commit each).
const SETUP_BATCH: usize = 32;

/// The CHI configuration: 16-pixel cells (1/7 of the mask side, the
/// paper's cell-to-mask ratio) and 16 bins. Everything else in the
/// database and service configuration is the shipped default.
pub fn chi_config() -> ChiConfig {
    ChiConfig::new(16, 16, 16).expect("non-zero cells")
}

pub fn db_config() -> DbConfig {
    DbConfig::default().chi_config(chi_config())
}

pub fn record(id: u64, meta: &Meta) -> MaskRecord {
    let mut builder = MaskRecord::builder(MaskId::new(id))
        .image_id(ImageId::new(meta.image_id))
        .model_id(ModelId::new(meta.model_id))
        .mask_type(MaskType::SaliencyMap)
        .shape(SIDE, SIDE);
    if let Some(label) = meta.predicted_label {
        builder = builder.predicted_label(Label::new(label));
    }
    if let Some(b) = meta.object_box {
        builder = builder.object_box(Roi::new(b.x0, b.y0, b.x1, b.y1).expect("valid box"));
    }
    builder.build()
}

pub fn mask(pixels: &[u8]) -> Mask {
    Mask::new(SIDE, SIDE, pixels.iter().map(|&q| value(q)).collect()).expect("pixels in [0, 1)")
}

/// Insert batches, prepared before any timing starts.
pub type Batches = Vec<Vec<(MaskRecord, Mask)>>;

pub fn batches<'a>(masks: impl Iterator<Item = (&'a u64, &'a crate::data::MaskRow)>) -> Batches {
    let all: Vec<(MaskRecord, Mask)> = masks
        .map(|(&id, m)| (record(id, &m.meta), mask(&m.pixels)))
        .collect();
    all.chunks(SETUP_BATCH).map(|c| c.to_vec()).collect()
}

/// What one set-up cost.
#[derive(Debug, Default, Clone)]
pub struct SetupCost {
    pub seconds: f64,
    /// Latency of each insert batch, in milliseconds.
    pub batch_ms: Vec<f64>,
    pub masks: u64,
    /// Seconds spent inside insert batches.
    pub insert_s: f64,
    /// Bytes the process wrote to storage during set-up.
    pub write_bytes: u64,
    /// Share of the busy CPU time during set-up that the host gave rather
    /// than stole.
    pub given: f64,
}

/// One durable database behind one TCP server.
pub struct Node {
    pub db: MaskDb,
    pub server: ServerHandle,
    pub dir: PathBuf,
}

impl Node {
    fn start(
        dir: &Path,
        batches: &Batches,
        cache_bytes: u64,
        cost: &mut SetupCost,
    ) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let db = MaskDb::open(dir, db_config()).map_err(|e| format!("open database: {e}"))?;
        for batch in batches {
            let started = Instant::now();
            db.insert_masks(batch).map_err(|e| format!("insert: {e}"))?;
            let took = started.elapsed().as_secs_f64();
            cost.batch_ms.push(took * 1e3);
            cost.insert_s += took;
            cost.masks += batch.len() as u64;
        }
        let session = Session::with_store_maintained_index(
            db.mask_store(),
            db.catalog(),
            SessionConfig::new(chi_config()).cache_bytes(cache_bytes),
            db.chi_store(),
        );
        let engine = Engine::new(session, ServiceConfig::default());
        let server = Server::bind("127.0.0.1:0", engine)
            .map_err(|e| format!("bind: {e}"))?
            .spawn();
        Ok(Self {
            db,
            server,
            dir: dir.to_path_buf(),
        })
    }

    pub fn session(&self) -> &Arc<Session> {
        self.server.engine().session()
    }

    fn stop(self) {
        let engine = self.server.engine().clone();
        self.server.shutdown();
        engine.shutdown();
    }
}

/// A single server, or a coordinator over two shard servers.
pub struct Deployment {
    pub nodes: Vec<Node>,
    pub coordinator: Option<CoordinatorHandle>,
}

impl Deployment {
    /// From an empty directory to serving: ingest, serve, and define the
    /// predicted-label index over the wire.
    pub fn start(
        root: &Path,
        state: &State,
        shards: usize,
        cache_bytes: u64,
    ) -> Result<(Self, SetupCost), String> {
        let _ = std::fs::remove_dir_all(root);
        // Preparing insert batches is data generation, not set-up.
        let map = ShardMap::new(shards).map_err(|e| e.to_string())?;
        let per_shard: Vec<Batches> = (0..shards)
            .map(|s| {
                batches(
                    state
                        .iter()
                        .filter(|(_, m)| map.shard_for_image(ImageId::new(m.meta.image_id)) == s),
                )
            })
            .collect();
        let mut cost = SetupCost::default();
        let io_before = proc_io_write_bytes();
        let ticks_before = CpuTicks::now();
        let started = Instant::now();
        let mut nodes = Vec::new();
        for (s, batches) in per_shard.iter().enumerate() {
            let dir = if shards == 1 {
                root.join("db")
            } else {
                root.join(format!("shard{s}"))
            };
            nodes.push(Node::start(&dir, batches, cache_bytes, &mut cost)?);
        }
        let coordinator = if shards > 1 {
            let addrs = nodes
                .iter()
                .map(|n| n.server.local_addr().to_string())
                .collect();
            let coordinator = Coordinator::connect(ClusterConfig::new(addrs))
                .map_err(|e| format!("coordinator: {e}"))?;
            Some(
                CoordinatorServer::bind("127.0.0.1:0", coordinator)
                    .map_err(|e| format!("coordinator bind: {e}"))?
                    .spawn(),
            )
        } else {
            None
        };
        let deployment = Self { nodes, coordinator };
        let mut client = Client::connect(deployment.addr()).map_err(|e| format!("connect: {e}"))?;
        client
            .query("CREATE INDEX by_label ON masks (predicted_label)")
            .map_err(|e| format!("create index: {e}"))?;
        client.quit().map_err(|e| format!("quit: {e}"))?;
        cost.seconds = started.elapsed().as_secs_f64();
        cost.given = CpuTicks::now().given_since(&ticks_before);
        cost.write_bytes = proc_io_write_bytes().saturating_sub(io_before);
        Ok((deployment, cost))
    }

    /// The address clients talk to.
    pub fn addr(&self) -> SocketAddr {
        match &self.coordinator {
            Some(c) => c.local_addr(),
            None => self.nodes[0].server.local_addr(),
        }
    }

    /// Bytes of every database directory.
    pub fn disk_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| dir_bytes(&n.dir)).sum()
    }

    /// Stops every server and closes the databases (no checkpoint: a reopen
    /// recovers from the write-ahead log).
    pub fn stop(self) -> Vec<PathBuf> {
        if let Some(c) = self.coordinator {
            c.shutdown();
        }
        let dirs = self.nodes.iter().map(|n| n.dir.clone()).collect();
        for node in self.nodes {
            node.stop();
        }
        dirs
    }
}
