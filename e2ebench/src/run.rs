//! The three workloads: set-up, closed loops through the loopback server,
//! result checks, and the traced replay of each statement's layer calls.

use crate::oracle::{self, Expected};
use crate::stats::Rng;
use crate::trace::Tracer;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use xmldb_core::{Database, IoSnapshot, QueryOptions, QueryResult, Txn};
use xmldb_server::proto::{read_frame, write_frame, ENGINE_DEFAULT, MAX_FRAME_LEN};
use xmldb_server::{
    Client, ClientResult, QueryParams, QueryReply, Request, Response, Server, ServerConfig,
};
use xmldb_storage::wal::{WAL_CHECKPOINT_BYTES, WAL_FILE};
use xmldb_storage::EnvConfig;

/// Name of the read workloads' document.
pub const DOC: &str = "dblp";
/// `ingest` keeps this many committed documents live; the one committed
/// `KEEP` transactions earlier is dropped after each commit.
const KEEP: usize = 4;
/// Distinct `ingest` documents generated up front and loaded round-robin
/// under fresh names.
const RING: usize = 32;
/// Unrecorded statements per connection before a `lookup` phase.
const LOOKUP_WARMUP: usize = 300;
/// Unrecorded transactions before an `ingest` phase.
const INGEST_WARMUP: usize = 8;
/// The traced phase stops after this many statements per connection, so
/// the span file stays a few MB.
const TRACE_MAX_STATEMENTS: usize = 4000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Lookup,
    Analytic,
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Lookup, Workload::Analytic, Workload::Ingest];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Analytic => "analytic",
            Workload::Ingest => "ingest",
        }
    }

    /// DBLP scale of the workload's documents (1.0 ≈ 150 KB of XML).
    pub fn scale(self) -> f64 {
        match self {
            Workload::Lookup => 1.0,
            Workload::Analytic => 4.0,
            Workload::Ingest => 0.2,
        }
    }

    /// Buffer-pool budget. `analytic`'s 512 KiB against ≈6.6 MB stored is
    /// the paper's 20 MB-for-250 MB ratio of about 1/12.
    pub fn pool_bytes(self) -> usize {
        match self {
            Workload::Analytic => 512 << 10,
            Workload::Lookup | Workload::Ingest => EnvConfig::default().pool_bytes,
        }
    }

    /// Client connections, never more than the machine's CPUs.
    pub fn connections(self) -> usize {
        match self {
            Workload::Lookup => cpus().min(2),
            Workload::Analytic | Workload::Ingest => 1,
        }
    }

    /// How the workload makes its writes durable.
    pub fn flush_policy(self) -> &'static str {
        match self {
            Workload::Ingest => {
                "WAL on, commit fsyncs, checkpoint between transactions once the log passes 4 MiB"
            }
            _ => "load then checkpoint at set-up; read-only afterwards",
        }
    }
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Everything the workload sends, derived from the seed alone and
/// generated once per run (outside the timed set-up).
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// The read workloads' document (empty for `ingest`).
    pub doc_xml: String,
    /// `lookup` keys: (title text, the expected reply: the escaped text).
    pub titles: Vec<(String, String)>,
    /// `analytic` tests: (name, query, expected answer).
    pub tests: Vec<(&'static str, &'static str, Expected)>,
    /// `ingest` documents, each generated from its own seed.
    pub ring: Vec<String>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Result<Inputs, String> {
        let mut inputs = Inputs {
            workload,
            seed,
            doc_xml: String::new(),
            titles: Vec::new(),
            tests: Vec::new(),
            ring: Vec::new(),
        };
        let mut seeds = Rng::new(seed, 1);
        if workload == Workload::Ingest {
            inputs.ring = (0..RING)
                .map(|_| oracle::dblp(workload.scale(), seeds.next_u64()))
                .collect();
            return Ok(inputs);
        }
        inputs.doc_xml = oracle::dblp(workload.scale(), seeds.next_u64());
        let dom = xmldb_xml::parse(&inputs.doc_xml).map_err(|e| e.to_string())?;
        match workload {
            Workload::Lookup => inputs.titles = oracle::titles(&dom),
            _ => {
                for (name, query) in xmldb_testbed::corpus::efficiency_queries() {
                    let expected = oracle::efficiency(&dom, name)
                        .ok_or_else(|| format!("no oracle for efficiency test {name}"))?;
                    inputs.tests.push((name, query, expected));
                }
            }
        }
        Ok(inputs)
    }

    /// Bytes of XML the read workloads load.
    pub fn doc_bytes(&self) -> u64 {
        self.doc_xml.len() as u64
    }
}

/// The `lookup` statement for one title: text equality, which the
/// cost-based planner answers from the text-value index. (Anchoring it on
/// `//title` makes the planner join the one index hit against all
/// materialized titles instead, about 15x slower; see README.md.)
pub fn lookup_query(title: &str) -> String {
    format!("for $x in //text() return if ($x = \"{title}\") then $x else ()")
}

/// A database in a fresh directory, served on loopback, with the
/// workload's client connections open.
pub struct Fixture {
    dir: PathBuf,
    pub db: Database,
    server: Server,
    clients: Vec<Client>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The timed set-up: open the directory, load and checkpoint the read
/// workloads' document, start the server and connect the clients.
pub fn setup(inputs: &Inputs, dir: &Path) -> Result<Fixture, String> {
    let w = inputs.workload;
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(err)?;
    }
    let db = Database::open_dir(dir, EnvConfig::with_pool_bytes(w.pool_bytes())).map_err(err)?;
    if !inputs.doc_xml.is_empty() {
        db.load_document(DOC, &inputs.doc_xml).map_err(err)?;
        db.env().checkpoint().map_err(err)?;
    }
    let server = Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default()).map_err(err)?;
    let clients = (0..w.connections())
        .map(|_| Client::connect(server.addr()).map_err(err))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Fixture {
        dir: dir.to_path_buf(),
        db,
        server,
        clients,
    })
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

impl Fixture {
    /// Closes the clients, stops the server, checkpoints, checks that no
    /// frame is pinned and no temp file is left, and removes the
    /// directory. Returns the bytes on disk after the final checkpoint.
    pub fn teardown(self) -> Result<u64, String> {
        let Fixture {
            dir,
            db,
            mut server,
            clients,
        } = self;
        for client in clients {
            client.close().map_err(err)?;
        }
        server.shutdown();
        drop(server);
        db.env().checkpoint().map_err(err)?;
        if let Some(violation) = xmldb_testbed::torture::assert_quiescent(db.env()) {
            return Err(format!("not quiescent after the workload: {violation}"));
        }
        let bytes = dir_bytes(&dir).map_err(err)?;
        drop(db);
        std::fs::remove_dir_all(&dir).map_err(err)?;
        if dir.exists() {
            return Err(format!("{} was not removed", dir.display()));
        }
        Ok(bytes)
    }
}

/// Statement outcomes and samples of one measured phase.
#[derive(Default)]
pub struct Phase {
    /// Client-observed latency samples in µs: one per statement for the
    /// read workloads, one per `begin; load; commit` for `ingest`.
    pub lat_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Statements completed without error.
    pub statements: u64,
    pub elapsed_s: f64,
    pub commits: u64,
    pub committed_bytes: u64,
    /// `analytic`, per complete pass: all five tests, eff1+eff2+eff5, eff3.
    pub suite_ms: Vec<f64>,
    pub structjoin_ms: Vec<f64>,
    pub valuejoin_ms: Vec<f64>,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Traced phases: the spans, and each query's server-side `elapsed_us`.
    pub spans: Vec<crate::trace::Span>,
    pub server_us: HashMap<u64, f64>,
}

impl Phase {
    /// Counts one attempted statement.
    fn outcome(&mut self, what: &str, r: Result<(), String>) -> bool {
        self.attempted += 1;
        match r {
            Ok(()) => {
                self.statements += 1;
                true
            }
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(format!("{what}: {e}"));
                }
                false
            }
        }
    }

    fn merge(&mut self, other: Phase) {
        self.lat_us.extend(other.lat_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.statements += other.statements;
        self.commits += other.commits;
        self.committed_bytes += other.committed_bytes;
        self.suite_ms.extend(other.suite_ms);
        self.structjoin_ms.extend(other.structjoin_ms);
        self.valuejoin_ms.extend(other.valuejoin_ms);
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.spans.extend(other.spans);
        self.server_us.extend(other.server_us);
    }
}

/// When a loop stops: after a number of statements (warm-up) or at a
/// deadline (measurement).
#[derive(Clone, Copy)]
enum Until {
    Count(usize),
    Deadline(Instant, usize),
}

impl Until {
    fn done(self, done: usize) -> bool {
        match self {
            Until::Count(n) => done >= n,
            Until::Deadline(at, cap) => done >= cap || Instant::now() >= at,
        }
    }
}

/// One connection, optionally traced.
struct Conn<'a> {
    client: &'a mut Client,
    tracer: Option<Tracer>,
}

/// A completed client call: its latency, result and, when traced, the
/// statement id and root span its replay hangs under.
struct Call<T> {
    us: f64,
    result: ClientResult<T>,
    trace: Option<(u64, u64)>,
}

impl Conn<'_> {
    fn call<T>(
        &mut self,
        label: &'static str,
        f: impl FnOnce(&mut Client) -> ClientResult<T>,
    ) -> Call<T> {
        let ids = self.tracer.as_mut().map(|t| {
            let stmt = t.statement();
            let root = t.open(stmt, 0, "statement", label);
            (stmt, root, t.open(stmt, root, "client", label))
        });
        let start = Instant::now();
        let result = f(self.client);
        let us = start.elapsed().as_secs_f64() * 1e6;
        if let (Some(t), Some((_, _, child))) = (self.tracer.as_mut(), ids) {
            t.close(child);
        }
        Call {
            us,
            result,
            trace: ids.map(|(stmt, root, _)| (stmt, root)),
        }
    }

    /// Runs a traced statement's replay under its root span, then closes
    /// the root. A no-op for untraced calls.
    fn replay(
        &mut self,
        trace: Option<(u64, u64)>,
        f: impl FnOnce(&mut Tracer, u64, u64) -> Result<(), String>,
    ) -> Result<(), String> {
        match (self.tracer.as_mut(), trace) {
            (Some(t), Some((stmt, root))) => {
                let r = f(t, stmt, root);
                t.close(root);
                r
            }
            _ => Ok(()),
        }
    }
}

/// Encodes and decodes a statement's own request and response frames,
/// CRC framing included.
fn codec(request: &Request, response: &Response) -> Result<(), String> {
    let mut buf = Vec::new();
    write_frame(&mut buf, &request.encode()).map_err(err)?;
    let payload = read_frame(&mut buf.as_slice(), MAX_FRAME_LEN).map_err(|e| format!("{e:?}"))?;
    Request::decode(&payload).map_err(err)?;
    buf.clear();
    write_frame(&mut buf, &response.encode()).map_err(err)?;
    let payload = read_frame(&mut buf.as_slice(), MAX_FRAME_LEN).map_err(|e| format!("{e:?}"))?;
    Response::decode(&payload).map_err(err)?;
    Ok(())
}

/// Replays a query statement in process: the codec on its frames, then
/// `xmldb_xq::parse`, `Database::prepare_with`, `PreparedQuery::execute`,
/// `QueryResult::to_xml` and the whole `Database::query_with`.
fn replay_query(
    t: &mut Tracer,
    stmt: u64,
    root: u64,
    label: &'static str,
    db: &Database,
    query: &str,
    reply: &QueryReply,
) -> Result<(), String> {
    let request = Request::Query {
        doc: DOC.to_string(),
        query: query.to_string(),
        engine: ENGINE_DEFAULT,
        timeout_ms: 0,
        mem_limit: 0,
        parallelism: 0,
    };
    let response = Response::Items {
        count: reply.count,
        elapsed_us: 0,
        xml: reply.xml.clone(),
    };
    t.time(stmt, root, "proto.codec", label, || {
        codec(&request, &response)
    })?;
    drop(response);
    // The engine and budget the server evaluates an ad-hoc query with.
    let server = ServerConfig::default();
    let (engine, options) = (
        server.default_engine,
        QueryOptions {
            timeout: server.default_timeout,
            ..QueryOptions::default()
        },
    );
    let whole = |t: &mut Tracer| {
        t.time(stmt, root, "core.query_with", label, || {
            db.query_with(DOC, query, engine, &options)
        })
        .map(|r| r.len() as u64)
        .map_err(err)
    };
    // The whole call and its parts run back to back; which goes first
    // alternates per statement, so the allocator and pool warmth the
    // first leaves behind favour neither side of `core.record_us`.
    let whole_first = stmt.is_multiple_of(2);
    let count_whole = if whole_first { Some(whole(t)?) } else { None };
    t.time(stmt, root, "xq.parse", label, || xmldb_xq::parse(query))
        .map_err(err)?;
    let prepared = t
        .time(stmt, root, "core.prepare", label, || {
            db.prepare_with(DOC, query, engine, &options)
        })
        .map_err(err)?;
    let result: QueryResult = t
        .time(stmt, root, "physical.execute", label, || prepared.execute())
        .map_err(err)?;
    let xml = t.time(stmt, root, "core.serialize", label, || result.to_xml());
    drop(result);
    let count_whole = match count_whole {
        Some(n) => n,
        None => whole(t)?,
    };
    if xml != reply.xml || count_whole != reply.count {
        return Err("in-process replay disagrees with the server's reply".into());
    }
    Ok(())
}

/// One `lookup` connection's closed loop.
fn lookup_conn(
    mut conn: Conn<'_>,
    inputs: &Inputs,
    db: &Database,
    idx: usize,
    until: Until,
) -> Phase {
    let mut ph = Phase::default();
    let mut rng = Rng::new(inputs.seed, 100 + idx as u64);
    let mut done = 0;
    while !until.done(done) {
        done += 1;
        let (title, expected) = &inputs.titles[rng.below(inputs.titles.len())];
        let query = lookup_query(title);
        let c = conn.call("lookup", |cl| cl.query(DOC, &query, QueryParams::default()));
        let r = match c.result {
            Ok(reply) if reply.count == 1 && reply.xml == *expected => {
                if let Some((stmt, _)) = c.trace {
                    ph.server_us.insert(stmt, reply.elapsed_us as f64);
                }
                conn.replay(c.trace, |t, stmt, root| {
                    replay_query(t, stmt, root, "lookup", db, &query, &reply)
                })
            }
            Ok(reply) => Err(format!(
                "{} item(s), not the one expected title",
                reply.count
            )),
            Err(e) => Err(e.to_string()),
        };
        if ph.outcome("lookup", r) {
            ph.lat_us.push(c.us);
        }
    }
    ph.spans = conn.tracer.map(|t| t.spans).unwrap_or_default();
    ph
}

/// `analytic`: the five efficiency tests, pass after pass on one
/// connection. A pass that starts before the deadline completes.
fn analytic_conn(mut conn: Conn<'_>, inputs: &Inputs, db: &Database, until: Until) -> Phase {
    let mut ph = Phase::default();
    let mut passes = 0;
    while !until.done(passes * inputs.tests.len()) {
        passes += 1;
        let mut times = HashMap::new();
        let mut clean = true;
        for (name, query, expected) in &inputs.tests {
            let label = &name[..4];
            let c = conn.call(label, |cl| cl.query(DOC, query, QueryParams::default()));
            let r = match c.result {
                Ok(reply) => {
                    let got = Expected {
                        count: reply.count,
                        digest: xmldb_obs::fnv1a(reply.xml.as_bytes()),
                    };
                    if got != *expected {
                        Err(format!("{name}: got {got:?}, expected {expected:?}"))
                    } else {
                        if let Some((stmt, _)) = c.trace {
                            ph.server_us.insert(stmt, reply.elapsed_us as f64);
                        }
                        conn.replay(c.trace, |t, stmt, root| {
                            replay_query(t, stmt, root, label, db, query, &reply)
                        })
                    }
                }
                Err(e) => Err(e.to_string()),
            };
            if ph.outcome(name, r) {
                ph.lat_us.push(c.us);
                times.insert(label, c.us / 1e3);
            } else {
                clean = false;
            }
        }
        if clean {
            ph.suite_ms.push(times.values().sum());
            ph.structjoin_ms
                .push(times["eff1"] + times["eff2"] + times["eff5"]);
            ph.valuejoin_ms.push(times["eff3"]);
        }
    }
    ph.spans = conn.tracer.map(|t| t.spans).unwrap_or_default();
    ph
}

/// A traced `ingest` replays every statement on a shadow database in its
/// own directory (same configuration), and each load once more on an
/// in-memory database, which isolates the WAL's share.
pub struct Shadow {
    dir: PathBuf,
    db: Database,
    mem: Database,
    txn: Option<Txn>,
}

impl Shadow {
    /// Opens the shadow holding `live` (name, XML), loaded untimed, so
    /// that it mirrors the served database's state.
    pub fn open(dir: &Path, w: Workload, live: &[(&str, &str)]) -> Result<Shadow, String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(err)?;
        }
        let config = EnvConfig::with_pool_bytes(w.pool_bytes());
        let db = Database::open_dir(dir, config.clone()).map_err(err)?;
        for (name, xml) in live {
            db.load_document(name, xml).map_err(err)?;
        }
        db.flush().map_err(err)?;
        Ok(Shadow {
            dir: dir.to_path_buf(),
            db,
            mem: Database::in_memory_with(config),
            txn: None,
        })
    }

    pub fn close(self) -> Result<(), String> {
        let Shadow { dir, db, mem, txn } = self;
        drop((txn, mem));
        if let Some(violation) = xmldb_testbed::torture::assert_quiescent(db.env()) {
            return Err(format!("shadow database not quiescent: {violation}"));
        }
        drop(db);
        std::fs::remove_dir_all(&dir).map_err(err)
    }

    /// Times one document load the way `ingest` commits it: parse alone,
    /// the load on the in-memory env, the load inside a transaction on
    /// disk. The caller commits.
    fn load(
        &mut self,
        t: &mut Tracer,
        stmt: u64,
        root: u64,
        name: &str,
        xml: &str,
    ) -> Result<(), String> {
        t.time(stmt, root, "xml.parse", "load", || xmldb_xml::parse(xml))
            .map_err(err)?;
        t.time(stmt, root, "xasr.shred_mem", "load", || {
            self.mem.load_document(name, xml)
        })
        .map_err(err)?;
        self.mem.drop_document(name).map_err(err)?;
        let txn = self.txn.as_ref().ok_or("load outside a transaction")?;
        t.time(stmt, root, "xasr.load", "load", || {
            let _scope = txn.install();
            self.db.load_document(name, xml)
        })
        .map_err(err)
    }

    fn commit(&mut self, t: &mut Tracer, stmt: u64, root: u64) -> Result<(), String> {
        let txn = self.txn.take().ok_or("commit outside a transaction")?;
        t.time(stmt, root, "txn.commit", "commit", || txn.commit())
            .map_err(err)
    }

    /// The write path of one whole document for the read workloads:
    /// their document loaded and committed once, with the WAL and pool
    /// counters it moved.
    pub fn load_once(&mut self, t: &mut Tracer, xml: &str) -> Result<IoSnapshot, String> {
        let before = self.db.env().io_stats();
        let stmt = t.statement();
        let root = t.open(stmt, 0, "statement", "load");
        self.txn = Some(self.db.begin());
        let loaded = self.load(t, stmt, root, DOC, xml);
        let committed = loaded.and_then(|()| self.commit(t, stmt, root));
        t.close(root);
        committed?;
        Ok(self.db.env().io_stats().delta(&before))
    }
}

/// `ingest` state that outlives a phase.
#[derive(Default)]
pub struct IngestState {
    next: usize,
    /// Committed, not yet dropped: (name, ring index).
    pub live: VecDeque<(String, usize)>,
    pub shadow: Option<Shadow>,
}

/// Checkpoints `db` once its log in `dir` outgrows the storage layer's
/// auto-checkpoint threshold, and checks that the log shrank. `Txn::commit`
/// appends to the log without the `Env::flush` that applies the threshold,
/// so a loop of committed loads would otherwise grow `wal.log` by about
/// 2 MB per transaction without end. Returns whether it checkpointed.
fn checkpoint_if_due(db: &Database, dir: &Path) -> Result<bool, String> {
    let wal_len = || std::fs::metadata(dir.join(WAL_FILE)).map(|m| m.len());
    if wal_len().map_err(err)? <= WAL_CHECKPOINT_BYTES {
        return Ok(false);
    }
    db.env().checkpoint().map_err(err)?;
    let after = wal_len().map_err(err)?;
    if after > WAL_CHECKPOINT_BYTES {
        return Err(format!("checkpoint left {WAL_FILE} at {after} bytes"));
    }
    Ok(true)
}

fn ingest_conn(
    mut conn: Conn<'_>,
    inputs: &Inputs,
    db: &Database,
    dir: &Path,
    st: &mut IngestState,
    until: Until,
) -> Phase {
    let mut ph = Phase::default();
    let mut done = 0;
    while !until.done(done) {
        done += 1;
        let i = st.next;
        st.next += 1;
        let name = format!("ing{i:06}");
        let xml = inputs.ring[i % RING].as_str();
        let shadow = &mut st.shadow;
        let c = conn.call("begin", |cl| cl.begin());
        let mut txn_us = c.us;
        let r = c.result.map_err(err).and_then(|info| {
            conn.replay(c.trace, |t, stmt, root| {
                t.time(stmt, root, "proto.codec", "begin", || {
                    codec(&Request::Begin, &Response::Done { info })
                })?;
                let s = shadow.as_mut().ok_or("traced without a shadow")?;
                s.txn = Some(t.time(stmt, root, "txn.begin", "begin", || s.db.begin()));
                Ok(())
            })
        });
        if !ph.outcome("begin", r) {
            continue;
        }
        let c = conn.call("load", |cl| cl.load(&name, xml));
        txn_us += c.us;
        let r = c.result.map_err(err).and_then(|info| {
            conn.replay(c.trace, |t, stmt, root| {
                let request = Request::Load {
                    name: name.clone(),
                    xml: xml.to_string(),
                };
                t.time(stmt, root, "proto.codec", "load", || {
                    codec(&request, &Response::Done { info })
                })?;
                let s = shadow.as_mut().ok_or("traced without a shadow")?;
                s.load(t, stmt, root, &name, xml)
            })
        });
        if !ph.outcome("load", r) {
            let _ = conn.client.rollback();
            if let Some(s) = shadow.as_mut() {
                if let Some(txn) = s.txn.take() {
                    let _ = txn.rollback();
                }
            }
            continue;
        }
        let c = conn.call("commit", |cl| cl.commit());
        txn_us += c.us;
        let r = c.result.map_err(err).and_then(|info| {
            conn.replay(c.trace, |t, stmt, root| {
                t.time(stmt, root, "proto.codec", "commit", || {
                    codec(&Request::Commit, &Response::Done { info })
                })?;
                shadow
                    .as_mut()
                    .ok_or("traced without a shadow")?
                    .commit(t, stmt, root)
            })
        });
        if !ph.outcome("commit", r) {
            continue;
        }
        ph.lat_us.push(txn_us);
        ph.commits += 1;
        ph.committed_bytes += xml.len() as u64;
        st.live.push_back((name, i % RING));
        if st.live.len() > KEEP {
            let (old, _) = st.live.pop_front().expect("more than KEEP live");
            let c = conn.call("drop", |cl| cl.drop_doc(&old));
            let r = c.result.map_err(err).and_then(|info| {
                conn.replay(c.trace, |t, stmt, root| {
                    let request = Request::DropDoc { name: old.clone() };
                    t.time(stmt, root, "proto.codec", "drop", || {
                        codec(&request, &Response::Done { info })
                    })?;
                    let s = shadow.as_ref().ok_or("traced without a shadow")?;
                    t.time(stmt, root, "core.drop", "drop", || s.db.drop_document(&old))
                        .map_err(err)
                })
            });
            ph.outcome("drop", r);
        }
        // Between transactions, so no transaction holds undo records the
        // truncation would discard. A checkpoint counts as a statement.
        match checkpoint_if_due(db, dir) {
            Ok(false) => {}
            r => {
                ph.outcome("checkpoint", r.map(|_| ()));
            }
        }
        if let Some(s) = shadow.as_ref() {
            if let Err(e) = checkpoint_if_due(&s.db, &s.dir) {
                ph.outcome("shadow checkpoint", Err(e));
            }
        }
    }
    ph.spans = conn.tracer.map(|t| t.spans).unwrap_or_default();
    ph
}

/// Runs one phase of the workload. `seconds: None` is the unrecorded
/// warm-up; `traced` gives the epoch of a traced phase.
pub fn run_phase(
    inputs: &Inputs,
    fx: &mut Fixture,
    st: &mut IngestState,
    seconds: Option<f64>,
    traced: Option<Instant>,
) -> Phase {
    let start = Instant::now();
    let until = match seconds {
        None => Until::Count(match inputs.workload {
            Workload::Lookup => LOOKUP_WARMUP,
            Workload::Analytic => 1,
            Workload::Ingest => INGEST_WARMUP,
        }),
        Some(s) => {
            let cap = if traced.is_some() {
                TRACE_MAX_STATEMENTS
            } else {
                usize::MAX
            };
            Until::Deadline(start + Duration::from_secs_f64(s), cap)
        }
    };
    let db = &fx.db;
    let dir = fx.dir.as_path();
    let mut conns = fx.clients.iter_mut().enumerate().map(|(i, client)| Conn {
        client,
        tracer: traced.map(|epoch| Tracer::new(epoch, i)),
    });
    let mut ph = match inputs.workload {
        Workload::Lookup => std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .enumerate()
                .map(|(i, conn)| s.spawn(move || lookup_conn(conn, inputs, db, i, until)))
                .collect();
            let mut ph = Phase::default();
            for h in handles {
                ph.merge(h.join().expect("lookup connection thread panicked"));
            }
            ph
        }),
        Workload::Analytic => {
            analytic_conn(conns.next().expect("one connection"), inputs, db, until)
        }
        Workload::Ingest => ingest_conn(
            conns.next().expect("one connection"),
            inputs,
            db,
            dir,
            st,
            until,
        ),
    };
    ph.elapsed_s = start.elapsed().as_secs_f64();
    ph
}

/// `ingest`'s closing check: exactly the live documents are listed, in
/// commit order, and each round-trips byte-equal through `document_xml`.
pub fn check_ingest(inputs: &Inputs, fx: &mut Fixture, st: &IngestState, ph: &mut Phase) {
    let expected: Vec<String> = st.live.iter().map(|(n, _)| n.clone()).collect();
    let listed = fx.clients[0].list_docs().map_err(err).and_then(|names| {
        if names == expected {
            Ok(())
        } else {
            Err(format!("listed {names:?}, expected {expected:?}"))
        }
    });
    ph.outcome("list", listed);
    for (name, ring) in &st.live {
        let round_trip = fx.db.document_xml(name).map_err(err).and_then(|xml| {
            if xml == inputs.ring[*ring] {
                Ok(())
            } else {
                Err(format!("{name} does not round-trip byte-equal"))
            }
        });
        ph.outcome("round-trip", round_trip);
    }
}

/// Operator rows per result item, from EXPLAIN ANALYZE of the
/// workload's distinct queries (a sample of 20 keys for `lookup`).
pub fn rows_per_item(inputs: &Inputs, db: &Database) -> Result<f64, String> {
    let queries: Vec<String> = match inputs.workload {
        Workload::Lookup => {
            let mut rng = Rng::new(inputs.seed, 100);
            (0..20)
                .map(|_| lookup_query(&inputs.titles[rng.below(inputs.titles.len())].0))
                .collect()
        }
        Workload::Analytic => inputs.tests.iter().map(|(_, q, _)| q.to_string()).collect(),
        Workload::Ingest => return Ok(0.0),
    };
    let engine = ServerConfig::default().default_engine;
    let (mut rows, mut items) = (0u64, 0u64);
    for q in &queries {
        let text = db.explain_analyze(DOC, q, engine).map_err(err)?;
        for line in text.lines() {
            if let Some(rest) = line.split("(actual rows=").nth(1) {
                rows += number_prefix(rest);
            } else if let Some(rest) = line.strip_prefix("result: ") {
                items += number_prefix(rest);
            }
        }
    }
    Ok(if items == 0 {
        0.0
    } else {
        rows as f64 / items as f64
    })
}

fn number_prefix(s: &str) -> u64 {
    let digits: String = s.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or(0)
}
