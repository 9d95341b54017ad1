//! saardb's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path e2ebench/Cargo.toml -- \
//!     [--workload lookup|analytic|ingest|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload drives an in-process `xmldb_server::Server` on loopback
//! through `xmldb_server::Client`, on a database in a fresh directory
//! under `e2ebench/out/`. `--trace 0` measures the end-to-end metrics;
//! `--trace 1` replays the statements with spans around each layer call
//! and reports the per-layer ledger. Every result is checked. The last
//! line of standard output is one JSON object; README.md explains the
//! workloads and the metrics.

mod oracle;
mod run;
mod stats;
mod trace;

use run::{Fixture, IngestState, Inputs, Phase, Shadow, Workload};
use stats::{beyond, cpu_seconds, mean, median, quantile};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// The timed set-up is repeated at least `SETUP_MIN_REPS` times and
/// until `SETUP_BUDGET_S` of set-up and tear-down have passed (at most
/// `SETUP_MAX_REPS`); its median is `setup_s` and the last fixture is the
/// one measured. Cheap set-ups thus get more repetitions, and the median
/// spans seconds of the machine's speed drift rather than one moment of it.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 200;
const SETUP_BUDGET_S: f64 = 6.0;
const OUT_DIR: &str = "e2ebench/out";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// A workload's result: the metrics the JSON line carries, plus
/// workload-specific ones that are printed only.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    printed: Vec<Metric>,
}

/// The git revision when run from a git checkout (read from `.git`
/// without spawning git), else "none".
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "none".into()),
        None if !head.is_empty() => head.to_string(),
        None => "none".into(),
    }
}

/// FNV-1a over the program's sources (`crates/`, the root manifests, this
/// benchmark's sources): identifies the code measured even where the
/// checkout is not a git repository.
fn source_digest() -> Result<u64, String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files).map_err(|e| format!("reading crates/: {e}"))?;
    walk(Path::new("e2ebench/src"), &mut files)
        .map_err(|e| format!("reading e2ebench/src: {e}"))?;
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).map_err(|e| format!("{}: {e}", f.display()))?);
    }
    Ok(xmldb_obs::fnv1a(&bytes))
}

/// The machine and configuration a result was measured on.
fn fingerprint(w: Workload, seed: u64, digest: u64) -> String {
    format!(
        "{{\"workload\":\"{}\",\"cpus\":{},\"profile\":\"{}\",\"git_rev\":\"{}\",\"source_fnv1a\":\"{digest:016x}\",\"page_size\":{},\"pool_bytes\":{},\"flush_policy\":\"{}\",\"seed\":{seed},\"dblp_scale\":{},\"connections\":{}}}",
        w.name(),
        run::cpus(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_rev(),
        xmldb_storage::DEFAULT_PAGE_SIZE,
        w.pool_bytes(),
        w.flush_policy(),
        w.scale(),
        w.connections(),
    )
}

fn db_dir(w: Workload, tag: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{}-{}-{tag}", w.name(), std::process::id()))
}

/// Runs the timed set-up repeatedly, keeping the last fixture; returns
/// it with the median set-up time.
fn setup(inputs: &Inputs) -> Result<(Fixture, f64), String> {
    let w = inputs.workload;
    let mut times = Vec::new();
    let mut kept = None;
    let begun = Instant::now();
    for rep in 0..SETUP_MAX_REPS {
        if rep >= SETUP_MIN_REPS && begun.elapsed().as_secs_f64() >= SETUP_BUDGET_S {
            break;
        }
        let start = Instant::now();
        let fx = run::setup(inputs, &db_dir(w, &rep.to_string()))?;
        times.push(start.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(fx) {
            Fixture::teardown(old)?;
        }
    }
    Ok((kept.expect("at least one set-up"), median(&mut times)))
}

/// Bytes of live XML: the read workloads' document, or `ingest`'s
/// surviving documents.
fn live_xml_bytes(inputs: &Inputs, st: &IngestState) -> u64 {
    match inputs.workload {
        Workload::Ingest => st
            .live
            .iter()
            .map(|(_, r)| inputs.ring[*r].len() as u64)
            .sum(),
        _ => inputs.doc_bytes(),
    }
}

/// Nearest-rank quantiles `qs` of the phase's latency samples.
fn latency<const N: usize>(ph: &Phase, qs: [f64; N]) -> [f64; N] {
    let mut lat = ph.lat_us.clone();
    lat.sort_by(f64::total_cmp);
    qs.map(|q| {
        if lat.is_empty() {
            0.0
        } else {
            quantile(&lat, q)
        }
    })
}

/// `--trace 0`: the end-to-end metrics.
fn measure(inputs: &Inputs, seconds: f64) -> Result<Outcome, String> {
    let w = inputs.workload;
    let (mut fx, setup_s) = setup(inputs)?;
    let mut st = IngestState::default();
    let warm = run::run_phase(inputs, &mut fx, &mut st, None, None);
    let cpu_before = cpu_seconds();
    let mut ph = run::run_phase(inputs, &mut fx, &mut st, Some(seconds), None);
    let cpu_s = cpu_seconds() - cpu_before;
    if warm.failed > 0 {
        ph.failed += warm.failed;
        ph.errors.extend(warm.errors);
    }
    if w == Workload::Ingest {
        run::check_ingest(inputs, &mut fx, &st, &mut ph);
    }
    let live = live_xml_bytes(inputs, &st);
    let disk = fx.teardown()?;
    for e in &ph.errors {
        eprintln!("{}: {e}", w.name());
    }
    let [p50, p90, p99] = latency(&ph, [0.5, 0.9, 0.99]);
    let n = ph.lat_us.len();
    let statements = ph.statements.max(1) as f64;
    // The gated metrics are the ones that stay steady on a shared VM whose
    // host steals a varying share of CPU time; the wall-clock rates and
    // tails are printed beside them (README.md, "Steadiness").
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("lat_p50_us", p50, "us"),
        metric("cpu_us_per_op", cpu_s * 1e6 / statements, "us"),
        metric("space_amp", disk as f64 / live as f64, "ratio"),
    ];
    let mut printed = vec![
        metric("ops_per_s", ph.statements as f64 / ph.elapsed_s, "1/s"),
        metric("lat_p90_us", p90, "us"),
        metric("lat_p99_us", p99, "us"),
        metric(
            "error_ratio",
            ph.failed as f64 / ph.attempted.max(1) as f64,
            "ratio",
        ),
        metric("lat_samples", n as f64, "count"),
        metric("lat_samples_beyond_p90", beyond(n, 0.9) as f64, "count"),
        metric("lat_samples_beyond_p99", beyond(n, 0.99) as f64, "count"),
    ];
    match w {
        Workload::Analytic => printed.extend([
            metric("suite_ms", median(&mut ph.suite_ms), "ms"),
            metric("structjoin_ms", median(&mut ph.structjoin_ms), "ms"),
            metric("valuejoin_ms", median(&mut ph.valuejoin_ms), "ms"),
            metric("passes", ph.suite_ms.len() as f64, "count"),
        ]),
        Workload::Ingest => printed.extend([
            metric(
                "ingest_mb_s",
                ph.committed_bytes as f64 / 1e6 / ph.elapsed_s,
                "MB/s",
            ),
            metric("commits", ph.commits as f64, "count"),
        ]),
        Workload::Lookup => {}
    }
    let correct = ph.failed == 0 && ph.attempted > 0;
    Ok(Outcome {
        correct,
        attempted: ph.attempted,
        failed: ph.failed,
        metrics,
        printed,
    })
}

/// `--trace 1`: an untraced phase (counts, baseline latency), then the
/// same statements replayed layer by layer under spans; each phase gets
/// half of `seconds`.
fn traced(inputs: &Inputs, seconds: f64, fingerprint: &str) -> Result<Outcome, String> {
    let w = inputs.workload;
    let (mut fx, _) = setup(inputs)?;
    let epoch = Instant::now();
    let mut st = IngestState::default();
    let mut load_tracer = Tracer::new(epoch, 1 << 20);
    // The write path of the read workloads: their one document load.
    let load_io = if w == Workload::Ingest {
        None
    } else {
        let mut shadow = Shadow::open(&db_dir(w, "shadow"), w, &[])?;
        let io = shadow.load_once(&mut load_tracer, &inputs.doc_xml)?;
        shadow.close()?;
        Some(io)
    };
    let warm = run::run_phase(inputs, &mut fx, &mut st, None, None);
    let before = fx.db.env().io_stats();
    let plain = run::run_phase(inputs, &mut fx, &mut st, Some(seconds / 2.0), None);
    let io = fx.db.env().io_stats().delta(&before);
    if w == Workload::Ingest {
        let live: Vec<(&str, &str)> = st
            .live
            .iter()
            .map(|(name, ring)| (name.as_str(), inputs.ring[*ring].as_str()))
            .collect();
        st.shadow = Some(Shadow::open(&db_dir(w, "shadow"), w, &live)?);
    }
    let mut tr = run::run_phase(inputs, &mut fx, &mut st, Some(seconds / 2.0), Some(epoch));
    if let Some(shadow) = st.shadow.take() {
        shadow.close()?;
    }
    let rows_per_item = run::rows_per_item(inputs, &fx.db)?;
    let mut checks = Phase::default();
    if w == Workload::Ingest {
        run::check_ingest(inputs, &mut fx, &st, &mut checks);
    }
    fx.teardown()?;
    tr.spans.extend(load_tracer.spans);

    let failed = warm.failed + plain.failed + tr.failed + checks.failed;
    for e in warm
        .errors
        .iter()
        .chain(&plain.errors)
        .chain(&tr.errors)
        .chain(&checks.errors)
    {
        eprintln!("{}: {e}", w.name());
    }
    let attempted = warm.attempted + plain.attempted + tr.attempted + checks.attempted;

    // Per statement: summed span time per layer.
    let by_stmt = trace::by_statement(&tr.spans);
    let layer = |name: &str, label: Option<&str>| -> f64 {
        let v: Vec<f64> = tr
            .spans
            .iter()
            .filter(|s| s.name == name && label.is_none_or(|l| s.label == l))
            .map(|s| s.us())
            .collect();
        mean(&v)
    };
    let get = |m: &std::collections::HashMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let (mut overhead, mut compile, mut record, mut client, mut unattributed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (stmt, m) in &by_stmt {
        let Some(&client_us) = m.get("client") else {
            continue; // the read workloads' set-up load
        };
        let codec = get(m, "proto.codec");
        // The layers that add up to the statement, without overlap.
        let accounted = if m.contains_key("core.query_with") {
            compile.push(get(m, "core.prepare") - get(m, "xq.parse"));
            record.push(
                get(m, "core.query_with") - get(m, "core.prepare") - get(m, "physical.execute"),
            );
            codec + get(m, "core.query_with") + get(m, "core.serialize")
        } else {
            codec
                + get(m, "txn.begin")
                + get(m, "xasr.load")
                + get(m, "txn.commit")
                + get(m, "core.drop")
        };
        // Server-side time: the reply's `elapsed_us` for queries, the
        // in-process replay of the statement otherwise.
        let server = tr.server_us.get(stmt).copied().unwrap_or(accounted - codec);
        overhead.push(client_us - server);
        client.push(client_us);
        unattributed.push(client_us - accounted);
    }
    let ops = plain.statements.max(1) as f64;
    let lookups = (io.hits + io.misses).max(1) as f64;
    // Write-path counters per committed document: `ingest`'s measured
    // phase, or the read workloads' set-up load.
    let (wal, commits, input_bytes) = match load_io {
        Some(l) => (l, 1.0, inputs.doc_bytes() as f64),
        None => (
            io,
            plain.commits.max(1) as f64,
            plain.committed_bytes.max(1) as f64,
        ),
    };
    let [plain_p50] = latency(&plain, [0.5]);
    let [traced_p50] = latency(&tr, [0.5]);
    let mut metrics = vec![
        metric("server.overhead_us", mean(&overhead), "us"),
        metric("proto.codec_us", layer("proto.codec", None), "us"),
        metric("xq.parse_us", layer("xq.parse", None), "us"),
        metric("optimizer.compile_us", mean(&compile), "us"),
        metric("physical.exec_us", layer("physical.execute", None), "us"),
    ];
    for test in ["eff1", "eff2", "eff3", "eff4", "eff5"] {
        metrics.push(metric(
            &format!("physical.exec_us.{test}"),
            layer("physical.execute", Some(test)),
            "us",
        ));
    }
    metrics.extend([
        metric("physical.rows_per_item", rows_per_item, "ratio"),
        metric("core.serialize_us", layer("core.serialize", None), "us"),
        metric("core.record_us", mean(&record), "us"),
        metric("pool.hit_ratio", io.hits as f64 / lookups, "ratio"),
        metric("pool.misses_per_op", io.misses as f64 / ops, "count"),
        metric("pool.evictions_per_op", io.evictions as f64 / ops, "count"),
        metric("pool.reads_per_op", io.physical_reads as f64 / ops, "count"),
        metric(
            "btree.node_views_per_op",
            io.node_views as f64 / ops,
            "count",
        ),
        metric(
            "btree.searches_per_op",
            io.in_place_searches as f64 / ops,
            "count",
        ),
        metric(
            "wal.bytes_per_input_byte",
            wal.wal_bytes as f64 / input_bytes,
            "ratio",
        ),
        metric(
            "wal.syncs_per_commit",
            wal.wal_syncs as f64 / commits,
            "count",
        ),
        metric(
            "wal.appends_per_commit",
            wal.wal_appends as f64 / commits,
            "count",
        ),
        metric(
            "pool.writes_per_commit",
            wal.physical_writes as f64 / commits,
            "count",
        ),
        metric("txn.commit_us", layer("txn.commit", None), "us"),
        metric("xasr.load_us", layer("xasr.load", None), "us"),
        metric("xasr.shred_mem_us", layer("xasr.shred_mem", None), "us"),
        metric("xml.parse_us", layer("xml.parse", None), "us"),
        metric("ledger.client_us", mean(&client), "us"),
        metric("ledger.unattributed_us", mean(&unattributed), "us"),
        metric("trace.overhead_us", traced_p50 - plain_p50, "us"),
    ]);
    let mut printed = Vec::new();
    for (name, count, self_us) in trace::self_times(&tr.spans) {
        printed.push(metric(
            &format!("self_us.{name}"),
            self_us / count as f64,
            "us",
        ));
        printed.push(metric(&format!("spans.{name}"), count as f64, "count"));
    }
    printed.push(metric("untraced.lat_p50_us", plain_p50, "us"));
    printed.push(metric("traced.lat_p50_us", traced_p50, "us"));
    let path = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", w.name(), inputs.seed));
    trace::write_spans(&path, fingerprint, &tr.spans)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "{}: {} spans written to {}",
        w.name(),
        tr.spans.len(),
        path.display()
    );
    Ok(Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        printed,
    })
}

fn json_metrics(metrics: &[Metric], prefix: &str) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            format!(
                "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let digest = match source_digest() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("e2ebench: {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let single = args.workloads.len() == 1;
    let (mut correct, mut attempted, mut failed, mut json) = (true, 0, 0, Vec::new());
    for &w in &args.workloads {
        let fp = fingerprint(w, args.seed, digest);
        println!("fingerprint {fp}");
        let outcome = Inputs::generate(w, args.seed).and_then(|inputs| {
            for (name, _, e) in &inputs.tests {
                println!(
                    "{:<9} expected {name}: {} items, to_xml fnv1a {:016x}",
                    w.name(),
                    e.count,
                    e.digest
                );
            }
            if args.trace {
                traced(&inputs, args.seconds, &fp)
            } else {
                measure(&inputs, args.seconds)
            }
        });
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                eprintln!("e2ebench: {}: {e}", w.name());
                std::process::exit(1);
            }
        };
        for m in outcome.metrics.iter().chain(&outcome.printed) {
            println!(
                "{:<9} {:<28} {:>14.4} {}",
                w.name(),
                m.name,
                m.value,
                m.unit
            );
        }
        println!(
            "{:<9} checks: {} attempted, {} failed -> {}",
            w.name(),
            outcome.attempted,
            outcome.failed,
            if outcome.correct { "correct" } else { "WRONG" }
        );
        correct &= outcome.correct;
        attempted += outcome.attempted;
        failed += outcome.failed;
        let prefix = if single {
            String::new()
        } else {
            format!("{}.", w.name())
        };
        json.extend(json_metrics(&outcome.metrics, &prefix));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
}
