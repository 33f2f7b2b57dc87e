//! `graphbi` — command-line front end.
//!
//! ```text
//! graphbi synth <ny|gnu> <records> <dir>     synthesize a dataset into <dir>
//! graphbi stats <dir>                        Table-2 style statistics
//! graphbi query <dir> "<query>"              run a query (paper notation)
//! graphbi advise <dir> <budget> "<q>" ...    select+persist graph views for a workload
//! ```
//!
//! Queries use the paper's bracket notation, e.g. `[A,D,E,G,I]`,
//! `MAX [r12,r13) JOIN [r13,r14]`, `[a,b] AND NOT (c,d)`. A stored database
//! directory holds the column store (`*.gbi`) plus the universe
//! (`universe.txt`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use graphbi::ql::QlAnswer;
use graphbi::{GraphStore, Session};
use graphbi_columnstore::persist;
use graphbi_graph::Universe;
use graphbi_workload::{Dataset, DatasetSpec};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  graphbi synth <ny|gnu> <records> <dir>
  graphbi stats <dir>
  graphbi query <dir> \"<query>\"
  graphbi queryd <dir> <cache_mb> \"<query>\"   (disk-resident, reports I/O)
  graphbi explain <dir> \"<query>\"
  graphbi profile <dir> \"<query>\" [--json <file>]   (EXPLAIN ANALYZE)
  graphbi advise <dir> <budget> \"<query>\" [\"<query>\" ...]
  graphbi serve <dir> <addr> [--slowlog-file <path>] [--slow-ms <n>]
                             [--sample <n>]
  graphbi connect <addr> query \"<query>\"
  graphbi connect <addr> insert <edge>:<measure> [...]
  graphbi connect <addr> profile \"<query>\"
  graphbi connect <addr> metrics
  graphbi connect <addr> trace <rid>           replay a captured request trace
  graphbi connect <addr> slowlog [n]           recent over-threshold requests
  graphbi connect <addr> top                   one live server snapshot
  graphbi top <addr> [--once]                  refreshing server dashboard";

fn run(args: &[String]) -> Result<(), String> {
    match args {
        [cmd, rest @ ..] => match cmd.as_str() {
            "synth" => synth(rest),
            "stats" => stats(rest),
            "query" => query(rest),
            "queryd" => query_disk(rest),
            "explain" => explain(rest),
            "profile" => profile(rest),
            "advise" => advise(rest),
            "serve" => serve(rest),
            "connect" => connect(rest),
            "top" => top(rest),
            other => Err(format!("unknown command {other:?}")),
        },
        [] => Err("missing command".into()),
    }
}

fn open(dir: &Path) -> Result<GraphStore, String> {
    // A freshly-synthesized database has no views metadata; one touched by
    // `advise` carries it as a generation-named sidecar, and load_store
    // reattaches its views.
    if persist::has_sidecar(&graphbi_columnstore::OsVfs, dir, "views_meta.txt") {
        graphbi::disk::load_store(dir).map_err(|e| format!("loading: {e}"))
    } else {
        let universe = Universe::load(&dir.join("universe.txt"))
            .map_err(|e| format!("loading universe: {e}"))?;
        let relation = persist::load(dir).map_err(|e| format!("loading relation: {e}"))?;
        Ok(GraphStore::from_relation(universe, relation))
    }
}

fn synth(args: &[String]) -> Result<(), String> {
    let [kind, records, dir] = args else {
        return Err("synth needs: <ny|gnu> <records> <dir>".into());
    };
    let n: usize = records
        .parse()
        .map_err(|_| "record count must be a number")?;
    let spec = match kind.as_str() {
        "ny" => DatasetSpec::ny(n),
        "gnu" => DatasetSpec::gnu(n),
        other => return Err(format!("unknown dataset kind {other:?} (ny or gnu)")),
    };
    let dir = PathBuf::from(dir);
    println!("synthesizing {n} {kind} records…");
    let d = Dataset::synthesize(&spec);
    let store = GraphStore::load(d.universe, &d.records);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    store
        .universe()
        .save(&dir.join("universe.txt"))
        .map_err(|e| format!("saving universe: {e}"))?;
    let bytes = persist::save(store.relation(), &dir).map_err(|e| format!("saving: {e}"))?;
    println!(
        "wrote {} records, {} measures, {:.1} MB to {}",
        store.record_count(),
        store.relation().total_measures(),
        bytes as f64 / 1e6,
        dir.display()
    );
    Ok(())
}

fn stats(args: &[String]) -> Result<(), String> {
    let [dir] = args else {
        return Err("stats needs: <dir>".into());
    };
    let dir = PathBuf::from(dir);
    let store = open(&dir)?;
    let disk = persist::disk_size(&dir).map_err(|e| e.to_string())?;
    println!("{}", store.statistics().render());
    println!("named nodes      {}", store.universe().node_count());
    println!("partitions       {}", store.relation().partition_count());
    println!("disk size        {:.1} KiB", disk as f64 / 1024.0);
    Ok(())
}

fn query(args: &[String]) -> Result<(), String> {
    let [dir, text] = args else {
        return Err("query needs: <dir> \"<query>\"".into());
    };
    let store = open(&PathBuf::from(dir))?;
    let started = std::time::Instant::now();
    let answer = store.query(text).map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    match answer {
        QlAnswer::Records(r) => {
            println!("{} matching records ({:.2?})", r.len(), elapsed);
            for (i, &rid) in r.records.iter().take(10).enumerate() {
                if r.edges.is_empty() {
                    println!("  record {rid}");
                } else {
                    let row: Vec<String> = r.row(i).iter().map(|v| format!("{v:.2}")).collect();
                    println!("  record {rid}: [{}]", row.join(", "));
                }
            }
            if r.len() > 10 {
                println!("  … {} more", r.len() - 10);
            }
        }
        QlAnswer::Aggregates(a) => {
            println!(
                "{} matching records × {} paths ({:.2?})",
                a.len(),
                a.path_count,
                elapsed
            );
            for (i, &rid) in a.records.iter().take(10).enumerate() {
                let row: Vec<String> = a.row(i).iter().map(|v| format!("{v:.2}")).collect();
                println!("  record {rid}: [{}]", row.join(", "));
            }
            if a.len() > 10 {
                println!("  … {} more", a.len() - 10);
            }
        }
        QlAnswer::Ranked(top) => {
            println!("top {} records ({:.2?})", top.len(), elapsed);
            for r in &top {
                println!("  record {}: {:.2}", r.record, r.value);
            }
        }
    }
    Ok(())
}

fn query_disk(args: &[String]) -> Result<(), String> {
    let [dir, cache_mb, text] = args else {
        return Err("queryd needs: <dir> <cache_mb> \"<query>\"".into());
    };
    let cache_mb: usize = cache_mb
        .parse()
        .map_err(|_| "cache size must be a number")?;
    let store = graphbi::disk::DiskGraphStore::open(&PathBuf::from(dir), cache_mb << 20)
        .map_err(|e| e.to_string())?;
    // The disk backend answers through the same Session entry point as
    // every other engine — full statements work, not just plain patterns.
    let req = parse_request(text, store.universe())?;
    let started = std::time::Instant::now();
    let (result, stats) = graphbi::Session::execute(&store, &req).map_err(|e| e.to_string())?;
    println!(
        "{} matching records ({:.2?}); {} disk reads, {:.1} KiB read, \
         {} bitmap + {} measure columns, {} fetches skipped",
        response_len(&result),
        started.elapsed(),
        stats.disk_reads,
        stats.disk_bytes as f64 / 1024.0,
        stats.structural_columns(),
        stats.measure_columns,
        stats.fetches_skipped
    );
    // A second, warm run shows the cache working.
    let started = std::time::Instant::now();
    let (_, warm) = graphbi::Session::execute(&store, &req).map_err(|e| e.to_string())?;
    println!(
        "warm rerun: {:.2?}, {} disk reads",
        started.elapsed(),
        warm.disk_reads
    );
    Ok(())
}

/// Result cardinality of any [`graphbi::Response`] kind.
fn response_len(resp: &graphbi::Response) -> usize {
    match resp {
        graphbi::Response::Records(r) => r.len(),
        graphbi::Response::Matches(b) => usize::try_from(b.len()).unwrap_or(usize::MAX),
        graphbi::Response::Aggregates(a) => a.len(),
    }
}

fn explain(args: &[String]) -> Result<(), String> {
    let [dir, text] = args else {
        return Err("explain needs: <dir> \"<query>\"".into());
    };
    let store = open(&PathBuf::from(dir))?;
    let statement = graphbi::ql::parse(&graphbi::ql::lex(text).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let resolved = graphbi::ql::resolve(&statement, store.universe()).map_err(|e| e.to_string())?;
    let patterns: Vec<graphbi::GraphQuery> = match resolved {
        graphbi::ql::Resolved::Expr(expr) => expr.atoms().into_iter().cloned().collect(),
        graphbi::ql::Resolved::Agg(paq) | graphbi::ql::Resolved::TopAgg(paq, _) => {
            vec![paq.query]
        }
    };
    for (i, q) in patterns.iter().enumerate() {
        if patterns.len() > 1 {
            println!("pattern {}:", i + 1);
        }
        println!("{}", store.explain(q).render(&store));
    }
    Ok(())
}

/// Parses `text` against `universe` into an executable [`QueryRequest`]
/// (top-k statements have no session form and are rejected) — the shared
/// text→request path also used by the server's client.
fn parse_request(text: &str, universe: &Universe) -> Result<graphbi::QueryRequest, String> {
    graphbi::ql::request_from_text(text, universe).map_err(|e| e.to_string())
}

fn profile(args: &[String]) -> Result<(), String> {
    let (dir, text, json_out) = match args {
        [dir, text] => (dir, text, None),
        [dir, text, flag, path] if flag == "--json" => (dir, text, Some(PathBuf::from(path))),
        _ => return Err("profile needs: <dir> \"<query>\" [--json <file>]".into()),
    };
    let dir = PathBuf::from(dir);
    // Same backend choice as `query`: disk-resident once `advise` has
    // persisted views metadata, plain in-memory otherwise.
    let on_disk = persist::has_sidecar(&graphbi_columnstore::OsVfs, &dir, "views_meta.txt");
    let (plain, plain_stats, resp, prof) = if on_disk {
        let store =
            graphbi::disk::DiskGraphStore::open(&dir, 64 << 20).map_err(|e| e.to_string())?;
        let req = parse_request(text, store.universe())?;
        let (plain, plain_stats) =
            graphbi::Session::execute(&store, &req).map_err(|e| e.to_string())?;
        let (resp, prof) = store.profile(&req).map_err(|e| e.to_string())?;
        (plain, plain_stats, resp, prof)
    } else {
        let store = open(&dir)?;
        let req = parse_request(text, store.universe())?;
        let (plain, plain_stats) =
            graphbi::Session::execute(&store, &req).map_err(|e| e.to_string())?;
        let (resp, prof) = store.profile(&req).map_err(|e| e.to_string())?;
        (plain, plain_stats, resp, prof)
    };
    // Tracing must not change the answer or the logical I/O cost. Physical
    // disk traffic legitimately differs between the two runs (the second
    // hits a warm cache), so those two counters are masked.
    if resp != plain {
        return Err("traced run returned a different answer than untraced".into());
    }
    let (mut a, mut b) = (prof.stats, plain_stats);
    a.disk_reads = 0;
    a.disk_bytes = 0;
    b.disk_reads = 0;
    b.disk_bytes = 0;
    if a != b {
        return Err(format!(
            "traced run changed the logical I/O stats: {a:?} vs {b:?}"
        ));
    }
    println!("{}", prof.render());
    if let Some(path) = json_out {
        std::fs::write(&path, prof.render_json()).map_err(|e| e.to_string())?;
        println!("json profile written to {}", path.display());
    }
    Ok(())
}

fn advise(args: &[String]) -> Result<(), String> {
    let [dir, budget, queries @ ..] = args else {
        return Err("advise needs: <dir> <budget> \"<query>\" …".into());
    };
    if queries.is_empty() {
        return Err("advise needs at least one workload query".into());
    }
    let budget: usize = budget.parse().map_err(|_| "budget must be a number")?;
    let dir = PathBuf::from(dir);
    let mut store = open(&dir)?;
    // Parse each workload query down to its structural pattern.
    let mut workload = Vec::new();
    for text in queries {
        let _ = store.query(text).map_err(|e| format!("{text:?}: {e}"))?;
        // Re-resolve to obtain the pattern (query() executes; we want the
        // GraphQuery itself for the advisor).
        let statement = graphbi::ql::parse(&graphbi::ql::lex(text).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        match graphbi::ql::resolve(&statement, store.universe()).map_err(|e| e.to_string())? {
            graphbi::ql::Resolved::Expr(expr) => {
                for atom in expr.atoms() {
                    workload.push(atom.clone());
                }
            }
            graphbi::ql::Resolved::Agg(paq) | graphbi::ql::Resolved::TopAgg(paq, _) => {
                workload.push(paq.query)
            }
        }
    }
    let before = store.graph_views().len();
    let n = store.advise_views(&workload, budget);
    println!(
        "materialized {n} graph views for {} workload patterns",
        workload.len()
    );
    for v in &store.graph_views()[before..] {
        let labels: Vec<String> = v
            .edges
            .iter()
            .map(|&e| store.universe().edge_label(e))
            .collect();
        println!("  new view: {}", labels.join(" "));
    }
    println!(
        "catalog now holds {} graph views:",
        store.graph_views().len()
    );
    for v in store.graph_views() {
        let labels: Vec<String> = v
            .edges
            .iter()
            .map(|&e| store.universe().edge_label(e))
            .collect();
        println!("  view: {}", labels.join(" "));
    }
    // Persist the updated database (views included, with their metadata).
    graphbi::disk::save_store(&store, &dir).map_err(|e| format!("saving: {e}"))?;
    println!("saved to {}", dir.display());
    Ok(())
}

fn serve(args: &[String]) -> Result<(), String> {
    let [dir, addr, flags @ ..] = args else {
        return Err(
            "serve needs: <dir> <addr> [--slowlog-file <path>] [--slow-ms <n>] [--sample <n>]"
                .into(),
        );
    };
    let mut cfg = graphbi_serve::ServeConfig::default();
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--slowlog-file" => {
                let path = it.next().ok_or("--slowlog-file needs a path")?;
                cfg.slowlog_export = Some(graphbi_serve::SlowlogExport {
                    vfs: std::sync::Arc::new(graphbi_columnstore::OsVfs),
                    path: PathBuf::from(path),
                });
            }
            "--slow-ms" => {
                let ms: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--slow-ms needs a millisecond count")?;
                cfg.slow_threshold = std::time::Duration::from_millis(ms);
            }
            "--sample" => {
                cfg.sample_every = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--sample needs a number (sample 1 in N; 0 disables)")?;
            }
            other => return Err(format!("unknown serve flag {other:?}")),
        }
    }
    // Sessions pin MVCC snapshots, so readers stay stable while commits
    // proceed.
    let store = graphbi::MvccStore::new_mem(open(&PathBuf::from(dir))?);
    let store = graphbi_serve::ServeStore::Mvcc(std::sync::Arc::new(store));
    let server = graphbi_serve::Server::start(store, addr, cfg)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    println!("serving on {}", server.addr());
    server.wait();
    Ok(())
}

fn connect(args: &[String]) -> Result<(), String> {
    let [addr, cmd, rest @ ..] = args else {
        return Err("connect needs: <addr> query|insert|profile|metrics …".into());
    };
    let mut client =
        graphbi_serve::Client::connect(addr.as_str()).map_err(|e| format!("connecting: {e}"))?;
    match (cmd.as_str(), rest) {
        ("query", [text]) => {
            let started = std::time::Instant::now();
            let resp = client.query_ql(text).map_err(|e| e.to_string())?;
            let elapsed = started.elapsed();
            match resp {
                graphbi::Response::Records(r) => {
                    println!("{} matching records ({elapsed:.2?})", r.len());
                    for (i, &rid) in r.records.iter().take(10).enumerate() {
                        let row: Vec<String> = r.row(i).iter().map(|v| format!("{v:.2}")).collect();
                        println!("  record {rid}: [{}]", row.join(", "));
                    }
                }
                graphbi::Response::Matches(b) => {
                    println!("{} matching records ({elapsed:.2?})", b.len());
                    for rid in b.iter().take(10) {
                        println!("  record {rid}");
                    }
                }
                graphbi::Response::Aggregates(a) => {
                    println!(
                        "{} matching records × {} paths ({elapsed:.2?})",
                        a.len(),
                        a.path_count
                    );
                    for (i, &rid) in a.records.iter().take(10).enumerate() {
                        let row: Vec<String> = a.row(i).iter().map(|v| format!("{v:.2}")).collect();
                        println!("  record {rid}: [{}]", row.join(", "));
                    }
                }
            }
        }
        ("insert", elems) if !elems.is_empty() => {
            let op = graphbi_serve::protocol::parse_op(&format!("insert {}", elems.join(" ")))
                .map_err(|e| e.to_string())?;
            let (generation, epoch) = client.commit(&[op]).map_err(|e| e.to_string())?;
            println!("committed (generation {generation}, epoch {epoch})");
        }
        ("profile", [text]) => {
            let req = parse_request(text, client.universe())?;
            println!("{}", client.profile(&req).map_err(|e| e.to_string())?);
        }
        ("metrics", []) => print!("{}", client.metrics().map_err(|e| e.to_string())?),
        ("trace", [rid]) => {
            let rid: u64 = rid
                .parse()
                .map_err(|_| "trace needs a numeric request id (from an OK head's id= field)")?;
            println!("{}", client.trace(rid).map_err(|e| e.to_string())?);
        }
        ("slowlog", rest) if rest.len() <= 1 => {
            let n = match rest {
                [n] => Some(n.parse().map_err(|_| "slowlog count must be a number")?),
                _ => None,
            };
            let entries = client.slowlog(n).map_err(|e| e.to_string())?;
            if entries.is_empty() {
                println!("slowlog is empty");
            }
            for entry in entries {
                println!("{entry}");
            }
        }
        ("top", []) => println!("{}", client.top().map_err(|e| e.to_string())?),
        _ => return Err(format!("unknown connect subcommand {cmd:?}")),
    }
    client.quit().map_err(|e| e.to_string())?;
    Ok(())
}

/// A refreshing dashboard over the server's `TOP` verb: one rendered
/// snapshot every 2 seconds (`--once` prints a single snapshot — what
/// scripts and tests use).
fn top(args: &[String]) -> Result<(), String> {
    let (addr, once) = match args {
        [addr] => (addr, false),
        [addr, flag] if flag == "--once" => (addr, true),
        _ => return Err("top needs: <addr> [--once]".into()),
    };
    let mut client =
        graphbi_serve::Client::connect(addr.as_str()).map_err(|e| format!("connecting: {e}"))?;
    loop {
        let snapshot = client.top().map_err(|e| e.to_string())?;
        if once {
            println!("{}", render_top_text(&snapshot)?);
            break;
        }
        // Clear the screen and repaint, like top(1).
        print!("\x1b[2J\x1b[H");
        println!("graphbi top — {addr}");
        println!("{}", render_top_text(&snapshot)?);
        std::thread::sleep(std::time::Duration::from_secs(2));
    }
    client.quit().map_err(|e| e.to_string())?;
    Ok(())
}

/// Renders the `TOP` JSON snapshot as aligned human-readable lines.
fn render_top_text(snapshot: &str) -> Result<String, String> {
    use graphbi_obs::json::Json;
    let doc = graphbi_obs::json::parse(snapshot).map_err(|e| format!("bad TOP json: {e}"))?;
    let num = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .map_or_else(|| "?".into(), |v| format!("{v}"))
    };
    let mut out = String::new();
    out.push_str(&format!(
        "connections {:>8}   admitted    {:>6}\n",
        num("connections"),
        num("queue_depth")
    ));
    out.push_str(&format!(
        "generation  {:>8}   epoch       {:>6}   kernel {}\n",
        num("generation"),
        num("epoch"),
        doc.get("kernel").and_then(Json::as_str).unwrap_or("?")
    ));
    out.push_str(&format!(
        "requests    {:>8}   commits     {:>6}   busy   {:>6}\n",
        num("requests_total"),
        num("commits_total"),
        num("busy_total")
    ));
    out.push_str(&format!(
        "read bytes  {:>8}   write bytes {:>6}   wal commits {:>4}   compactions {:>3}\n",
        num("read_bytes_total"),
        num("write_bytes_total"),
        num("wal_commits_total"),
        num("compactions_total")
    ));
    if let Some(verbs) = doc.get("verbs") {
        out.push_str("verb        count      p50_us     p99_us\n");
        for name in ["query", "batch", "commit", "profile"] {
            if let Some(v) = verbs.get(name) {
                let f = |k: &str| {
                    v.get(k)
                        .and_then(Json::as_f64)
                        .map_or_else(|| "?".into(), |x| format!("{x}"))
                };
                out.push_str(&format!(
                    "{name:<10} {:>6} {:>11} {:>10}\n",
                    f("count"),
                    f("p50_us"),
                    f("p99_us")
                ));
            }
        }
    }
    if let Some(rec) = doc.get("recorder") {
        let f = |k: &str| {
            rec.get(k)
                .and_then(Json::as_f64)
                .map_or_else(|| "?".into(), |x| format!("{x}"))
        };
        out.push_str(&format!(
            "recorder: {} requests, {} captured, {} slow, sampling 1/{}, threshold {} ms",
            f("requests"),
            f("captured"),
            f("slow"),
            f("sample_every"),
            f("slow_threshold_ms")
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("graphbi-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| (*p).to_string()).collect()
    }

    #[test]
    fn usage_errors() {
        assert!(run(&[]).is_err());
        assert!(run(&s(&["bogus"])).is_err());
        assert!(run(&s(&["synth", "ny"])).is_err());
        assert!(run(&s(&["synth", "mars", "10", "/tmp/x"])).is_err());
        assert!(run(&s(&["stats"])).is_err());
        assert!(run(&s(&["queryd", "/nonexistent", "nan", "[a]"])).is_err());
        assert!(run(&s(&["serve", "/nonexistent"])).is_err());
        assert!(run(&s(&["connect"])).is_err());
        assert!(run(&s(&["connect", "127.0.0.1:1", "metrics"])).is_err());
    }

    #[test]
    fn serve_connect_round_trip() {
        let dir = tmpdir("serve");
        let dirs = dir.to_string_lossy().to_string();
        run(&s(&["synth", "ny", "120", &dirs])).unwrap();
        let uni = std::fs::read_to_string(dir.join("universe.txt")).unwrap();
        let nodes: Vec<&str> = uni.lines().filter_map(|l| l.strip_prefix("n ")).collect();
        let edge_line = uni.lines().find_map(|l| l.strip_prefix("e ")).unwrap();
        let (a, b) = edge_line.split_once(' ').unwrap();
        let (a, b): (usize, usize) = (a.parse().unwrap(), b.parse().unwrap());
        let q = format!("[{},{}]", nodes[a], nodes[b]);

        let store = open(&dir).unwrap();
        let server = graphbi_serve::Server::start(
            graphbi_serve::ServeStore::Mvcc(std::sync::Arc::new(graphbi::MvccStore::new_mem(
                store,
            ))),
            "127.0.0.1:0",
            graphbi_serve::ServeConfig::default(),
        )
        .unwrap();
        let addr = server.addr().to_string();
        run(&s(&["connect", &addr, "query", &q])).unwrap();
        run(&s(&["connect", &addr, "query", &format!("SUM {q}")])).unwrap();
        run(&s(&["connect", &addr, "profile", &q])).unwrap();
        run(&s(&["connect", &addr, "metrics"])).unwrap();
        run(&s(&["connect", &addr, "insert", "0:1.5", "1:2.0"])).unwrap();
        // Introspection verbs over the CLI: a PROFILE is always captured,
        // so some trace id is replayable; slowlog and top always answer.
        run(&s(&["connect", &addr, "slowlog"])).unwrap();
        run(&s(&["connect", &addr, "slowlog", "5"])).unwrap();
        run(&s(&["connect", &addr, "top"])).unwrap();
        run(&s(&["top", &addr, "--once"])).unwrap();
        {
            let mut client = graphbi_serve::Client::connect(addr.as_str()).unwrap();
            let req = parse_request(&q, client.universe()).unwrap();
            client.profile(&req).unwrap();
            let rid = client.last_request_id().expect("profile reply carries id=");
            run(&s(&["connect", &addr, "trace", &rid.to_string()])).unwrap();
            assert!(run(&s(&["connect", &addr, "trace", "99999999"])).is_err());
            client.quit().unwrap();
        }
        assert!(run(&s(&["connect", &addr, "insert", "notanop"])).is_err());
        assert!(run(&s(&["connect", &addr, "bogus"])).is_err());
        assert!(run(&s(&["connect", &addr, "trace", "notanumber"])).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn synth_stats_query_advise_cycle() {
        let dir = tmpdir("cycle");
        let dirs = dir.to_string_lossy().to_string();
        run(&s(&["synth", "ny", "300", &dirs])).unwrap();
        run(&s(&["stats", &dirs])).unwrap();
        // Find a real edge to query from the universe file.
        let uni = std::fs::read_to_string(dir.join("universe.txt")).unwrap();
        let nodes: Vec<&str> = uni.lines().filter_map(|l| l.strip_prefix("n ")).collect();
        let edge_line = uni
            .lines()
            .find_map(|l| l.strip_prefix("e "))
            .expect("at least one edge");
        let (a, b) = edge_line.split_once(' ').unwrap();
        let (a, b): (usize, usize) = (a.parse().unwrap(), b.parse().unwrap());
        let q = format!("[{},{}]", nodes[a], nodes[b]);
        run(&s(&["query", &dirs, &q])).unwrap();
        run(&s(&["explain", &dirs, &q])).unwrap();
        // Memory-backend profile (no views metadata yet).
        run(&s(&["profile", &dirs, &q])).unwrap();
        run(&s(&["advise", &dirs, "2", &q])).unwrap();
        run(&s(&["queryd", &dirs, "16", &q])).unwrap();
        // Disk-backend profile, with a parseable JSON snapshot.
        let json_path = dir.join("profile.json");
        let json_s = json_path.to_string_lossy().to_string();
        run(&s(&["profile", &dirs, &q, "--json", &json_s])).unwrap();
        let doc = graphbi_obs::json::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
        assert_eq!(
            doc.get("backend").and_then(graphbi_obs::json::Json::as_str),
            Some("disk")
        );
        for phase in graphbi::PHASE_NAMES {
            assert!(
                doc.get("phases").and_then(|p| p.get(phase)).is_some(),
                "phase {phase} missing from profile json"
            );
        }
        // Unknown node errors cleanly.
        assert!(run(&s(&["query", &dirs, "[nosuchnode,alsonot]"])).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
