//! End-to-end server tests: every served answer must be bit-identical to
//! the in-process `Session` answer, sessions must hold stable MVCC
//! snapshots while writers commit, and overload must degrade into typed
//! `BUSY` frames — never into hangs, drops or unbounded buffering.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use graphbi::{GraphStore, MvccStore, QueryRequest, Session};
use graphbi_columnstore::{DeltaOp, Vfs as _};
use graphbi_serve::{Client, ClientError, ServeConfig, ServeStore, Server};
use graphbi_testkit::Scenario;

/// `store` as an in-memory MVCC store, ready to serve.
fn mem(store: GraphStore) -> ServeStore {
    ServeStore::Mvcc(Arc::new(MvccStore::new_mem(store)))
}

/// The scenario's full request workload: graph queries, logical
/// expressions and path aggregations.
fn workload(scenario: &Scenario) -> Vec<QueryRequest> {
    let mut reqs = Vec::new();
    for q in &scenario.queries {
        reqs.push(QueryRequest::new(q.clone()));
    }
    for e in &scenario.exprs {
        reqs.push(QueryRequest::expr(e.clone()));
    }
    for a in &scenario.aggs {
        reqs.push(QueryRequest::aggregate(a.clone()));
    }
    reqs
}

fn expected_texts(store: &impl Session, reqs: &[QueryRequest]) -> Vec<String> {
    store
        .evaluate_many(reqs)
        .expect("in-process evaluation")
        .into_iter()
        .map(|(resp, _)| resp.to_text())
        .collect()
}

#[test]
fn mixed_protocol_session_matches_in_process() {
    let scenario = Scenario::generate(7);
    let mut store = GraphStore::load(scenario.universe.clone(), &scenario.records);
    store.advise_views(&scenario.queries, scenario.view_budget);
    let store = Arc::new(MvccStore::new_mem(store));
    let reqs = workload(&scenario);
    let expected = expected_texts(store.as_ref(), &reqs);

    let server = Server::start(
        ServeStore::Mvcc(Arc::clone(&store)),
        "127.0.0.1:0",
        ServeConfig {
            trace: true,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");

    // The handshake serves the exact universe.
    assert_eq!(client.universe().to_text(), scenario.universe.to_text());

    // Single queries: bit-identical to in-process answers.
    for (req, want) in reqs.iter().zip(&expected) {
        let got = client.query(req).expect("query");
        assert_eq!(&got.to_text(), want, "for {}", req.to_text());
    }

    // One BATCH frame answers the whole workload, in order.
    let got = client.batch(&reqs).expect("batch");
    for ((resp, want), req) in got.iter().zip(&expected).zip(&reqs) {
        assert_eq!(&resp.to_text(), want, "batched {}", req.to_text());
    }

    // A malformed frame gets a typed error and leaves the session usable.
    match client.send_raw("FROBNICATE 12") {
        Ok(line) => assert!(line.starts_with("ERR 110 MALFORMED"), "{line:?}"),
        Err(e) => panic!("malformed frame should answer, got {e}"),
    }
    let again = client.query(&reqs[0]).expect("query after malformed frame");
    assert_eq!(again.to_text(), expected[0]);

    // Profiling returns the JSON profile of a solo run.
    let prof = client.profile(&reqs[0]).expect("profile");
    assert!(prof.starts_with('{') && prof.ends_with('}'), "{prof:?}");

    // Commit through the wire, then re-query: the inserted record is
    // visible, because COMMIT re-pins the connection past its own write.
    let before = store.record_count();
    let rec = scenario.records[0].clone();
    client
        .commit(&[DeltaOp::Insert(rec)])
        .expect("commit insert");
    assert_eq!(store.record_count(), before + 1);
    let fresh = expected_texts(store.as_ref(), &reqs[..1]);
    assert_eq!(
        client.query(&reqs[0]).expect("post-commit query").to_text(),
        fresh[0]
    );

    // An op referencing an unknown edge is refused with the stable code.
    let bad = {
        let mut b = graphbi_graph::RecordBuilder::new();
        b.add(graphbi::EdgeId(u32::MAX - 1), 1.0);
        DeltaOp::Insert(b.build())
    };
    match client.commit(&[bad]) {
        Err(ClientError::Remote { code, symbol, .. }) => {
            assert_eq!((code, symbol.as_str()), (101, "UNKNOWN_EDGE"));
        }
        other => panic!("expected UNKNOWN_EDGE, got {other:?}"),
    }

    // The metrics scrape carries the serving counters.
    let metrics = client.metrics().expect("metrics");
    for needle in [
        "graphbi_serve_requests_total",
        "graphbi_serve_batches_total",
        "graphbi_serve_batched_requests_total",
        "graphbi_serve_connections_total",
    ] {
        assert!(
            metrics.contains(needle),
            "metrics missing {needle}:\n{metrics}"
        );
    }

    // Per-connection spans landed in the server's tracer.
    let trace = server.collector().expect("trace enabled").trace();
    for span in ["serve.request", "serve.batch"] {
        assert!(
            trace.spans.iter().any(|s| s.name == span),
            "missing {span} span in {:?}",
            trace.spans.iter().map(|s| s.name).collect::<Vec<_>>()
        );
    }

    client.quit().expect("quit");
}

#[test]
fn hello_version_mismatch_is_refused() {
    let scenario = Scenario::generate(11);
    let store = GraphStore::load(scenario.universe.clone(), &scenario.records[..4]);
    let server =
        Server::start(mem(store), "127.0.0.1:0", ServeConfig::default()).expect("server starts");

    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    writeln!(stream, "HELLO graphbi/99").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR 111 UNSUPPORTED"), "{line:?}");
}

/// N reader connections race a committing writer. Every reader pins a
/// snapshot per `REFRESH` and must see answers bit-identical to an
/// in-process store holding exactly that epoch's records — across every
/// interleaving of commits and queries.
#[test]
fn mvcc_readers_race_committing_writer() {
    let scenario = Scenario::generate(23);
    let base = 40.min(scenario.records.len());
    let store = Arc::new(MvccStore::new_mem(GraphStore::load(
        scenario.universe.clone(),
        &scenario.records[..base],
    )));

    // Structural requests only: their answers are exact record sets, so
    // bit-identity across engines is unconditional.
    let mut reqs: Vec<QueryRequest> = scenario
        .queries
        .iter()
        .take(4)
        .map(|q| QueryRequest::new(q.clone()))
        .collect();
    reqs.extend(
        scenario
            .exprs
            .iter()
            .take(2)
            .map(|e| QueryRequest::expr(e.clone())),
    );

    // The writer appends one scenario record per commit; epoch k's store
    // is exactly records[..base + k]. Precompute every epoch's answers.
    let extra: Vec<_> = scenario.records.iter().cycle().take(24).cloned().collect();
    let expected: Vec<Vec<String>> = (0..=extra.len())
        .map(|k| {
            let mut all: Vec<_> = scenario.records[..base].to_vec();
            all.extend(extra[..k].iter().cloned());
            let model = GraphStore::load(scenario.universe.clone(), &all);
            expected_texts(&model, &reqs)
        })
        .collect();

    let server = Server::start(
        ServeStore::Mvcc(Arc::clone(&store)),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("server starts");
    let addr = server.addr();

    let writer = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for (i, rec) in extra.iter().enumerate() {
                let epoch = store
                    .commit(&[DeltaOp::Insert(rec.clone())])
                    .expect("commit");
                assert_eq!(epoch, (i + 1) as u64);
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let reqs = reqs.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("reader connects");
                let mut checked = 0usize;
                for _ in 0..12 {
                    let (_gen, epoch) = client.refresh().expect("refresh");
                    let want = &expected[epoch as usize];
                    // The pin holds for the whole batch even though the
                    // writer keeps committing underneath.
                    let got = client.batch(&reqs).expect("batch");
                    for (resp, want) in got.iter().zip(want) {
                        assert_eq!(&resp.to_text(), want, "at epoch {epoch}");
                        checked += 1;
                    }
                    for (req, want) in reqs.iter().zip(want) {
                        assert_eq!(&client.query(req).expect("query").to_text(), want);
                        checked += 1;
                    }
                }
                checked
            })
        })
        .collect();

    writer.join().expect("writer");
    let total: usize = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert_eq!(total, 3 * 12 * reqs.len() * 2);
}

/// Overload: slow requests plus a one-slot admission gate must produce
/// typed `BUSY` answers within the admission timeout — while other
/// requests still succeed and nothing hangs or drops.
#[test]
fn overload_answers_typed_busy_within_timeout() {
    let scenario = Scenario::generate(3);
    let stalling = common::StallStore::new(
        "overload",
        &GraphStore::load(scenario.universe.clone(), &scenario.records),
    );
    // Every disk read sleeps, so an admitted request holds its permit
    // well past the admission timeout.
    stalling.stall_reads(Duration::from_millis(60));
    let admission_timeout = Duration::from_millis(25);
    let server = Server::start(
        ServeStore::Mvcc(Arc::clone(&stalling.store)),
        "127.0.0.1:0",
        ServeConfig {
            queue_depth: 1,
            admission_timeout,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    let req = QueryRequest::new(scenario.queries[0].clone());

    // A lone request succeeds even when it is slow.
    let mut warm = Client::connect(addr).expect("connect");
    warm.query(&req).expect("uncontended query succeeds");

    let clients: Vec<_> = (0..8)
        .map(|_| {
            let req = req.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let started = Instant::now();
                let outcome = client.query(&req);
                let elapsed = started.elapsed();
                match outcome {
                    Ok(_) => (1, 0, elapsed),
                    Err(ClientError::Busy { code, .. }) => {
                        assert_eq!(code, 210);
                        (0, 1, elapsed)
                    }
                    Err(e) => panic!("only OK or BUSY under overload, got {e}"),
                }
            })
        })
        .collect();

    let mut ok = 0;
    let mut busy = 0;
    for c in clients {
        let (o, b, elapsed) = c.join().expect("client");
        if b == 1 {
            // BUSY must arrive promptly: the admission wait plus
            // (generous) scheduling slack, nowhere near the time eight
            // serialized slow requests take.
            assert!(
                elapsed < admission_timeout + Duration::from_millis(200),
                "BUSY took {elapsed:?}"
            );
        }
        ok += o;
        busy += b;
    }
    assert!(busy >= 1, "one slot + slow requests must refuse some of 8");
    assert!(ok + busy == 8, "every request got exactly one answer");

    // The refusals are visible in the metrics.
    let metrics = warm.metrics().expect("metrics");
    assert!(metrics.contains("graphbi_serve_busy_total"), "{metrics}");
}

/// Six connections querying at once each execute on their own thread and
/// must all get answers bit-identical to in-process evaluation, each
/// request executed exactly once.
#[test]
fn concurrent_connections_get_identical_answers() {
    let scenario = Scenario::generate(41);
    let store = GraphStore::load(scenario.universe.clone(), &scenario.records);
    let reqs = workload(&scenario);
    let expected = expected_texts(&store, &reqs);

    let mut server = Server::start(
        mem(store),
        "127.0.0.1:0",
        ServeConfig {
            // The `graphbi_serve_*` counters are process-global and every
            // test in this binary bumps them concurrently; this server's
            // own collector sees only this server's `serve.batch` spans.
            trace: true,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();

    let threads: Vec<_> = (0..6)
        .map(|t| {
            let reqs = reqs.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..4 {
                    let i = (t + round) % reqs.len();
                    let got = client.query(&reqs[i]).expect("query");
                    assert_eq!(got.to_text(), expected[i]);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    server.shutdown();
    let trace = server.collector().expect("trace enabled").trace();
    assert_eq!(trace.count("serve.batch"), 24, "one execution per request");
    assert_eq!(trace.sum_attr("serve.batch", "size"), 24);
}

/// `TRACE` must replay a `PROFILE`'s rendering bit-identically — the
/// stored trace is the same `Profile` object whose JSON went on the wire
/// — on both the in-memory and the disk-backed MVCC store. Sampled
/// queries (run through the profiler) must not change any answer.
#[test]
fn trace_replays_profile_bit_identically_on_mem_and_disk() {
    let scenario = Scenario::generate(13);
    let load = || GraphStore::load(scenario.universe.clone(), &scenario.records);
    let reqs = workload(&scenario);
    let expected = expected_texts(&load(), &reqs);

    let disk_vfs = Arc::new(graphbi_columnstore::FaultVfs::new(0x71e7));
    let disk_dir = std::path::PathBuf::from("/flightdb");
    graphbi::disk::save_store_with(disk_vfs.as_ref(), &load(), &disk_dir).expect("save disk store");
    let disk = graphbi::MvccStore::open_disk(
        &disk_dir,
        16 << 20,
        disk_vfs,
        graphbi_columnstore::Verify::Checksums,
    )
    .expect("open disk store");

    let backends = [
        ("mem", mem(load())),
        ("disk", ServeStore::Mvcc(Arc::new(disk))),
    ];
    for (label, serve_store) in backends {
        let server = Server::start(
            serve_store,
            "127.0.0.1:0",
            ServeConfig {
                // Sample every request: each QUERY runs through the
                // profiler, the strongest answers-don't-change check.
                sample_every: 1,
                ..ServeConfig::default()
            },
        )
        .expect("server starts");
        let mut client = Client::connect(server.addr()).expect("client connects");

        for (req, want) in reqs.iter().zip(&expected) {
            let got = client.query(req).expect("sampled query");
            assert_eq!(&got.to_text(), want, "[{label}] sampling changed an answer");
            let rid = client.last_request_id().expect("OK head carries id=");
            let replay = client.trace(rid).expect("sampled query is captured");
            let doc = graphbi_obs::json::parse(&replay).expect("trace is JSON");
            assert!(
                doc.get("total_ns").is_some() || doc.get("backend").is_some(),
                "[{label}] trace is not a profile rendering: {replay}"
            );
        }

        // The hinge: PROFILE's payload and TRACE's replay are the same bytes.
        for req in &reqs {
            let prof = client.profile(req).expect("profile");
            let rid = client.last_request_id().expect("PROFILE reply carries id=");
            let replay = client.trace(rid).expect("profiled request is captured");
            assert_eq!(replay, prof, "[{label}] TRACE differs from PROFILE");
        }

        // An id the ring never held answers the stable NOT_FOUND code.
        match client.trace(u64::MAX) {
            Err(ClientError::Remote { code, symbol, .. }) => {
                assert_eq!((code, symbol.as_str()), (112, "NOT_FOUND"), "[{label}]");
            }
            other => panic!("[{label}] expected NOT_FOUND, got {other:?}"),
        }
        client.quit().expect("quit");
    }
}

/// Slow and failing requests are captured regardless of sampling, show
/// up in `SLOWLOG` newest-first, and are appended to the export file as
/// CRC-framed JSON lines that deframe cleanly even with a torn tail.
#[test]
fn slowlog_forces_capture_and_exports_framed_json() {
    let scenario = Scenario::generate(17);
    let store = GraphStore::load(scenario.universe.clone(), &scenario.records);
    let reqs = workload(&scenario);
    let export_vfs: Arc<graphbi_columnstore::FaultVfs> =
        Arc::new(graphbi_columnstore::FaultVfs::new(0x510e));
    let export_path = std::path::PathBuf::from("/slowlog.jsonl");

    let server = Server::start(
        mem(store),
        "127.0.0.1:0",
        ServeConfig {
            // Head sampling off; a zero threshold makes every request
            // "slow", so capture is exercised purely through forcing.
            sample_every: 0,
            slow_threshold: Duration::ZERO,
            slowlog_export: Some(graphbi_serve::SlowlogExport {
                vfs: export_vfs.clone(),
                path: export_path.clone(),
            }),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");

    for req in reqs.iter().take(3) {
        client.query(req).expect("query");
    }
    // A failing request: captured (forced) and TRACE-able via the id the
    // ERR frame carries as its trailing token.
    let line = client
        .send_raw("QUERY id=42 graph views=2 shards=1 :")
        .expect("malformed query answers");
    assert!(line.starts_with("ERR "), "{line:?}");
    let failed_rid = line
        .rsplit(' ')
        .next()
        .and_then(|tok| tok.strip_prefix("id="))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("ERR frame without trailing id=: {line:?}"));
    let replay = client.trace(failed_rid).expect("failure is force-captured");
    let doc = graphbi_obs::json::parse(&replay).expect("trace JSON");
    assert!(doc.get("total_ns").is_some() || doc.get("backend").is_some());

    // SLOWLOG: one JSON entry per request, newest first, rids descending.
    let entries = client.slowlog(Some(16)).expect("slowlog");
    assert!(
        entries.len() >= 3,
        "expected ≥3 slow entries, got {entries:?}"
    );
    let mut last_rid = u64::MAX;
    for line in &entries {
        let doc = graphbi_obs::json::parse(line).expect("slowlog entry JSON");
        let rid = doc
            .get("rid")
            .and_then(graphbi_obs::json::Json::as_u64)
            .expect("entry has rid");
        assert!(rid < last_rid, "slowlog not newest-first: {entries:?}");
        last_rid = rid;
        assert!(doc.get("profile").is_some(), "entry carries its profile");
    }
    // The client correlation id rode into the failing request's entry.
    assert!(
        entries.iter().any(|l| graphbi_obs::json::parse(l)
            .ok()
            .and_then(|d| d.get("id").and_then(graphbi_obs::json::Json::as_u64))
            == Some(42)),
        "correlation id missing from {entries:?}"
    );

    // The export file deframes into the same number of JSON lines, and a
    // torn tail (partial frame) is silently dropped, not misread.
    let bytes = export_vfs.read(&export_path).expect("export file exists");
    let lines = graphbi_obs::slowlog::read_lines(&bytes);
    assert_eq!(lines.len(), entries.len(), "export count != slowlog count");
    for line in &lines {
        graphbi_obs::json::parse(line).expect("exported line is JSON");
    }
    let mut torn = bytes.clone();
    torn.extend_from_slice(&graphbi_obs::slowlog::frame_line("{\"rid\":999}")[..7]);
    assert_eq!(
        graphbi_obs::slowlog::read_lines(&torn).len(),
        lines.len(),
        "torn tail must be dropped"
    );

    // TOP: one JSON line of live state, recorder section included.
    let top = client.top().expect("top");
    let doc = graphbi_obs::json::parse(&top).expect("TOP is JSON");
    for key in [
        "connections",
        "queue_depth",
        "requests_total",
        "verbs",
        "queue_wait_us",
        "recorder",
    ] {
        assert!(doc.get(key).is_some(), "TOP missing {key}: {top}");
    }
    let rec = doc.get("recorder").unwrap();
    let slow = rec
        .get("slow")
        .and_then(graphbi_obs::json::Json::as_u64)
        .expect("recorder.slow");
    assert!(
        slow >= entries.len() as u64,
        "TOP undercounts slow captures"
    );
    assert_eq!(
        rec.get("sample_every")
            .and_then(graphbi_obs::json::Json::as_u64),
        Some(0)
    );
    client.quit().expect("quit");
}

/// Shutdown answers in-flight work: no connection is dropped without a
/// response, and the listener stops accepting.
#[test]
fn shutdown_is_orderly() {
    let scenario = Scenario::generate(5);
    let store = GraphStore::load(scenario.universe.clone(), &scenario.records[..8]);
    let mut server =
        Server::start(mem(store), "127.0.0.1:0", ServeConfig::default()).expect("server starts");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let req = QueryRequest::new(scenario.queries[0].clone());
    client.query(&req).expect("query before shutdown");
    server.shutdown();
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err()
            || Client::connect(addr).is_err(),
        "listener keeps serving after shutdown"
    );
}

/// A connection's snapshot pins its generation's files against garbage
/// collection for exactly as long as the connection lasts, however it
/// ends: by `QUIT`, or by dropping its socket in the middle of a request.
#[test]
fn snapshot_pins_return_to_zero_after_quit_and_disconnect() {
    use std::io::{BufRead, BufReader, Write};

    let scenario = Scenario::generate(19);
    let vfs = Arc::new(graphbi_columnstore::FaultVfs::new(0x9150));
    let dir = std::path::PathBuf::from("/pinned");
    let base = GraphStore::load(scenario.universe.clone(), &scenario.records);
    graphbi::disk::save_store_with(vfs.as_ref(), &base, &dir).expect("save store");
    let store = Arc::new(
        MvccStore::open_disk(
            &dir,
            16 << 20,
            vfs.clone(),
            graphbi_columnstore::Verify::Checksums,
        )
        .expect("open disk store"),
    );
    let pinned_gen = store.generation();
    let prefix = format!("g{pinned_gen:012}-");
    let pinned_files = || {
        vfs.list(&dir)
            .expect("list store dir")
            .iter()
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(&prefix))
            })
            .count()
    };
    assert!(pinned_files() > 0, "the live generation has files");

    let server = Server::start(
        ServeStore::Mvcc(Arc::clone(&store)),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("server starts");
    let req = QueryRequest::new(scenario.queries[0].clone());

    // Two sessions pin generation G at HELLO: a client that will QUIT and
    // a raw socket that will vanish mid-request.
    let mut quitter = Client::connect(server.addr()).expect("client connects");
    let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
    writeln!(raw, "HELLO {}", graphbi_serve::protocol::PROTOCOL_VERSION).unwrap();
    let mut reader = BufReader::new(raw.try_clone().expect("clone socket"));
    let mut head = String::new();
    reader.read_line(&mut head).unwrap();
    assert!(
        head.starts_with(&format!(
            "OK {} generation={pinned_gen} ",
            graphbi_serve::protocol::PROTOCOL_VERSION
        )),
        "{head:?}"
    );
    let lines: usize = head
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("lines="))
        .and_then(|n| n.parse().ok())
        .expect("HELLO head carries lines=");
    for _ in 0..lines {
        reader.read_line(&mut String::new()).unwrap();
    }

    // Move the store past G: a commit and a compaction publish a new
    // generation, and gc must spare G while sessions pin it.
    store
        .commit(&[DeltaOp::Insert(scenario.records[0].clone())])
        .expect("commit");
    store.compact().expect("compact");
    assert_ne!(store.generation(), pinned_gen, "compaction republishes");
    store.gc().expect("gc");
    assert!(pinned_files() > 0, "gc removed files a session pins");
    quitter.query(&req).expect("pinned session still answers");

    // QUIT releases one pin; the raw session still holds G.
    quitter.quit().expect("quit");
    store.gc().expect("gc");
    assert!(pinned_files() > 0, "gc removed files the raw session pins");

    // Half a BATCH, then the socket goes away.
    write!(raw, "BATCH 2\n{}\n", req.to_text()).unwrap();
    drop(reader);
    drop(raw);

    // The handler threads notice the ends on their own schedule; once
    // both are gone nothing pins G and the next sweep collects it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        store.gc().expect("gc");
        if pinned_files() == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "pins never returned to zero: generation {pinned_gen} still on disk"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
