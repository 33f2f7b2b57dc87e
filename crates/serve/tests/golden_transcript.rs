//! Golden transcript: the raw bytes a server puts on the socket, compared
//! with the frames composed the long way — `format!` of the head, then
//! `Response::to_text()` — so any change to reply assembly that alters a
//! byte fails here, and the served-bytes counter is checked against what
//! the sockets actually delivered.
//!
//! One test in a file of its own: `graphbi_serve_write_bytes_total`
//! lives in the process-wide registry, and only a process with no other
//! server in it can hold the counter to equality.

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use graphbi::{ErrorCode, GraphStore, MvccStore, QueryRequest, Session};
use graphbi_serve::protocol::{self, PROTOCOL_VERSION};
use graphbi_serve::{ServeConfig, ServeStore, Server};
use graphbi_testkit::Scenario;

/// A bare socket that counts what it receives.
struct Raw {
    stream: TcpStream,
    received: u64,
}

impl Raw {
    fn connect(addr: SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        Raw {
            stream,
            received: 0,
        }
    }

    fn send(&mut self, frame: &str) {
        self.stream.write_all(frame.as_bytes()).expect("send");
    }

    /// Reads exactly as many bytes as `want` holds and compares them.
    fn expect(&mut self, want: &str, what: &str) {
        let mut got = vec![0u8; want.len()];
        self.stream.read_exact(&mut got).expect(what);
        self.received += got.len() as u64;
        assert_eq!(String::from_utf8_lossy(&got), want, "{what}");
    }

    /// Reads one status line.
    fn line(&mut self) -> String {
        let mut out = Vec::new();
        let mut byte = [0u8; 1];
        while byte[0] != b'\n' {
            self.stream.read_exact(&mut byte).expect("status line");
            out.push(byte[0]);
        }
        self.received += out.len() as u64;
        String::from_utf8(out).expect("status lines are UTF-8")
    }

    /// Says goodbye and reads to end of stream: nothing may follow the
    /// `QUIT` reply.
    fn quit(mut self, rid: u64) -> u64 {
        self.send("QUIT\n");
        let mut rest = String::new();
        self.stream.read_to_string(&mut rest).expect("read to EOF");
        assert_eq!(rest, format!("OK lines=0 id={rid}\n"));
        self.received + rest.len() as u64
    }
}

#[test]
fn replies_are_byte_identical_to_the_composed_frames() {
    let written = graphbi_obs::global().counter("graphbi_serve_write_bytes_total");
    let scenario = Scenario::generate(7);
    let load = || GraphStore::load(scenario.universe.clone(), &scenario.records);
    let base = load();
    let reqs = [
        QueryRequest::new(scenario.queries[0].clone()),
        QueryRequest::expr(scenario.exprs[0].clone()),
        QueryRequest::aggregate(scenario.aggs[0].clone()),
    ];
    let answers: Vec<_> = base
        .evaluate_many(&reqs)
        .expect("in-process evaluation")
        .into_iter()
        .map(|(resp, _)| resp)
        .collect();
    let mut received = 0u64;

    // QUERY, BATCH and ERR on a quiet server, where request ids count up
    // from the handshake's.
    {
        let server = Server::start(
            ServeStore::Mvcc(Arc::new(MvccStore::new_mem(load()))),
            "127.0.0.1:0",
            ServeConfig::default(),
        )
        .expect("server starts");
        let mut raw = Raw::connect(server.addr());
        let universe = scenario.universe.to_text();
        raw.send(&format!("HELLO {PROTOCOL_VERSION}\n"));
        raw.expect(
            &format!(
                "OK {PROTOCOL_VERSION} generation=0 epoch=0 lines={} id=1\n{universe}",
                universe.lines().count()
            ),
            "HELLO reply",
        );

        raw.send(&format!("QUERY {}\n", reqs[0].to_text()));
        raw.expect(
            &format!(
                "OK generation=0 epoch=0 lines={} id=2\n{}",
                answers[0].line_count(),
                answers[0].to_text()
            ),
            "QUERY reply",
        );

        let mut frame = String::from("BATCH 3\n");
        let mut body = String::new();
        let mut lines = 0;
        for (req, answer) in reqs.iter().zip(&answers) {
            frame.push_str(&req.to_text());
            frame.push('\n');
            body.push_str(&answer.to_text());
            lines += answer.line_count();
        }
        raw.send(&frame);
        raw.expect(
            &format!("OK count=3 generation=0 epoch=0 lines={lines} id=3\n{body}"),
            "BATCH reply",
        );

        raw.send("QUERY nonsense\n");
        let why = QueryRequest::parse_text("nonsense").expect_err("not a request");
        raw.expect(
            &format!(
                "{}\n",
                protocol::render_err_id(ErrorCode::Malformed, &why.to_string(), 4)
            ),
            "ERR reply",
        );
        received += raw.quit(5);
    }

    // BUSY: two execution slots and a disk store whose reads stall far
    // longer than the admission timeout. Of three requests on three
    // connections two are admitted, and the third is refused — whichever
    // order they arrive in.
    {
        let stalling = common::StallStore::new("golden", &base);
        stalling.stall_reads(Duration::from_millis(400));
        let generation = stalling.store.generation();
        let cfg = ServeConfig {
            queue_depth: 2,
            admission_timeout: Duration::from_millis(50),
            ..ServeConfig::default()
        };
        let busy = format!(
            "{}\n",
            protocol::render_busy(&format!(
                "admission queue full ({} deep) for {:?}",
                cfg.queue_depth, cfg.admission_timeout
            ))
        );
        let server = Server::start(
            ServeStore::Mvcc(Arc::clone(&stalling.store)),
            "127.0.0.1:0",
            cfg,
        )
        .expect("server starts");
        let mut conns: Vec<Raw> = (0..3).map(|_| Raw::connect(server.addr())).collect();
        for raw in &mut conns {
            raw.send(&format!("HELLO {PROTOCOL_VERSION}\n"));
            let head = raw.line();
            let universe = scenario.universe.to_text();
            assert!(head.starts_with("OK "), "{head:?}");
            raw.expect(&universe, "HELLO body");
        }
        for raw in &mut conns {
            raw.send(&format!("QUERY {}\n", reqs[0].to_text()));
        }
        let mut refused = 0;
        for raw in &mut conns {
            let head = raw.line();
            if head == busy {
                refused += 1;
            } else {
                let ok = format!("OK generation={generation} epoch=0 ");
                assert!(head.starts_with(&ok), "{head:?}");
                raw.expect(&answers[0].to_text(), "QUERY body");
            }
        }
        assert_eq!(refused, 1, "exactly one of three is refused");
        // The handshakes took ids 1–3 and the queries 4–6.
        for (raw, rid) in conns.into_iter().zip(7..) {
            received += raw.quit(rid);
        }
    }

    assert_eq!(
        written.get(),
        received,
        "graphbi_serve_write_bytes_total counts exactly the bytes delivered"
    );
}
