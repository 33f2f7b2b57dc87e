//! The wire protocol: versioned, line-oriented text frames.
//!
//! Every frame is UTF-8 lines. The client speaks verbs; the server
//! answers exactly one status frame per verb — `OK`, `ERR` or `BUSY` —
//! so a connection is never dropped without a response. Multi-line
//! payloads are length-framed by a `lines=<n>` field in the `OK` head,
//! and request/response payloads use the canonical [`QueryRequest`] /
//! [`Response`] grammar from `graphbi::wire` — the same text the CLI and
//! testkit use.
//!
//! | verb                | payload lines after the verb | reply                                   |
//! |---------------------|------------------------------|-----------------------------------------|
//! | `HELLO graphbi/1`   | —                            | `OK graphbi/1 generation= epoch= lines=n id=` + universe text |
//! | `QUERY [id=c] <request>` | —                       | `OK generation= epoch= lines=n id=` + response block |
//! | `BATCH <k> [id=c]`  | `k` request lines            | `OK count=k generation= epoch= lines=n id=` + `k` response blocks |
//! | `COMMIT <k>`        | `k` op lines                 | `OK generation= epoch= lines=0 id=`     |
//! | `PROFILE <request>` | —                            | `OK lines=1 id=` + one JSON line        |
//! | `METRICS`           | —                            | `OK lines=n id=` + Prometheus text      |
//! | `TRACE <rid>`       | —                            | `OK lines=1 id=` + captured profile JSON |
//! | `SLOWLOG [n]`       | —                            | `OK lines=n id=` + one JSON line per slow request |
//! | `TOP`               | —                            | `OK lines=1 id=` + live snapshot JSON   |
//! | `REFRESH`           | —                            | `OK generation= epoch= lines=0 id=`     |
//! | `QUIT`              | —                            | `OK lines=0 id=`, then close            |
//!
//! Every reply head carries `id=<rid>`, the server-assigned request id —
//! the handle `TRACE` replays a captured trace by. The optional `id=<c>`
//! attribute on `QUERY`/`BATCH` is a *client* correlation id echoed into
//! the flight-recorder entry, so a client can find its own requests in
//! `SLOWLOG` output without tracking server ids.
//!
//! Failure frames are single lines: `ERR <code> <SYMBOL> <message> id=<rid>`
//! with a stable [`ErrorCode`], and `BUSY <code> <message>` when the
//! admission gate stayed full for the whole timeout (the backpressure
//! signal — retry later). Commit op lines are `insert <edge>:<measure>…`
//! and `update <rid> <edge>:<measure>…`.

use graphbi::{ErrorCode, WireError};
use graphbi_columnstore::DeltaOp;
use graphbi_graph::{GraphRecord, RecordBuilder};

/// The protocol version token exchanged in `HELLO`. A server refuses
/// other versions with [`ErrorCode::Unsupported`].
pub const PROTOCOL_VERSION: &str = "graphbi/1";

/// Hard cap on one frame line; longer lines are a [`ErrorCode::Malformed`]
/// protocol error and close the connection (the stream can no longer be
/// framed). Keeps per-connection memory bounded under any input.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Hard cap on `BATCH`/`COMMIT` counts, bounding the memory one frame can
/// pin before admission control sees it.
pub const MAX_BATCH: usize = 4096;

/// A client verb line, parsed. `Batch`/`Commit` announce how many payload
/// lines follow.
#[derive(Debug, Clone, PartialEq)]
pub enum Verb {
    /// Version handshake; must be the first frame on a connection.
    Hello(String),
    /// One request (canonical request grammar in the payload), with an
    /// optional client correlation id.
    Query {
        /// Client correlation id (`id=<c>`), echoed into the recorder.
        cid: Option<u64>,
        /// The raw request text.
        payload: String,
    },
    /// `count` request lines follow, with an optional client correlation
    /// id covering the whole frame.
    Batch {
        /// How many request lines follow.
        count: usize,
        /// Client correlation id (`id=<c>`), echoed into the recorder.
        cid: Option<u64>,
    },
    /// `k` op lines follow.
    Commit(usize),
    /// Profile one request.
    Profile(String),
    /// Scrape the metrics registry.
    Metrics,
    /// Replay the captured trace of request `rid`.
    Trace(u64),
    /// The most recent over-threshold requests (default count when `None`).
    Slowlog(Option<usize>),
    /// One-line live server snapshot.
    Top,
    /// Re-pin the session to the store's latest state.
    Refresh,
    /// Close the connection.
    Quit,
}

/// Splits a leading `id=<n>` token off `rest`, if present. Used by
/// `QUERY` (prefix position) — a request whose text genuinely starts with
/// `id=` cannot exist: the request grammar starts with a kind keyword.
fn split_cid(rest: &str) -> Result<(Option<u64>, &str), WireError> {
    let Some(tok) = rest.split_whitespace().next() else {
        return Ok((None, rest));
    };
    let Some(v) = tok.strip_prefix("id=") else {
        return Ok((None, rest));
    };
    let cid = v.parse().map_err(|_| WireError {
        line: 1,
        what: format!("bad correlation id {v:?}"),
    })?;
    Ok((Some(cid), rest[tok.len()..].trim_start()))
}

/// Parses a verb line. The request payload of `QUERY`/`PROFILE` is
/// returned raw — request-grammar errors are reported separately so the
/// client can tell a protocol slip from a bad query.
pub fn parse_verb(line: &str) -> Result<Verb, WireError> {
    let line = line.trim_end_matches('\r');
    let (verb, rest) = match line.split_once(' ') {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let err = |what: String| WireError { line: 1, what };
    let count = |rest: &str, verb: &str| -> Result<usize, WireError> {
        let n: usize = rest
            .parse()
            .map_err(|_| err(format!("{verb} needs a count, got {rest:?}")))?;
        if n == 0 || n > MAX_BATCH {
            return Err(err(format!(
                "{verb} count must be 1..={MAX_BATCH}, got {n}"
            )));
        }
        Ok(n)
    };
    match verb {
        "HELLO" => Ok(Verb::Hello(rest.to_owned())),
        "QUERY" if !rest.is_empty() => {
            let (cid, payload) = split_cid(rest)?;
            if payload.is_empty() {
                return Err(err("QUERY needs a request payload".into()));
            }
            Ok(Verb::Query {
                cid,
                payload: payload.to_owned(),
            })
        }
        "PROFILE" if !rest.is_empty() => Ok(Verb::Profile(rest.to_owned())),
        "QUERY" | "PROFILE" => Err(err(format!("{verb} needs a request payload"))),
        "BATCH" => {
            let (n, cid) = match rest.split_once(' ') {
                Some((n, attr)) => {
                    let (cid, tail) = split_cid(attr.trim())?;
                    if !tail.is_empty() || cid.is_none() {
                        return Err(err(format!("unexpected BATCH attribute {attr:?}")));
                    }
                    (n, cid)
                }
                None => (rest, None),
            };
            Ok(Verb::Batch {
                count: count(n, "BATCH")?,
                cid,
            })
        }
        "COMMIT" => Ok(Verb::Commit(count(rest, "COMMIT")?)),
        "METRICS" => Ok(Verb::Metrics),
        "TRACE" => {
            let rid: u64 = rest
                .parse()
                .map_err(|_| err(format!("TRACE needs a request id, got {rest:?}")))?;
            Ok(Verb::Trace(rid))
        }
        "SLOWLOG" => {
            if rest.is_empty() {
                return Ok(Verb::Slowlog(None));
            }
            let n: usize = rest
                .parse()
                .map_err(|_| err(format!("SLOWLOG count must be a number, got {rest:?}")))?;
            Ok(Verb::Slowlog(Some(n)))
        }
        "TOP" => Ok(Verb::Top),
        "REFRESH" => Ok(Verb::Refresh),
        "QUIT" => Ok(Verb::Quit),
        other => Err(err(format!("unknown verb {other:?}"))),
    }
}

fn fmt_measure(v: f64) -> String {
    format!("{v:?}")
}

/// Renders one commit op as a grammar line (no newline).
pub fn op_to_text(op: &DeltaOp) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let record = match op {
        DeltaOp::Insert(rec) => {
            out.push_str("insert");
            rec
        }
        DeltaOp::Update(rid, rec) => {
            let _ = write!(out, "update {rid}");
            rec
        }
    };
    for &(e, m) in record.edges() {
        let _ = write!(out, " {}:{}", e.0, fmt_measure(m));
    }
    out
}

fn parse_record<'a>(toks: impl Iterator<Item = &'a str>) -> Result<GraphRecord, WireError> {
    let err = |what: String| WireError { line: 1, what };
    let mut b = RecordBuilder::new();
    let mut any = false;
    for tok in toks {
        let (e, m) = tok
            .split_once(':')
            .ok_or_else(|| err(format!("op element must be edge:measure, got {tok:?}")))?;
        let edge: u32 = e.parse().map_err(|_| err(format!("bad edge id {e:?}")))?;
        let measure: f64 = m.parse().map_err(|_| err(format!("bad measure {m:?}")))?;
        b.add(graphbi_graph::EdgeId(edge), measure);
        any = true;
    }
    if !any {
        return Err(err("op needs at least one edge:measure element".into()));
    }
    Ok(b.build())
}

/// Parses one commit op line.
pub fn parse_op(line: &str) -> Result<DeltaOp, WireError> {
    let err = |what: String| WireError { line: 1, what };
    let mut toks = line.split_whitespace();
    match toks.next() {
        Some("insert") => Ok(DeltaOp::Insert(parse_record(toks)?)),
        Some("update") => {
            let rid = toks
                .next()
                .ok_or_else(|| err("update needs a record id".into()))?;
            let rid: u32 = rid
                .parse()
                .map_err(|_| err(format!("bad record id {rid:?}")))?;
            Ok(DeltaOp::Update(rid, parse_record(toks)?))
        }
        other => Err(err(format!("unknown op {other:?}"))),
    }
}

/// Renders an `ERR` frame line (no newline).
pub fn render_err(code: ErrorCode, message: &str) -> String {
    format!(
        "ERR {} {} {}",
        code.as_u16(),
        code.symbol(),
        sanitize(message)
    )
}

/// Renders an `ERR` frame line carrying the server-assigned request id as
/// a trailing `id=<rid>` token — the handle a client quotes to `TRACE`
/// the failed request.
pub fn render_err_id(code: ErrorCode, message: &str, rid: u64) -> String {
    format!("{} id={rid}", render_err(code, message))
}

/// Renders a `BUSY` frame line (no newline) — the typed backpressure
/// response.
pub fn render_busy(message: &str) -> String {
    format!("BUSY {} {}", ErrorCode::Busy.as_u16(), sanitize(message))
}

/// Status frames are single lines; fold any newline an error message
/// smuggles in (e.g. from an io::Error) so framing survives.
fn sanitize(message: &str) -> String {
    if message.contains('\n') || message.contains('\r') {
        message.replace(['\n', '\r'], " ")
    } else {
        message.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbi_graph::EdgeId;

    #[test]
    fn verbs_parse() {
        assert_eq!(
            parse_verb("HELLO graphbi/1").unwrap(),
            Verb::Hello("graphbi/1".into())
        );
        assert_eq!(
            parse_verb("QUERY graph views=1 shards=1 : 1").unwrap(),
            Verb::Query {
                cid: None,
                payload: "graph views=1 shards=1 : 1".into()
            }
        );
        assert_eq!(
            parse_verb("QUERY id=42 graph : 1").unwrap(),
            Verb::Query {
                cid: Some(42),
                payload: "graph : 1".into()
            }
        );
        assert_eq!(
            parse_verb("BATCH 3").unwrap(),
            Verb::Batch {
                count: 3,
                cid: None
            }
        );
        assert_eq!(
            parse_verb("BATCH 3 id=7").unwrap(),
            Verb::Batch {
                count: 3,
                cid: Some(7)
            }
        );
        assert_eq!(parse_verb("COMMIT 1\r").unwrap(), Verb::Commit(1));
        assert_eq!(parse_verb("METRICS").unwrap(), Verb::Metrics);
        assert_eq!(parse_verb("TRACE 9").unwrap(), Verb::Trace(9));
        assert_eq!(parse_verb("SLOWLOG").unwrap(), Verb::Slowlog(None));
        assert_eq!(parse_verb("SLOWLOG 5").unwrap(), Verb::Slowlog(Some(5)));
        assert_eq!(parse_verb("TOP").unwrap(), Verb::Top);
        assert_eq!(parse_verb("QUIT").unwrap(), Verb::Quit);
        for bad in [
            "",
            "QUERY",
            "QUERY id=1",
            "QUERY id=x graph : 1",
            "BATCH",
            "BATCH 0",
            "BATCH 99999",
            "BATCH 3 nope",
            "TRACE",
            "TRACE x",
            "SLOWLOG x",
            "NOPE x",
        ] {
            assert!(parse_verb(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn ops_round_trip() {
        let mut b = RecordBuilder::new();
        b.add(EdgeId(3), 1.5).add(EdgeId(1), f64::NAN);
        let ops = [DeltaOp::Insert(b.build()), {
            let mut b = RecordBuilder::new();
            b.add(EdgeId(0), -2.25);
            DeltaOp::Update(7, b.build())
        }];
        for op in &ops {
            let text = op_to_text(op);
            let back = parse_op(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(op_to_text(&back), text);
        }
        for bad in [
            "",
            "insert",
            "update 1",
            "insert 1",
            "insert x:1",
            "frob 1:2",
        ] {
            assert!(parse_op(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn status_frames_are_single_lines() {
        let e = render_err(ErrorCode::Malformed, "bad\nframe");
        assert!(!e.contains('\n'));
        assert!(e.starts_with("ERR 110 MALFORMED"));
        assert_eq!(render_busy("queue full"), "BUSY 210 queue full");
        assert_eq!(
            render_err_id(ErrorCode::NotFound, "no trace", 12),
            "ERR 112 NOT_FOUND no trace id=12"
        );
    }
}
