//! Canonical text serialization of the session API, mirroring
//! [`Universe::to_text`](graphbi_graph::Universe::to_text)'s line-oriented
//! style: [`QueryRequest`] and [`Response`] gain `to_text`/`parse_text`,
//! and this one grammar is shared by the CLI, the `graphbi-serve` wire
//! protocol, the testkit oracle and the docs.
//!
//! Round-trip is lossless *by construction*: the emitters print only
//! canonical forms ([`GraphQuery`] edge lists are already sorted and
//! deduplicated; floats print in Rust's shortest exact representation
//! through [`crate::numtext`], which `f64::from_str` reads back
//! bit-identically, `NaN`/`inf` included), so `parse_text(to_text(x))`
//! rebuilds `x` without a normalization pass. The response parser admits
//! only that canonical layout — one space between tokens, integers
//! without sign or leading zeros, ascending match ids in full chunks, a
//! final newline — so what it accepts re-renders to the bytes it read;
//! the one latitude is inside a measure token, which may be any spelling
//! `f64::from_str` reads.
//!
//! # Grammar
//!
//! A request is one line:
//!
//! ```text
//! graph views=<0|1> shards=<n> : <edge-id>*
//! expr  views=<0|1> shards=<n> : <rpn-token>+
//! agg <FUNC> views=<0|1> shards=<n> : <edge-id>*
//! ```
//!
//! Expression payloads are postfix (RPN): an atom token is the atom's
//! edge-id list joined by `,` (`_` for the empty atom); `AND`, `OR` and
//! `ANDNOT` pop two operands. A response is a block of lines:
//!
//! ```text
//! records n=<rows> edges <edge-id>*      matches n=<bits>     aggregates n=<rows> paths=<p>
//! r <rid> <measure>*                     m <rid>*             r <rid> <value>*
//! ```
//!
//! Blocks are self-delimiting (`n=` announces the row count), so several
//! responses concatenate into one stream — how `BATCH` answers travel.

use std::str::FromStr;

use graphbi_bitmap::BitmapBuilder;
use graphbi_graph::{
    AggFn, EdgeId, GraphQuery, PathAggQuery, PathAggResult, QueryExpr, QueryResult,
};

use crate::engine::EvalOptions;
use crate::numtext::{write_f64, write_u64};
use crate::session::{QueryRequest, RequestKind, Response};

/// Match-id chunking: `matches` blocks print at most this many record ids
/// per `m` line, keeping lines short for log-friendliness.
const MATCH_CHUNK: usize = 512;

/// Most elements a response parser reserves room for on the word of a
/// header's `n=` alone; a larger block grows as its rows arrive.
const MAX_RESERVE: usize = 1 << 16;

/// A wire-grammar violation: which line failed and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Offending line number within the parsed text (1-based).
    pub line: usize,
    /// What was wrong.
    pub what: String,
}

impl WireError {
    fn new(line: usize, what: impl Into<String>) -> WireError {
        WireError {
            line,
            what: what.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire: line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for WireError {}

fn parse_f64(tok: &str, line: usize) -> Result<f64, WireError> {
    f64::from_str(tok).map_err(|_| WireError::new(line, format!("bad float {tok:?}")))
}

/// Parses a canonical unsigned decimal: digits only, no leading zero.
fn parse_uint<T: TryFrom<u64>>(tok: &str) -> Option<T> {
    let digits = tok.as_bytes();
    if digits.is_empty() || (digits[0] == b'0' && digits.len() > 1) {
        return None;
    }
    let mut v = 0u64;
    for &c in digits {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u64::from(d))?;
    }
    T::try_from(v).ok()
}

fn parse_edge(tok: &str, line: usize) -> Result<EdgeId, WireError> {
    parse_uint(tok)
        .map(EdgeId)
        .ok_or_else(|| WireError::new(line, format!("bad edge id {tok:?}")))
}

/// Parses a `key=value` token, insisting on the expected key — the
/// grammar is canonical, so field order is fixed and every field present.
fn parse_kv<'a>(tok: Option<&'a str>, key: &str, line: usize) -> Result<&'a str, WireError> {
    let tok = tok.ok_or_else(|| WireError::new(line, format!("missing {key}=")))?;
    tok.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| WireError::new(line, format!("expected {key}=…, got {tok:?}")))
}

fn parse_usize(tok: &str, line: usize) -> Result<usize, WireError> {
    parse_uint(tok).ok_or_else(|| WireError::new(line, format!("bad count {tok:?}")))
}

fn atom_token(q: &GraphQuery) -> String {
    if q.edges().is_empty() {
        "_".to_owned()
    } else {
        let ids: Vec<String> = q.edges().iter().map(|e| e.0.to_string()).collect();
        ids.join(",")
    }
}

fn parse_atom(tok: &str, line: usize) -> Result<GraphQuery, WireError> {
    if tok == "_" {
        return Ok(GraphQuery::from_edges(vec![]));
    }
    let mut edges = Vec::new();
    for part in tok.split(',') {
        edges.push(parse_edge(part, line)?);
    }
    Ok(GraphQuery::from_edges(edges))
}

fn expr_rpn(e: &QueryExpr, out: &mut Vec<String>) {
    match e {
        QueryExpr::Atom(q) => out.push(atom_token(q)),
        QueryExpr::And(a, b) => {
            expr_rpn(a, out);
            expr_rpn(b, out);
            out.push("AND".to_owned());
        }
        QueryExpr::Or(a, b) => {
            expr_rpn(a, out);
            expr_rpn(b, out);
            out.push("OR".to_owned());
        }
        QueryExpr::AndNot(a, b) => {
            expr_rpn(a, out);
            expr_rpn(b, out);
            out.push("ANDNOT".to_owned());
        }
    }
}

fn parse_rpn<'a>(
    tokens: impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<QueryExpr, WireError> {
    let mut stack: Vec<QueryExpr> = Vec::new();
    for tok in tokens {
        match tok {
            "AND" | "OR" | "ANDNOT" => {
                let b = stack
                    .pop()
                    .ok_or_else(|| WireError::new(line, format!("{tok} needs two operands")))?;
                let a = stack
                    .pop()
                    .ok_or_else(|| WireError::new(line, format!("{tok} needs two operands")))?;
                stack.push(match tok {
                    "AND" => QueryExpr::and(a, b),
                    "OR" => QueryExpr::or(a, b),
                    _ => QueryExpr::and_not(a, b),
                });
            }
            atom => stack.push(QueryExpr::Atom(parse_atom(atom, line)?)),
        }
    }
    match (stack.pop(), stack.is_empty()) {
        (Some(e), true) => Ok(e),
        (Some(_), false) => Err(WireError::new(line, "unused expression operands")),
        (None, _) => Err(WireError::new(line, "empty expression")),
    }
}

fn parse_agg_fn(tok: &str, line: usize) -> Result<AggFn, WireError> {
    match tok {
        "SUM" => Ok(AggFn::Sum),
        "MIN" => Ok(AggFn::Min),
        "MAX" => Ok(AggFn::Max),
        "COUNT" => Ok(AggFn::Count),
        "AVG" => Ok(AggFn::Avg),
        _ => Err(WireError::new(line, format!("unknown aggregate {tok:?}"))),
    }
}

impl QueryRequest {
    /// Renders the request as one canonical grammar line (no newline).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let knobs = format!(
            "views={} shards={}",
            u8::from(self.options.use_views),
            self.shards
        );
        let mut out = String::new();
        match &self.kind {
            RequestKind::Graph(q) => {
                let _ = write!(out, "graph {knobs} :");
                for e in q.edges() {
                    let _ = write!(out, " {}", e.0);
                }
            }
            RequestKind::Expr(e) => {
                let mut tokens = Vec::new();
                expr_rpn(e, &mut tokens);
                let _ = write!(out, "expr {knobs} : {}", tokens.join(" "));
            }
            RequestKind::Aggregate(p) => {
                let _ = write!(out, "agg {} {knobs} :", p.func.name());
                for e in p.query.edges() {
                    let _ = write!(out, " {}", e.0);
                }
            }
        }
        out
    }

    /// Parses one grammar line back into a request.
    pub fn parse_text(text: &str) -> Result<QueryRequest, WireError> {
        let line = 1;
        let mut toks = text.split_whitespace();
        let verb = toks
            .next()
            .ok_or_else(|| WireError::new(line, "empty request"))?;
        let func = if verb == "agg" {
            Some(parse_agg_fn(
                toks.next()
                    .ok_or_else(|| WireError::new(line, "agg needs a function"))?,
                line,
            )?)
        } else {
            None
        };
        let views = match parse_kv(toks.next(), "views", line)? {
            "0" => false,
            "1" => true,
            other => {
                return Err(WireError::new(
                    line,
                    format!("views must be 0|1, got {other:?}"),
                ))
            }
        };
        let shards = parse_usize(parse_kv(toks.next(), "shards", line)?, line)?;
        match toks.next() {
            Some(":") => {}
            other => return Err(WireError::new(line, format!("expected ':', got {other:?}"))),
        }
        let kind = match verb {
            "graph" => {
                let mut edges = Vec::new();
                for tok in toks {
                    edges.push(parse_edge(tok, line)?);
                }
                RequestKind::Graph(GraphQuery::from_edges(edges))
            }
            "expr" => RequestKind::Expr(parse_rpn(toks, line)?),
            "agg" => {
                let mut edges = Vec::new();
                for tok in toks {
                    edges.push(parse_edge(tok, line)?);
                }
                RequestKind::Aggregate(PathAggQuery::new(
                    GraphQuery::from_edges(edges),
                    func.expect("agg verb parsed a function"),
                ))
            }
            other => return Err(WireError::new(line, format!("unknown verb {other:?}"))),
        };
        let options = if views {
            EvalOptions::default()
        } else {
            EvalOptions::oblivious()
        };
        Ok(QueryRequest::of(kind).opts(options).shards(shards))
    }
}

/// Appends one `r <rid> <value>*` line per record.
fn write_rows<'a>(out: &mut Vec<u8>, records: &[u32], row: impl Fn(usize) -> &'a [f64]) {
    for (i, &rid) in records.iter().enumerate() {
        out.extend_from_slice(b"r ");
        write_u64(out, u64::from(rid));
        for &v in row(i) {
            out.push(b' ');
            write_f64(out, v);
        }
        out.push(b'\n');
    }
}

impl Response {
    /// Appends the response as a self-delimiting block of grammar lines
    /// (trailing newline included) — the one renderer behind
    /// [`Response::to_text`] and every served reply.
    pub fn write_text(&self, out: &mut Vec<u8>) {
        match self {
            Response::Records(r) => {
                out.extend_from_slice(b"records n=");
                write_u64(out, r.records.len() as u64);
                out.extend_from_slice(b" edges");
                for e in &r.edges {
                    out.push(b' ');
                    write_u64(out, u64::from(e.0));
                }
                out.push(b'\n');
                write_rows(out, &r.records, |i| r.row(i));
            }
            Response::Matches(b) => {
                out.extend_from_slice(b"matches n=");
                write_u64(out, b.len());
                out.push(b'\n');
                let mut in_line = 0;
                for id in b.iter() {
                    if in_line == 0 {
                        out.push(b'm');
                    }
                    out.push(b' ');
                    write_u64(out, u64::from(id));
                    in_line += 1;
                    if in_line == MATCH_CHUNK {
                        out.push(b'\n');
                        in_line = 0;
                    }
                }
                if in_line != 0 {
                    out.push(b'\n');
                }
            }
            Response::Aggregates(r) => {
                out.extend_from_slice(b"aggregates n=");
                write_u64(out, r.records.len() as u64);
                out.extend_from_slice(b" paths=");
                write_u64(out, r.path_count as u64);
                out.push(b'\n');
                write_rows(out, &r.records, |i| r.row(i));
            }
        }
    }

    /// Renders the response as a self-delimiting block of grammar lines
    /// (trailing newline included).
    pub fn to_text(&self) -> String {
        let mut out = Vec::new();
        self.write_text(&mut out);
        String::from_utf8(out).expect("wire text is ASCII")
    }

    /// Number of grammar lines [`Response::to_text`] produces — what a
    /// framed protocol announces before the block.
    pub fn line_count(&self) -> usize {
        match self {
            Response::Records(r) => 1 + r.records.len(),
            Response::Matches(b) => {
                1 + (usize::try_from(b.len()).unwrap_or(usize::MAX)).div_ceil(MATCH_CHUNK)
            }
            Response::Aggregates(r) => 1 + r.records.len(),
        }
    }

    /// Parses exactly one response block; the text must contain nothing
    /// else.
    pub fn parse_text(text: &str) -> Result<Response, WireError> {
        let mut lines = text.split_terminator('\n');
        let mut lineno = 0usize;
        let resp = Response::read_block(&mut lines, &mut lineno)?;
        if let Some(extra) = lines.next() {
            return Err(WireError::new(
                lineno + 1,
                format!("trailing content {extra:?}"),
            ));
        }
        if !text.ends_with('\n') {
            return Err(WireError::new(lineno, "missing final newline"));
        }
        Ok(resp)
    }

    /// Reads one self-delimiting response block from a line stream,
    /// leaving the stream positioned after it — `BATCH` answers are
    /// parsed by calling this once per request. `lineno` counts consumed
    /// lines for error reporting. Lines are walked byte-wise: tokens are
    /// what single spaces separate, so a doubled or trailing space leaves
    /// an empty token that no field accepts.
    pub fn read_block<'a, I>(lines: &mut I, lineno: &mut usize) -> Result<Response, WireError>
    where
        I: Iterator<Item = &'a str>,
    {
        let head = next_line(lines, lineno, "expected response header")?;
        let head_no = *lineno;
        let mut toks = head.split(' ');
        match toks.next().unwrap_or_default() {
            "records" => {
                let n = parse_usize(parse_kv(toks.next(), "n", head_no)?, head_no)?;
                match toks.next() {
                    Some("edges") => {}
                    other => {
                        return Err(WireError::new(
                            head_no,
                            format!("expected 'edges', got {other:?}"),
                        ))
                    }
                }
                let edges = toks
                    .map(|tok| parse_edge(tok, head_no))
                    .collect::<Result<Vec<EdgeId>, WireError>>()?;
                let (records, measures) = read_rows(lines, lineno, n, edges.len())?;
                Ok(Response::Records(QueryResult {
                    records,
                    edges,
                    measures,
                }))
            }
            "matches" => {
                let n = parse_usize(parse_kv(toks.next(), "n", head_no)?, head_no)?;
                end_of_header(toks, head_no)?;
                // Ids must ascend strictly, which is what lets the bitmap
                // be built by appending.
                let mut ids = BitmapBuilder::new();
                let mut last: Option<u32> = None;
                let mut got = 0usize;
                while got < n {
                    let row = next_line(lines, lineno, "expected 'm' row")?;
                    let mut row_toks = row.split(' ');
                    if row_toks.next() != Some("m") {
                        return Err(WireError::new(*lineno, "expected 'm' row"));
                    }
                    let want = (n - got).min(MATCH_CHUNK);
                    let before = got;
                    for tok in row_toks {
                        let id: u32 = parse_uint(tok).ok_or_else(|| {
                            WireError::new(*lineno, format!("bad record id {tok:?}"))
                        })?;
                        if last.is_some_and(|l| l >= id) {
                            return Err(WireError::new(
                                *lineno,
                                format!("record id {id} does not ascend"),
                            ));
                        }
                        last = Some(id);
                        ids.push(id);
                        got += 1;
                    }
                    if got - before != want {
                        return Err(WireError::new(
                            *lineno,
                            format!("'m' row holds {} ids, expected {want}", got - before),
                        ));
                    }
                }
                Ok(Response::Matches(ids.finish()))
            }
            "aggregates" => {
                let n = parse_usize(parse_kv(toks.next(), "n", head_no)?, head_no)?;
                let paths = parse_usize(parse_kv(toks.next(), "paths", head_no)?, head_no)?;
                end_of_header(toks, head_no)?;
                let (records, values) = read_rows(lines, lineno, n, paths)?;
                Ok(Response::Aggregates(PathAggResult {
                    records,
                    path_count: paths,
                    values,
                }))
            }
            other => Err(WireError::new(
                head_no,
                format!("unknown response header {other:?}"),
            )),
        }
    }
}

/// Insists that a header has no tokens left.
fn end_of_header<'a>(
    mut toks: impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<(), WireError> {
    match toks.next() {
        None => Ok(()),
        Some(extra) => Err(WireError::new(line, format!("trailing token {extra:?}"))),
    }
}

/// Consumes one line from the stream, bumping the line counter.
fn next_line<'a, I>(lines: &mut I, lineno: &mut usize, what: &str) -> Result<&'a str, WireError>
where
    I: Iterator<Item = &'a str>,
{
    *lineno += 1;
    lines
        .next()
        .ok_or_else(|| WireError::new(*lineno, format!("unexpected end of block: {what}")))
}

/// Reads `n` rows of `r <rid>` followed by exactly `width` floats,
/// returning the record ids and the row-major values. The header's counts
/// are untrusted: they bound the reservation, never set it.
fn read_rows<'a, I>(
    lines: &mut I,
    lineno: &mut usize,
    n: usize,
    width: usize,
) -> Result<(Vec<u32>, Vec<f64>), WireError>
where
    I: Iterator<Item = &'a str>,
{
    let cells = n
        .checked_mul(width)
        .ok_or_else(|| WireError::new(*lineno, format!("{n} rows of {width} overflow")))?;
    let mut records = Vec::with_capacity(n.min(MAX_RESERVE));
    let mut values = Vec::with_capacity(cells.min(MAX_RESERVE));
    for _ in 0..n {
        let row = next_line(lines, lineno, "expected 'r' row")?;
        let mut toks = row.split(' ');
        if toks.next() != Some("r") {
            return Err(WireError::new(*lineno, "expected \"r\" row"));
        }
        let rid = toks
            .next()
            .and_then(parse_uint)
            .ok_or_else(|| WireError::new(*lineno, "bad record id"))?;
        let before = values.len();
        for tok in toks {
            values.push(parse_f64(tok, *lineno)?);
        }
        if values.len() - before != width {
            return Err(WireError::new(
                *lineno,
                format!(
                    "row holds {} values, expected {width}",
                    values.len() - before
                ),
            ));
        }
        records.push(rid);
    }
    Ok((records, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::QueryRequest;
    use graphbi_bitmap::Bitmap;

    fn q(ids: &[u32]) -> GraphQuery {
        GraphQuery::from_edges(ids.iter().map(|&i| EdgeId(i)).collect())
    }

    #[test]
    fn request_round_trips_every_kind() {
        let reqs = vec![
            QueryRequest::new(q(&[3, 1, 2])),
            QueryRequest::new(q(&[])).oblivious().shards(8),
            QueryRequest::expr(QueryExpr::and_not(
                QueryExpr::or(QueryExpr::Atom(q(&[1, 2])), QueryExpr::Atom(q(&[]))),
                QueryExpr::Atom(q(&[7])),
            ))
            .shards(4),
            QueryRequest::aggregate(PathAggQuery::new(q(&[5, 6]), AggFn::Avg)).oblivious(),
        ];
        for r in reqs {
            let text = r.to_text();
            let back = QueryRequest::parse_text(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, r, "{text}");
            assert_eq!(back.to_text(), text, "re-render must be stable");
        }
    }

    #[test]
    fn request_grammar_examples_are_stable() {
        assert_eq!(
            QueryRequest::new(q(&[2, 1])).to_text(),
            "graph views=1 shards=1 : 1 2"
        );
        assert_eq!(
            QueryRequest::expr(QueryExpr::Atom(q(&[]))).to_text(),
            "expr views=1 shards=1 : _"
        );
        assert_eq!(
            QueryRequest::aggregate(PathAggQuery::new(q(&[1]), AggFn::Sum))
                .oblivious()
                .shards(2)
                .to_text(),
            "agg SUM views=0 shards=2 : 1"
        );
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for bad in [
            "",
            "graph",
            "graph views=2 shards=1 :",
            "graph views=1 shards=x :",
            "graph views=1 shards=1",
            "graph views=1 shards=1 : nope",
            "expr views=1 shards=1 :",
            "expr views=1 shards=1 : 1 2 AND AND",
            "expr views=1 shards=1 : 1 2",
            "agg FROB views=1 shards=1 : 1",
            "frob views=1 shards=1 :",
        ] {
            assert!(QueryRequest::parse_text(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn response_round_trips_including_nan_and_inf() {
        let resps = vec![
            Response::Records(QueryResult {
                records: vec![0, 3],
                edges: vec![EdgeId(1), EdgeId(4)],
                measures: vec![1.5, f64::NAN, f64::INFINITY, -0.0],
            }),
            Response::Records(QueryResult {
                records: vec![],
                edges: vec![],
                measures: vec![],
            }),
            Response::Matches((0..1300u32).collect()),
            Response::Matches(Bitmap::new()),
            Response::Aggregates(PathAggResult {
                records: vec![7],
                path_count: 2,
                values: vec![f64::NEG_INFINITY, 1e300],
            }),
        ];
        for r in resps {
            let text = r.to_text();
            assert_eq!(text.lines().count(), r.line_count(), "{text}");
            let back = Response::parse_text(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            // NaN breaks value equality; canonical text equality is the
            // lossless-by-construction check.
            assert_eq!(back.to_text(), text);
        }
    }

    #[test]
    fn response_blocks_self_delimit() {
        let a = Response::Matches((0..5u32).collect());
        let b = Response::Records(QueryResult {
            records: vec![1],
            edges: vec![EdgeId(0)],
            measures: vec![2.25],
        });
        let mut stream = Vec::new();
        a.write_text(&mut stream);
        b.write_text(&mut stream);
        let stream = String::from_utf8(stream).unwrap();
        let mut lines = stream.lines();
        let mut lineno = 0;
        let got_a = Response::read_block(&mut lines, &mut lineno).unwrap();
        let got_b = Response::read_block(&mut lines, &mut lineno).unwrap();
        assert_eq!(got_a.to_text(), a.to_text());
        assert_eq!(got_b.to_text(), b.to_text());
        assert!(lines.next().is_none());
    }

    #[test]
    fn malformed_responses_are_typed_errors() {
        for bad in [
            "",
            "records n=1 edges 0\n",
            "records n=1 edges 0\nr 1\n",
            "records n=1 edges 0\nr 1 2.0 3.0\n",
            "matches n=3\nm 1 2\n",
            "matches n=1\nz 1\n",
            "aggregates n=1 paths=1\nr x 1.0\n",
            "records n=0 edges\nextra\n",
            // Hostile counts: a typed error, not a capacity-overflow abort.
            "records n=18446744073709551615 edges 0\n",
            "records n=18446744073709551615 edges 0 1\nr 1 1.0 2.0\n",
            "aggregates n=2 paths=18446744073709551615\nr 1 1.0\n",
            "aggregates n=18446744073709551615 paths=18446744073709551615\n",
            "matches n=18446744073709551615\nm 1 2\n",
            // Non-canonical text the value would not re-render to.
            "matches n=3\nm 3 1 1\n",
            "matches n=2\nm 2 1\n",
            "matches n=2\nm 1 1\n",
            "matches n=2\nm 1\nm 2\n",
            "matches n=2\nm 1  2\n",
            "matches n=2\nm 01 2\n",
            "matches n=+2\nm 1 2\n",
            "matches n=2\nm 1 2 \n",
            "matches n=2\nm 1 2\r\n",
            "matches n=2\nm 1 2",
            "records n=1 edges  0\nr 1 2.0\n",
            "records n=1 edges 0\nr 1  2.0\n",
        ] {
            assert!(Response::parse_text(bad).is_err(), "{bad:?}");
        }
    }
}
