//! Property tests for the wire grammar and frame parsing.
//!
//! Round-trips are checked *by construction*: rendering any value and
//! parsing it back yields a value that renders identically (text-level
//! equality also covers `NaN`, which breaks `PartialEq`). Malformed
//! input of any shape must be rejected with a typed error — never a
//! panic, never a silent misparse — and whatever the response parser does
//! admit must render back to the bytes it read.

use graphbi::{
    AggFn, Bitmap, EdgeId, EvalOptions, GraphQuery, PathAggQuery, PathAggResult, QueryExpr,
    QueryRequest, QueryResult, Response,
};
use graphbi_columnstore::DeltaOp;
use graphbi_graph::RecordBuilder;
use graphbi_serve::protocol::{self, Verb};
use proptest::prelude::*;

fn edges() -> impl Strategy<Value = Vec<EdgeId>> {
    prop::collection::vec((0u32..200).prop_map(EdgeId), 1..8)
}

fn graph_query() -> impl Strategy<Value = GraphQuery> {
    edges().prop_map(GraphQuery::from_edges)
}

fn query_expr() -> impl Strategy<Value = QueryExpr> {
    // Depth ≤ 2 keeps generation cheap while covering every operator and
    // nesting on both sides.
    let atom = || graph_query().prop_map(QueryExpr::Atom).boxed();
    prop_oneof![
        atom(),
        (atom(), atom(), 0u8..3).prop_map(|(a, b, op)| combine(op, a, b)),
        ((atom(), atom(), 0u8..3), atom(), 0u8..3).prop_map(|((a, b, op1), c, op2)| combine(
            op2,
            combine(op1, a, b),
            c
        )),
    ]
}

fn combine(op: u8, a: QueryExpr, b: QueryExpr) -> QueryExpr {
    match op {
        0 => QueryExpr::and(a, b),
        1 => QueryExpr::or(a, b),
        _ => QueryExpr::and_not(a, b),
    }
}

fn agg_fn() -> impl Strategy<Value = AggFn> {
    prop_oneof![
        Just(AggFn::Sum),
        Just(AggFn::Min),
        Just(AggFn::Max),
        Just(AggFn::Avg),
        Just(AggFn::Count),
    ]
}

fn request() -> impl Strategy<Value = QueryRequest> {
    let kind = prop_oneof![
        graph_query().prop_map(QueryRequest::new).boxed(),
        query_expr().prop_map(QueryRequest::expr).boxed(),
        (graph_query(), agg_fn())
            .prop_map(|(q, f)| QueryRequest::aggregate(PathAggQuery::new(q, f)))
            .boxed(),
    ];
    (kind, any::<bool>(), 0usize..9).prop_map(|(req, views, shards)| {
        let options = if views {
            EvalOptions::default()
        } else {
            EvalOptions::oblivious()
        };
        req.opts(options).shards(shards)
    })
}

/// Measures including the floats that usually break text round-trips.
fn measure() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e12..1.0e12f64,
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(1.0 / 3.0),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    let records = (edges(), 0usize..6).prop_flat_map(|(edges, n)| {
        let width = edges.len();
        (
            Just(edges),
            prop::collection::vec(0u32..100_000, n..n + 1),
            prop::collection::vec(measure(), n * width..n * width + 1),
        )
            .prop_map(|(edges, records, measures)| {
                Response::Records(QueryResult {
                    records,
                    edges,
                    measures,
                })
            })
    });
    // Cross the 512-id chunk boundary so multi-chunk framing is exercised.
    let matches = prop::collection::vec(0u32..2_000_000, 0..1400)
        .prop_map(|ids| Response::Matches(ids.into_iter().collect::<Bitmap>()));
    let aggregates = (1usize..5, 0usize..6).prop_flat_map(|(paths, n)| {
        (
            Just(paths),
            prop::collection::vec(0u32..100_000, n..n + 1),
            prop::collection::vec(measure(), n * paths..n * paths + 1),
        )
            .prop_map(|(path_count, records, values)| {
                Response::Aggregates(PathAggResult {
                    records,
                    path_count,
                    values,
                })
            })
    });
    prop_oneof![records, matches, aggregates]
}

/// True when byte `pos` of a rendered block lies in the measure columns
/// of an `r` row — past the row's second space.
fn in_measures(text: &str, pos: usize) -> bool {
    let start = text[..pos].rfind('\n').map_or(0, |i| i + 1);
    let row = &text[start..];
    row.starts_with("r ") && row[2..].find(' ').is_some_and(|i| pos - start > 2 + i)
}

/// A damaged block must be rejected, or parse to a value that renders to
/// exactly the bytes parsed: the parser admits nothing the renderer would
/// not write. A measure token may be any spelling `f64::from_str` reads,
/// so damage there (`lenient`) need only yield a stable round-trip.
fn rejects_or_rerenders(damaged: &str, lenient: bool) -> Result<(), TestCaseError> {
    if let Ok(back) = Response::parse_text(damaged) {
        let again = back.to_text();
        if lenient {
            let twice = Response::parse_text(&again).map(|r| r.to_text());
            prop_assert_eq!(twice.as_deref(), Ok(again.as_str()), "from {:?}", damaged);
        } else {
            prop_assert_eq!(again, damaged);
        }
    }
    Ok(())
}

fn record() -> impl Strategy<Value = graphbi_graph::GraphRecord> {
    prop::collection::vec(((0u32..200).prop_map(EdgeId), measure()), 1..8).prop_map(|pairs| {
        let mut b = RecordBuilder::new();
        for (e, m) in pairs {
            b.add(e, m);
        }
        b.build()
    })
}

fn delta_op() -> impl Strategy<Value = DeltaOp> {
    prop_oneof![
        record().prop_map(DeltaOp::Insert),
        (0u32..100_000, record()).prop_map(|(rid, r)| DeltaOp::Update(rid, r)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_round_trips(req in request()) {
        let text = req.to_text();
        prop_assert!(!text.contains('\n'), "requests are single lines: {text:?}");
        let back = QueryRequest::parse_text(&text)
            .unwrap_or_else(|e| panic!("{text:?}: {e}"));
        prop_assert_eq!(back.to_text(), text);
        // The canonical fields survive exactly (kinds have PartialEq).
        prop_assert_eq!(back.options.use_views, req.options.use_views);
        prop_assert_eq!(back.shards, req.shards);
    }

    #[test]
    fn response_round_trips(resp in response()) {
        let text = resp.to_text();
        let back = Response::parse_text(&text)
            .unwrap_or_else(|e| panic!("{text:?}: {e}"));
        prop_assert_eq!(back.to_text(), text.clone());
        prop_assert_eq!(back.line_count(), text.lines().count());
    }

    #[test]
    fn response_blocks_self_delimit(a in response(), b in response()) {
        let text = format!("{}{}", a.to_text(), b.to_text());
        let mut lines = text.split_terminator('\n');
        let mut lineno = 0usize;
        let first = Response::read_block(&mut lines, &mut lineno).expect("first block");
        let second = Response::read_block(&mut lines, &mut lineno).expect("second block");
        prop_assert_eq!(first.to_text(), a.to_text());
        prop_assert_eq!(second.to_text(), b.to_text());
        prop_assert!(lines.next().is_none(), "stream fully consumed");
    }

    #[test]
    fn commit_ops_round_trip(op in delta_op()) {
        let text = protocol::op_to_text(&op);
        prop_assert!(!text.contains('\n'));
        let back = protocol::parse_op(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        prop_assert_eq!(protocol::op_to_text(&back), text);
    }

    /// Arbitrary garbage never panics any parser: it is either rejected
    /// with a typed error or (for the self-describing verbs) parsed into
    /// a value that round-trips.
    #[test]
    fn malformed_frames_reject_cleanly(line in "[ -~]{0,120}") {
        if let Ok(req) = QueryRequest::parse_text(&line) {
            // Accepting is fine only if the parse is canonical-faithful.
            prop_assert_eq!(QueryRequest::parse_text(&req.to_text()).unwrap().to_text(),
                            req.to_text());
        }
        let _ = Response::parse_text(&line);
        let _ = protocol::parse_op(&line);
        match protocol::parse_verb(&line) {
            Ok(Verb::Batch { count: n, .. }) | Ok(Verb::Commit(n)) => {
                prop_assert!((1..=protocol::MAX_BATCH).contains(&n));
            }
            _ => {}
        }
    }

    /// The introspection verbs and client correlation ids parse back to
    /// exactly the values that were rendered.
    #[test]
    fn introspection_verbs_round_trip(rid in any::<u64>(), n in 0usize..10_000) {
        match protocol::parse_verb(&format!("TRACE {rid}")) {
            Ok(Verb::Trace(t)) => prop_assert_eq!(t, rid),
            other => prop_assert!(false, "TRACE {} parsed as {:?}", rid, other),
        }
        match protocol::parse_verb(&format!("SLOWLOG {n}")) {
            Ok(Verb::Slowlog(Some(k))) => prop_assert_eq!(k, n),
            other => prop_assert!(false, "SLOWLOG {} parsed as {:?}", n, other),
        }
        prop_assert!(matches!(protocol::parse_verb("SLOWLOG"), Ok(Verb::Slowlog(None))));
        prop_assert!(matches!(protocol::parse_verb("TOP"), Ok(Verb::Top)));
    }

    /// `id=<n>` on QUERY and BATCH is stripped into the parsed verb and
    /// never leaks into the payload.
    #[test]
    fn correlation_ids_round_trip(cid in any::<u64>(), req in request(), k in 1usize..=protocol::MAX_BATCH) {
        let payload = req.to_text();
        match protocol::parse_verb(&format!("QUERY id={cid} {payload}")) {
            Ok(Verb::Query { cid: Some(c), payload: p }) => {
                prop_assert_eq!(c, cid);
                prop_assert_eq!(p, payload.clone());
            }
            other => prop_assert!(false, "parsed as {:?}", other),
        }
        match protocol::parse_verb(&format!("QUERY {payload}")) {
            Ok(Verb::Query { cid: None, payload: p }) => prop_assert_eq!(p, payload.clone()),
            other => prop_assert!(false, "parsed as {:?}", other),
        }
        match protocol::parse_verb(&format!("BATCH {k} id={cid}")) {
            Ok(Verb::Batch { count, cid: Some(c) }) => {
                prop_assert_eq!(count, k);
                prop_assert_eq!(c, cid);
            }
            other => prop_assert!(false, "parsed as {:?}", other),
        }
    }

    /// Truncating a response block anywhere must fail loudly, not return
    /// a shorter answer.
    #[test]
    fn truncated_responses_reject(resp in response(), cut in 0usize..6) {
        let text = resp.to_text();
        let total = text.lines().count();
        if total > 1 && cut < total {
            let kept: Vec<&str> = text.lines().take(total - 1 - cut % (total - 1)).collect();
            let truncated = kept.join("\n");
            if !truncated.is_empty() {
                prop_assert!(Response::parse_text(&truncated).is_err());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every truncation and single-byte corruption of a rendered block is
    /// rejected or re-renders to itself — never a panic, never a
    /// different answer under the same bytes. Long blocks are sampled at
    /// a stride, short ones damaged at every byte.
    #[test]
    fn damaged_blocks_reject_or_rerender(resp in response(), salt in any::<u8>()) {
        let text = resp.to_text();
        let stride = text.len() / 128 + 1;
        for pos in (usize::from(salt) % stride..text.len()).step_by(stride) {
            prop_assert!(Response::parse_text(&text[..pos]).is_err(), "cut at {}", pos);
            let lenient = in_measures(&text, pos);
            for byte in [b' ', b'\n', b'\r', b'0', b'1', b'9', b'-', b'+', b'.', b'e', b'r', salt & 0x7f] {
                if byte != text.as_bytes()[pos] {
                    let mut damaged = text.clone().into_bytes();
                    damaged[pos] = byte;
                    let damaged = String::from_utf8(damaged).expect("ASCII stays UTF-8");
                    rejects_or_rerenders(&damaged, lenient)?;
                }
            }
        }
    }
}
