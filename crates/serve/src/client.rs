//! A blocking client for the wire protocol.
//!
//! `Client::connect` performs the `HELLO` handshake and caches the
//! served [`Universe`], so QL statements can be compiled locally with
//! [`Client::query_ql`] and commit ops can name edges symbolically.
//! Every method sends one verb frame — built whole, written once — and
//! parses exactly one status frame; `BUSY` and `ERR` surface as typed
//! [`ClientError`] variants carrying the server's stable [`ErrorCode`]
//! number. A reply body is read into one reused buffer and parsed in
//! place.

use std::fmt::{self, Write as _};
use std::io::{self, BufRead, BufReader, Write as _};
use std::net::{TcpStream, ToSocketAddrs};

use graphbi::{QueryRequest, Response, WireError};
use graphbi_columnstore::DeltaOp;
use graphbi_graph::Universe;

use crate::protocol::{self, PROTOCOL_VERSION};

/// What went wrong talking to a server.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server answered something the protocol does not allow.
    Protocol(String),
    /// The server refused admission (backpressure) — retry later.
    Busy { code: u16, message: String },
    /// The server answered a typed error frame.
    Remote {
        code: u16,
        symbol: String,
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Busy { code, message } => write!(f, "busy ({code}): {message}"),
            ClientError::Remote {
                code,
                symbol,
                message,
            } => write!(f, "server error {code} {symbol}: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Protocol(e.to_string())
    }
}

/// A parsed `OK` head: its `k=v` fields.
struct OkHead {
    generation: Option<u64>,
    epoch: Option<u64>,
    count: Option<usize>,
    lines: usize,
    /// The server-assigned request id (`id=<rid>`), usable with `TRACE`.
    id: Option<u64>,
}

/// Socket read buffer: a 150 KB reply body arrives in three reads.
const READ_BUF_BYTES: usize = 64 << 10;

/// One connection to a `graphbi` server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The request frame under assembly; leaves in one `write_all`.
    frame: String,
    /// The reply being read — a status line, then a body — reused from
    /// one call to the next.
    reply: Vec<u8>,
    universe: Universe,
    generation: u64,
    epoch: u64,
    last_rid: Option<u64>,
}

fn as_text(bytes: &[u8]) -> Result<&str, ClientError> {
    std::str::from_utf8(bytes).map_err(|_| ClientError::Protocol("reply is not UTF-8".into()))
}

impl Client {
    /// Connects and completes the `HELLO` handshake, caching the served
    /// universe and the session's pinned `(generation, epoch)`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = Client {
            reader: BufReader::with_capacity(READ_BUF_BYTES, stream.try_clone()?),
            writer: stream,
            frame: String::new(),
            reply: Vec::new(),
            universe: Universe::default(),
            generation: 0,
            epoch: 0,
            last_rid: None,
        };
        let head = client.request(format_args!("HELLO {PROTOCOL_VERSION}"))?;
        client.universe = Universe::parse_text(client.read_body(head.lines)?)
            .map_err(|e| ClientError::Protocol(format!("bad universe in HELLO reply: {e}")))?;
        client.note_pin(&head);
        Ok(client)
    }

    /// The universe this server serves (cached from `HELLO`).
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The session's pinned generation (meaningful on MVCC backends).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The session's pinned epoch (meaningful on MVCC backends).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The server-assigned id of the most recent request (from the reply
    /// head's `id=` field). Pass it to [`Client::trace`] to replay the
    /// request's captured profile — errors and slow requests are always
    /// captured, other requests only when head-sampled.
    pub fn last_request_id(&self) -> Option<u64> {
        self.last_rid
    }

    fn note_pin(&mut self, head: &OkHead) {
        if let Some(g) = head.generation {
            self.generation = g;
        }
        if let Some(e) = head.epoch {
            self.epoch = e;
        }
    }

    /// Appends one `\n`-terminated line to `self.reply`.
    fn read_line(&mut self) -> Result<(), ClientError> {
        self.reader.read_until(b'\n', &mut self.reply)?;
        if self.reply.last() != Some(&b'\n') {
            return Err(ClientError::Protocol(
                "connection closed mid-response".into(),
            ));
        }
        Ok(())
    }

    /// Sends the frame assembled in `self.frame` in one write, then reads
    /// the one status frame that answers it.
    fn exchange(&mut self) -> Result<OkHead, ClientError> {
        self.writer.write_all(self.frame.as_bytes())?;
        self.reply.clear();
        self.read_line()?;
        let reply = std::mem::take(&mut self.reply);
        let head = as_text(&reply).and_then(|line| self.parse_head(line.trim_end()));
        self.reply = reply;
        head
    }

    /// Parses one status frame; `OK` parses into a head, `ERR`/`BUSY`
    /// become typed errors.
    fn parse_head(&mut self, line: &str) -> Result<OkHead, ClientError> {
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some("OK") => {
                let mut head = OkHead {
                    generation: None,
                    epoch: None,
                    count: None,
                    lines: 0,
                    id: None,
                };
                let mut saw_lines = false;
                for tok in toks {
                    let Some((k, v)) = tok.split_once('=') else {
                        // Bare token — the version echo in the HELLO reply.
                        continue;
                    };
                    let bad =
                        || ClientError::Protocol(format!("bad head field {tok:?} in {line:?}"));
                    match k {
                        "generation" => head.generation = Some(v.parse().map_err(|_| bad())?),
                        "epoch" => head.epoch = Some(v.parse().map_err(|_| bad())?),
                        "count" => head.count = Some(v.parse().map_err(|_| bad())?),
                        "id" => head.id = Some(v.parse().map_err(|_| bad())?),
                        "lines" => {
                            head.lines = v.parse().map_err(|_| bad())?;
                            saw_lines = true;
                        }
                        _ => {}
                    }
                }
                if !saw_lines {
                    return Err(ClientError::Protocol(format!(
                        "OK head without lines= field: {line:?}"
                    )));
                }
                if head.id.is_some() {
                    self.last_rid = head.id;
                }
                Ok(head)
            }
            Some("BUSY") => {
                let code: u16 = toks.next().and_then(|t| t.parse().ok()).unwrap_or(0);
                let message = toks.collect::<Vec<_>>().join(" ");
                Err(ClientError::Busy { code, message })
            }
            Some("ERR") => {
                let code: u16 = toks.next().and_then(|t| t.parse().ok()).unwrap_or(0);
                let symbol = toks.next().unwrap_or("").to_owned();
                let mut words: Vec<&str> = toks.collect();
                // ERR frames carry the request id as a trailing token so
                // the failing request can be TRACEd; strip it from the
                // human-facing message.
                if let Some(last) = words.last() {
                    if let Some(rid) = last.strip_prefix("id=").and_then(|v| v.parse::<u64>().ok())
                    {
                        self.last_rid = Some(rid);
                        words.pop();
                    }
                }
                let message = words.join(" ");
                Err(ClientError::Remote {
                    code,
                    symbol,
                    message,
                })
            }
            _ => Err(ClientError::Protocol(format!(
                "unrecognized status frame {line:?}"
            ))),
        }
    }

    /// Sends a one-line frame and reads its status frame.
    fn request(&mut self, line: fmt::Arguments<'_>) -> Result<OkHead, ClientError> {
        self.frame.clear();
        let _ = writeln!(self.frame, "{line}");
        self.exchange()
    }

    /// Reads the `lines`-line payload an `OK` head announced: whole
    /// socket reads at a time, counting newlines, rather than line by
    /// line.
    fn read_body(&mut self, mut lines: usize) -> Result<&str, ClientError> {
        self.reply.clear();
        while lines > 0 {
            let buf = self.reader.fill_buf()?;
            if buf.is_empty() {
                return Err(ClientError::Protocol(
                    "connection closed mid-response".into(),
                ));
            }
            let newlines = buf.iter().filter(|&&b| b == b'\n').count();
            let mut take = buf.len();
            if newlines >= lines {
                // The body ends in this read, at its `lines`-th newline.
                for _ in lines..=newlines {
                    take = buf[..take]
                        .iter()
                        .rposition(|&b| b == b'\n')
                        .expect("a counted newline");
                }
                take += 1;
            }
            lines -= newlines.min(lines);
            self.reply.extend_from_slice(&buf[..take]);
            self.reader.consume(take);
        }
        as_text(&self.reply)
    }

    /// Executes one request on the session's pinned state.
    pub fn query(&mut self, request: &QueryRequest) -> Result<Response, ClientError> {
        let head = self.request(format_args!("QUERY {}", request.to_text()))?;
        Ok(Response::parse_text(self.read_body(head.lines)?)?)
    }

    /// Executes one request tagged with a client correlation id. The id
    /// is echoed in the request's captured trace (`SLOWLOG` JSON), so a
    /// client can find its own requests in a shared server's slow log.
    pub fn query_with_id(
        &mut self,
        request: &QueryRequest,
        id: u64,
    ) -> Result<Response, ClientError> {
        let head = self.request(format_args!("QUERY id={id} {}", request.to_text()))?;
        Ok(Response::parse_text(self.read_body(head.lines)?)?)
    }

    /// Compiles a QL statement against the cached universe and executes
    /// it — the same grammar `graphbi query` accepts.
    pub fn query_ql(&mut self, text: &str) -> Result<Response, ClientError> {
        let request = graphbi::ql::request_from_text(text, &self.universe)
            .map_err(|e| ClientError::Protocol(format!("ql: {e}")))?;
        self.query(&request)
    }

    /// Executes many requests in one frame, which the server answers with
    /// one `evaluate_many` call. Answers come back in request order.
    pub fn batch(&mut self, requests: &[QueryRequest]) -> Result<Vec<Response>, ClientError> {
        self.frame.clear();
        let _ = writeln!(self.frame, "BATCH {}", requests.len());
        for r in requests {
            let _ = writeln!(self.frame, "{}", r.to_text());
        }
        let head = self.exchange()?;
        if head.count != Some(requests.len()) {
            return Err(ClientError::Protocol(format!(
                "BATCH answered count={:?}, sent {}",
                head.count,
                requests.len()
            )));
        }
        let mut lines = self.read_body(head.lines)?.split_terminator('\n');
        let mut lineno = 0usize;
        let mut out = Vec::with_capacity(requests.len());
        for _ in 0..requests.len() {
            out.push(Response::read_block(&mut lines, &mut lineno)?);
        }
        Ok(out)
    }

    /// Commits ops atomically and re-pins the session past the commit
    /// (read-your-writes).
    pub fn commit(&mut self, ops: &[DeltaOp]) -> Result<(u64, u64), ClientError> {
        self.frame.clear();
        let _ = writeln!(self.frame, "COMMIT {}", ops.len());
        for op in ops {
            let _ = writeln!(self.frame, "{}", protocol::op_to_text(op));
        }
        let head = self.exchange()?;
        self.note_pin(&head);
        Ok((self.generation, self.epoch))
    }

    /// Profiles one request on the server; returns the profile JSON.
    pub fn profile(&mut self, request: &QueryRequest) -> Result<String, ClientError> {
        let head = self.request(format_args!("PROFILE {}", request.to_text()))?;
        Ok(self.read_body(head.lines)?.trim_end().to_owned())
    }

    /// Scrapes the server's metrics registry (Prometheus text format).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let head = self.request(format_args!("METRICS"))?;
        Ok(self.read_body(head.lines)?.to_owned())
    }

    /// Replays the captured trace of an earlier request as profile JSON —
    /// the exact rendering `PROFILE` would have produced.
    pub fn trace(&mut self, rid: u64) -> Result<String, ClientError> {
        let head = self.request(format_args!("TRACE {rid}"))?;
        Ok(self.read_body(head.lines)?.trim_end().to_owned())
    }

    /// Fetches the most recent over-threshold requests, newest first, as
    /// one JSON line per entry.
    pub fn slowlog(&mut self, n: Option<usize>) -> Result<Vec<String>, ClientError> {
        let head = match n {
            Some(n) => self.request(format_args!("SLOWLOG {n}"))?,
            None => self.request(format_args!("SLOWLOG"))?,
        };
        let body = self.read_body(head.lines)?;
        Ok(body.lines().map(str::to_owned).collect())
    }

    /// Fetches the live server snapshot (`TOP`) as one JSON line.
    pub fn top(&mut self) -> Result<String, ClientError> {
        let head = self.request(format_args!("TOP"))?;
        Ok(self.read_body(head.lines)?.trim_end().to_owned())
    }

    /// Re-pins the session to the store's latest state.
    pub fn refresh(&mut self) -> Result<(u64, u64), ClientError> {
        let head = self.request(format_args!("REFRESH"))?;
        self.note_pin(&head);
        Ok((self.generation, self.epoch))
    }

    /// Says goodbye and closes the connection.
    pub fn quit(mut self) -> Result<(), ClientError> {
        self.request(format_args!("QUIT"))?;
        Ok(())
    }

    /// Sends a raw frame line and returns the raw status line — the
    /// escape hatch `graphbi connect` and tests use to poke the protocol
    /// directly (including malformed frames).
    pub fn send_raw(&mut self, line: &str) -> Result<String, ClientError> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.reply.clear();
        self.read_line()?;
        Ok(as_text(&self.reply)?.trim_end().to_owned())
    }
}
