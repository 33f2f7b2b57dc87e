//! Service layer for `graphbi`: a zero-dependency concurrent TCP server
//! and blocking client over the canonical wire grammar.
//!
//! The pieces, bottom-up:
//!
//! - [`protocol`] — the versioned line-oriented frame grammar (verbs,
//!   commit ops, `ERR`/`BUSY` frames). Request and response payloads are
//!   the canonical `graphbi::wire` text, so the server, CLI, testkit and
//!   docs all speak one grammar.
//! - [`queue`] — the admission gate: at most `queue_depth` requests
//!   execute at once, and the rest get a typed `BUSY` after the admission
//!   timeout. The server's single backpressure point.
//! - [`recorder`] — the flight recorder: a bounded ring of completed
//!   request traces (head-sampled, forced for errors and slow requests)
//!   behind the `TRACE` / `SLOWLOG` / `TOP` introspection verbs.
//! - [`server`] — per-connection sessions, each pinning an MVCC snapshot
//!   and executing its own `QUERY`/`BATCH` frames as one
//!   `Session::evaluate_many` call on its connection thread.
//! - [`client`] — a blocking client that caches the served universe for
//!   local QL compilation.
//!
//! ```no_run
//! use graphbi_serve::{Client, ServeConfig, ServeStore, Server};
//! use std::sync::Arc;
//! # fn demo(store: graphbi::GraphStore) -> Result<(), Box<dyn std::error::Error>> {
//! let store = ServeStore::Mvcc(Arc::new(graphbi::MvccStore::new_mem(store)));
//! let server = Server::start(store, "127.0.0.1:0", ServeConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! let answer = client.query_ql("[A,B,C]")?;
//! # drop(answer);
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod protocol;
pub mod queue;
pub mod recorder;
pub mod server;

pub use client::{Client, ClientError};
pub use recorder::{Recorder, RecorderConfig, RequestTrace, SlowlogExport};
pub use server::{ServeConfig, ServeStore, Server};
