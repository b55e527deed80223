//! # flexpath-serve
//!
//! An overload-safe, zero-dependency HTTP/1.1 front-end for FleXPath
//! query sessions: one process opens a persistent-store
//! [`Catalog`](flexpath::Catalog), shares each document's immutable
//! session across requests behind an `Arc`, and serves concurrent
//! queries under *governor-based admission control*.
//!
//! The headline property is robustness under load, built in tiers:
//!
//! 1. **Door** — accepted connections land in a bounded queue; overflow
//!    is answered `503 + Retry-After` before a single request byte is
//!    read.
//! 2. **Admission** — each query must claim an execution slot from the
//!    slow-starting [`AdmissionController`]; a full wait queue or an
//!    expired admission timeout sheds with a typed `429`.
//! 3. **Governor** — admitted queries run under server-clamped
//!    [`QueryLimits`](flexpath::QueryLimits)
//!    ([`ServePolicy::clamp`]): clients may *lower* budgets, never raise
//!    them past the operator's ceiling. A tripped budget degrades into a
//!    `200` partial labelled with its
//!    [`Completeness`](flexpath::Completeness) and `Retry-After` —
//!    overload produces fewer answers, not errors.
//! 4. **Drain** — shutdown stops accepting, finishes in-flight work
//!    under a drain deadline, and cancels anything that overstays via
//!    the shared governor token.
//!
//! The HTTP layer itself is hardened: request size caps, socket
//! timeouts, and a no-panic parse path where every malformed byte
//! stream maps to a typed [`HttpError`] and a 4xx/5xx.
//!
//! ## Endpoints
//!
//! | Endpoint | Method | Purpose |
//! |---|---|---|
//! | `/query` | POST | Run a top-K query; JSON results, optional trace |
//! | `/explain` | POST | EXPLAIN ANALYZE (text) for a query |
//! | `/catalogs` | GET | List store documents (+ quarantined files) |
//! | `/metrics` | GET | Prometheus text exposition (`?format=json` for the snapshot) |
//! | `/healthz` | GET | Liveness: sessions, in-flight, concurrency, uptime |
//! | `/version` | GET | Build info, uptime, drain state, recorder config |
//! | `/debug/queries` | GET | Flight recorder: last completed queries (`?n=`) |
//! | `/debug/slow` | GET | Flight recorder: slow ring (threshold-gated) |
//!
//! ## Observability
//!
//! Every executed `/query` and `/explain` leaves a [`QueryRecord`] in the
//! process-wide [`FlightRecorder`] — effective limits, duration,
//! completeness, governor trip site, answer count, and an FNV-1a hash of
//! the deterministic counter fingerprint. Records at or above
//! [`ServePolicy::slow_query_threshold`] also land in the slow ring
//! and (with [`ServePolicy::slow_log`]) a JSON-lines slow-query log. The
//! recorder reads *completed* results only, so enabling it never perturbs
//! engine counters or fingerprints.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod client;
pub mod error;
pub mod http;
pub mod json;
pub mod policy;
pub mod recorder;
pub mod routes;
pub mod server;
pub mod state;

pub use admission::{AdmissionController, AdmissionError, Permit};
pub use client::{http_call, Client, ClientError, ClientResponse};
pub use error::ServeError;
pub use http::{HttpError, HttpLimits, Method, Request, Response};
pub use policy::ServePolicy;
pub use recorder::{FlightRecorder, QueryRecord};
pub use server::{Server, ServerHandle};
pub use state::{ServerState, SessionInfo};
