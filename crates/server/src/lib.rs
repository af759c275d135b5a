//! # preexec-server
//!
//! A dependency-free, production-shaped JSON-over-HTTP serving kit on
//! `std::net`: the generic half of the `repro serve` service. The build
//! container has no path to crates.io, so instead of tokio + axum this
//! crate provides the same serving disciplines with threads:
//!
//! - [`http`] — a minimal HTTP/1.1 wire layer (server + client side);
//! - [`queue`] — a bounded admission queue and worker pool (backpressure
//!   answers 429 instead of buffering without bound);
//! - [`cache`] — the request cache: concurrent identical requests
//!   collapse onto one computation, and its `200` stays cached (LRU);
//! - [`bus`] — a non-blocking broadcast bus for progress events;
//! - [`metrics`] — serving-layer counters for `GET /metrics`;
//! - [`server`] — the accept loop, per-request orchestration (request
//!   cache → admission → deadline → SSE), and graceful drain;
//! - [`loadgen`] — a closed-loop benchmark client with a latency
//!   histogram.
//!
//! The application half (endpoints over the experiment `Engine`) lives
//! in `preexec-harness::service`, keeping this crate reusable and free
//! of simulator dependencies.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bus;
pub mod cache;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod queue;
pub mod server;

pub use bus::Bus;
pub use http::{call, Request, Response};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use metrics::ServerMetrics;
pub use server::{start, start_with_bus, Route, ServerConfig, ServerCtx, ServerHandle, Service};
