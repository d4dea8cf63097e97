//! `noc-serve` — a batched scenario service for sweep campaigns.
//!
//! Running parameter sweeps as separate `noc-bench` processes repeats
//! work three ways: identical points are re-simulated, sweep points that
//! differ only in measurement parameters each re-pay the shared warm-up,
//! and every process rebuilds the same topology tables. This crate keeps
//! one long-lived process around instead:
//!
//! * **Protocol** ([`proto`]) — JSON-lines requests over a unix socket
//!   (or stdin, one-shot), JSON-lines response frames tagged with the
//!   request id.
//! * **Cache** ([`cache`]) — two content-addressed levels keyed by
//!   ([`canonical spec`](noc_scenario::canonical_spec_json),
//!   [`code version`](noc_scenario::code_version)) hashes: finished
//!   result envelopes (hits are byte-identical replays with zero
//!   simulated ticks) and `NOCCKPT1` warm-up checkpoints (sweep points
//!   sharing a warm-up prefix restore one blob).
//! * **Service** ([`service`]) — a priority scheduler with single-flight
//!   dedup, a scoped worker pool, tick-granularity cooperative
//!   cancellation, and live telemetry-window streaming for subscribed
//!   requests.

pub mod cache;
pub mod proto;
pub mod service;

pub use cache::{HitSource, ResultCache, WarmCache};
pub use proto::{
    bye_frame, cancelled_frame, error_frame, frame_kind, parse_request, result_frame, window_line,
    LineReader, ReadLine, Request, RunRequest, DEFAULT_STREAM_WINDOW, MAX_REQUEST_LINE,
};
pub use service::{ScenarioService, ServeConfig, ServeStats};
