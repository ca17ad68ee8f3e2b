//! # ftsched-serve — online admission control as a service
//!
//! The campaign engine answers "how often does the scheme admit?" over
//! synthetic populations; this crate answers the *online* form of the
//! question — "does **this** task set fit, and with what design?" — as a
//! long-running service suitable for a fleet of reconfigurable
//! platforms:
//!
//! * [`protocol`] — the wire format: length-prefixed JSON request and
//!   response frames ([`AdmissionRequest`] / [`AdmissionResponse`]) over
//!   any byte stream (stdin/stdout, a unix socket), plus the line-based
//!   JSONL form used by replay logs.
//! * [`engine`] — the [`AdmissionEngine`]: the design stage of the
//!   paper's pipeline behind two memo tables — an **admission cache**
//!   keyed on the task set's content hash × goal × overhead bits, and a
//!   **hot-context cache** sharing one prepared [`ftsched_design::AnalysisContext`]
//!   across goals of the same platform configuration. The engine is
//!   shared by reference: socket connections and replay workers decide
//!   on it concurrently.
//! * [`server`] — the service loops: a framed stream loop, a
//!   multi-client unix-socket accept loop (one thread per connection),
//!   and the deterministic [`server::replay`] mode whose response
//!   transcript is byte-identical at any batch size (the golden-file and
//!   CI contract). Replay decides each batch on a pool of
//!   `min(available_parallelism, batch_size)` workers spawned once per
//!   call; the batch edge is a barrier, so the next batch starts only
//!   when every response of this one is decided, and the calling thread
//!   writes the responses in request order.
//!
//! ## Determinism contract
//!
//! Every response is a pure function of its request: caches change how
//! often the design stage runs, never what it computes, and latency or
//! cache observations never leak into response payloads. Replaying the
//! same request log therefore produces the same transcript, byte for
//! byte, at any `--batch-size`, with or without caches — enforced by
//! `tests/golden/serve_transcript.jsonl` and the `BENCH_serve.json`
//! contract.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod protocol;
pub mod server;

pub use engine::{AdmissionEngine, AdmissionKey, ContextKey, EngineConfig, GoalKey, ServeSummary};
pub use protocol::{
    read_frame, write_frame, AdmissionRequest, AdmissionResponse, DesignSummary, FrameError,
    TaskRequest, Verdict, DEFAULT_MAX_FRAME_BYTES,
};
#[cfg(unix)]
pub use server::serve_unix;
pub use server::{replay, serve_stream, ReplayStats, StreamStats};
