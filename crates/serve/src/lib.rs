//! # pgb-serve
//!
//! Generation as a service: a long-running, in-process serving layer over
//! the PGB mechanism suite. Tenants hold finite privacy budgets and submit
//! [`GenerateRequest`]s — (dataset, mechanism, ε, samples, seed) — and the
//! server returns synthetic graphs while a concurrent accountant enforces
//! that no tenant ever draws more ε than it was granted. Where the
//! benchmark runner executes a fixed grid once, the server handles an
//! open-ended request stream; the pieces compose the existing machinery:
//!
//! * [`TenantAccountant`] — one labelled [`pgb_dp::BudgetAccountant`] per
//!   tenant behind a lock, with structured
//!   [`ServeError::BudgetExhausted`] rejections.
//! * [`MeasureCache`] — an LRU over private intermediates
//!   ([`pgb_core::PrivateSynthesis`]) keyed by (dataset, mechanism,
//!   ε-bits, seed), capacity accounted in `heap_bytes`, with
//!   **single-flight coalescing**: concurrent same-key requests trigger
//!   exactly one ε-consuming `measure`, and each request streams its own
//!   independent `sample`s from derived RNG streams.
//! * [`Server`] — admission (validation + budget charge, serialized in
//!   arrival order) followed by execution over the shared fixed-share
//!   worker/claim loop (`pgb_par::run_pool`), so service work and a
//!   benchmark grid divide a thread budget the same way.
//!
//! ## The determinism contract
//!
//! A recorded multi-tenant [`RequestLog`] replayed at **any** worker count
//! produces a byte-identical [`Transcript`] — graph CSR bytes and budget
//! statements included — under arbitrary execution interleavings, cache
//! hits, misses, and evictions. Three invariants carry it:
//!
//! 1. **Admission is a fold over the log.** Validation and the ε charge
//!    happen sequentially in log order, so every budget statement is a
//!    pure function of the log prefix, not of worker scheduling. (In live
//!    [`Server::submit`] use, arrival order at the admission lock *is* the
//!    log order, and the server records it.)
//! 2. **Measurement is a pure function of its cache key.** The measure RNG
//!    derives from (dataset, mechanism, ε-bits, seed) alone, so it does
//!    not matter which request measured, whether it was coalesced, or
//!    whether an eviction forced a re-measure — the intermediate's bytes
//!    are always the same, which is why the cache hit/miss sequence is
//!    irrelevant to the transcript.
//! 3. **Samples derive from request identity.** Sample `j` of request `id`
//!    runs on `derive_stream(mix(key, id), j)` — independent across
//!    requests and samples, untouched by scheduling.
//!
//! Charges are committed at admission and never refunded: a mechanism that
//! subsequently fails (or panics — see [`MeasureCache`]'s fault isolation)
//! has still consumed its tenant's ε, which is both the conservative DP
//! position and what keeps budget statements independent of execution
//! order.
//!
//! ## Crash safety and fault discipline
//!
//! Spent ε must survive the process: with a WAL attached
//! ([`Server::attach_wal`]), every admission is durably appended — CRC-
//! checksummed, fsynced — *before* its charge lands in memory, and
//! [`Server::recover`] rebuilds a crashed server by folding the log's
//! clean prefix back through the replay machinery (torn tails truncate
//! into a structured [`WalCorrupt`] report, never a panic). Requests carry
//! deterministic work-tick deadlines ([`GenerateRequest::deadline_ticks`],
//! cooperative cancellation via `pgb_par::cancel`), so a
//! [`ServeError::DeadlineExceeded`] rejection is part of the byte-stable
//! transcript at any thread count; the charge stands, and the cache
//! flight is released. The seeded fault-injection layer
//! (`pgb_par::fault`) drives chaos tests over all of it.

mod accountant;
mod cache;
mod error;
mod script;
mod server;
mod wal;

pub use accountant::{BudgetStatement, TenantAccountant, TenantStatement};
pub use cache::{CacheKey, CacheStats, MeasureCache};
pub use error::ServeError;
pub use pgb_par::fnv1a;
pub use script::{parse_script, render_script, Script, SMOKE_SCRIPT};
pub use server::{
    csr_bytes, GenerateRequest, LogEntry, Recovery, RequestLog, Response, ResponseRecord, Server,
    ServerConfig, Transcript,
};
pub use wal::{
    crc32, read_contents, Wal, WalCheckpoint, WalContents, WalCorrupt, MAX_RECORD_BYTES, WAL_MAGIC,
};
