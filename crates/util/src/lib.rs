//! `capsys-util`: the std-only utility layer that keeps the CAPSys
//! workspace hermetic.
//!
//! The build environment has no network access and no vendored crate
//! registry, so every external dependency the workspace once used is
//! replaced by an in-repo equivalent:
//!
//! * [`rng`] — a seedable SplitMix64/xoshiro256++ PRNG with the
//!   `SmallRng` / `gen_range` / `shuffle` surface (replaces `rand`).
//! * [`json`] — a JSON value type with parser, compact + pretty
//!   encoders, and [`json::ToJson`] / [`json::FromJson`] traits
//!   (replaces `serde` + `serde_json`).
//! * [`fixed`] — exact Q31.32 fixed-point arithmetic for the search
//!   cost core (replaces ad-hoc `f64` accumulation and the fixed-point
//!   crates the ecosystem would normally supply).
//! * [`sync`] — a poison-free `Mutex` wrapper over `std::sync`
//!   (replaces `parking_lot`), and the process-wide hardware thread
//!   count.
//! * [`journal`] — append-only, checksummed JSON-lines journal framing
//!   (CRC-32 frames, torn-tail-tolerant reads) for write-ahead logs.
//! * [`prop`] — a mini property-testing harness with seeded case
//!   generation, failing-seed reporting, and input shrinking
//!   (replaces `proptest`).
//!
//! Everything in this crate uses only `std`. Reintroducing an external
//! registry dependency anywhere in the workspace is a CI failure
//! (`scripts/ci.sh` greps every manifest).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixed;
pub mod journal;
pub mod json;
pub mod prop;
pub mod rng;
pub mod sync;
