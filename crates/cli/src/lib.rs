//! Library surface of the `poe` command-line front end.
//!
//! The binary (`src/main.rs`) is a thin argument-parsing shell over this
//! crate. Exposing the serving substrate as a library lets integration
//! suites (notably the workspace-level chaos tests in `tests/chaos.rs`)
//! drive a real [`serve::Server`] — event loop, load shedding,
//! `HEALTH`/`SHUTDOWN` lifecycle — in-process, with fault injection from
//! `poe-chaos` installed around it.

#![forbid(unsafe_code)]

pub mod args;
pub mod obs;
pub mod route;
pub mod serve;
pub mod wire;
