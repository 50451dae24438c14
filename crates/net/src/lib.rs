//! # poe-net
//!
//! The transport layer of the Pool of Experts serving stack: line
//! framing shared by every wire endpoint, plus a non-blocking readiness
//! event loop over raw `epoll` syscalls (no `libc` — the workspace is
//! std-only, so the poller issues `epoll_create1`/`epoll_ctl`/
//! `epoll_pwait`/`eventfd2` itself with inline assembly).
//!
//! Layering: this crate knows about **sockets, bytes, and lines** — it
//! owns accept, the 8 KiB request-line cap, write backpressure, idle
//! deadlines, connection caps, the server-wide request budget, and the
//! drain. It does not know the protocol: request parsing, response
//! wording, and business logic live above it (`poe-cli`'s serve and route layers each implement
//! [`NetService`] once), and the expert pool below never sees a socket.
//!
//! * [`framing`] — [`LineBuffer`]/[`LineReader`]/[`send_line`]: the one
//!   implementation of bounded line reads and single-syscall line
//!   writes, used by the event loop and the router's shard client.
//! * [`poller`] — safe epoll + eventfd wrappers.
//! * [`server`] — the event loop: each connection is an explicit state
//!   machine (`Reading → Dispatched → Writing → Idle | Draining |
//!   Closed`) driven by readiness instead of a blocked thread. Lines
//!   that cannot block are answered on the loop thread; the rest go to
//!   the one dispatch pool (`pool`), which wakes exactly one worker per
//!   line and contains handler panics.
//! * [`sys`] — the raw syscall layer (the only `unsafe` in the serving
//!   stack). It exists on Linux x86-64 and aarch64; elsewhere its stubs
//!   report `Unsupported`, which [`EventLoop::start`] passes on, so the
//!   serving endpoints do not run on other targets.

#![warn(missing_docs)]
// `unsafe` is confined to `sys`; every other module forbids it at the
// item level by construction (no `unsafe` blocks outside `sys.rs`).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod framing;
pub mod poller;
mod pool;
pub mod server;
pub mod sys;

pub use framing::{send_line, LineBuffer, LineOverflow, LineReader, ReadOutcome};
pub use poller::{Interest, PollEvent, Poller, Waker};
pub use server::{
    After, EventLoop, LoopConfig, LoopHandle, LoopReport, NetEvent, NetMetrics, NetService, Refusal,
};
