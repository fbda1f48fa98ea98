//! Thin OS-facing layer for the event-driven server.
//!
//! The workspace's zero-external-deps discipline applies here too: no
//! `libc`/`mio`/`tokio`. [`epoll`] declares the four `epoll` syscall
//! entry points itself (they live in the C library every Linux `std`
//! binary already links) and wraps them in a safe, minimal readiness
//! API; [`net`] declares `listen` alone, to give the server's
//! listener a deeper accept queue than `std` asks for. Socket reads
//! and writes need no wrapper: they go through `std`'s `TcpStream`.
//! Apart from the SHA-256 hardware kernel (`ropuf_hash`'s
//! `sha256::shani`, whose loads and stores stay inside fixed-size
//! arrays) and the auth step's cache-line prefetch hints
//! (`ropuf_verifier`'s `prefetch`, which never fault), these are the
//! **only** modules in the workspace that contain `unsafe` code, and
//! the unsafety is confined to the FFI boundary: every pointer handed
//! to the kernel is derived from a live Rust allocation whose length
//! is passed alongside it.

#[cfg(target_os = "linux")]
pub mod epoll;
#[cfg(target_os = "linux")]
pub mod net;
