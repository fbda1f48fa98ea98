//! The server's listener: `std`'s [`TcpListener`] with a deeper
//! accept queue.
//!
//! `std` listens with a backlog of 128. Past that, a connect storm
//! overflows the accept queue and the kernel drops SYNs, which a client
//! only retransmits after a second or more. [`bind_listener`] calls
//! `listen` a second time on the bound socket with [`LISTEN_BACKLOG`];
//! on a socket that is already listening, Linux takes that as the new
//! queue depth (capped by `net.core.somaxconn`). That one call is the
//! only syscall declared here, against the C library `std` already
//! links on Linux, so no `libc` crate is needed.

#![allow(unsafe_code)]

use std::ffi::c_int;
use std::io;
use std::net::{TcpListener, ToSocketAddrs};
use std::os::fd::AsRawFd;

/// Accept-queue depth of the server's listener.
pub const LISTEN_BACKLOG: c_int = 1024;

extern "C" {
    fn listen(fd: c_int, backlog: c_int) -> c_int;
}

/// Binds a non-blocking listener on `addr` (port 0 picks an ephemeral
/// port) whose accept queue holds [`LISTEN_BACKLOG`] connections.
///
/// # Errors
///
/// The bind failure, or the `listen` / non-blocking failure; the
/// listener is closed on every error path.
pub fn bind_listener(addr: impl ToSocketAddrs) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    // SAFETY: no pointers; `listener` keeps the fd open for the call.
    if unsafe { listen(listener.as_raw_fd(), LISTEN_BACKLOG) } < 0 {
        return Err(io::Error::last_os_error());
    }
    listener.set_nonblocking(true)?;
    Ok(listener)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;
    use std::time::Duration;

    #[test]
    fn nonblocking_accept_would_block_when_idle() {
        let listener = bind_listener("127.0.0.1:0").expect("bind");
        match listener.accept() {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            Ok(_) => panic!("accept succeeded with no peer"),
        }
    }

    #[test]
    fn accept_queue_holds_a_connect_storm_nobody_accepts() {
        // `std`'s own backlog of 128 holds 129 of these; the rest wait
        // on a SYN retransmit of a second or more and time out.
        let listener = bind_listener("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let held: Vec<TcpStream> = (0..512)
            .map(|i| {
                TcpStream::connect_timeout(&addr, Duration::from_millis(200))
                    .unwrap_or_else(|e| panic!("connection {i} did not complete: {e}"))
            })
            .collect();
        assert_eq!(held.len(), 512);
        assert!(listener.accept().is_ok(), "the queue hands them over");
    }
}
