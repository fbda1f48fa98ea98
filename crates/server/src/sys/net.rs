//! Safe minimal wrapper over the socket syscalls `std` does not
//! expose: binding a listener with `SO_REUSEPORT` set.
//!
//! No `libc` crate, same as [`epoll`](super::epoll): the syscall entry
//! points are declared directly and resolve against the C library
//! `std` already links on Linux.
//!
//! [`bind_reuseport`] builds an IPv4 listener with `SO_REUSEPORT` set
//! **before** `bind`, so N event loops can each own an independent
//! kernel accept queue on the same address — the kernel load-balances
//! incoming connections across the queues instead of waking every
//! loop for every connection (no thundering herd, no shared accept
//! lock).

#![allow(unsafe_code)]

use std::ffi::{c_int, c_void};
use std::io;
use std::net::{SocketAddrV4, TcpListener};
use std::os::fd::FromRawFd;

const AF_INET: c_int = 2;
const SOCK_STREAM: c_int = 1;
/// `SOCK_NONBLOCK` == `O_NONBLOCK`.
const SOCK_NONBLOCK: c_int = 0o4000;
/// `SOCK_CLOEXEC` == `O_CLOEXEC`.
const SOCK_CLOEXEC: c_int = 0o2000000;
const SOL_SOCKET: c_int = 1;
const SO_REUSEADDR: c_int = 2;
const SO_REUSEPORT: c_int = 15;
const LISTEN_BACKLOG: c_int = 1024;

/// The kernel's `struct sockaddr_in`, hand-laid-out (16 bytes): family,
/// big-endian port, big-endian address, zero padding.
#[repr(C)]
struct SockAddrIn {
    family: u16,
    port_be: u16,
    addr_be: u32,
    zero: [u8; 8],
}

extern "C" {
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    fn bind(fd: c_int, addr: *const SockAddrIn, addrlen: u32) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Binds a non-blocking IPv4 listener with `SO_REUSEPORT` (and
/// `SO_REUSEADDR`) set before `bind`, so several listeners can share
/// `addr` and the kernel spreads incoming connections across their
/// independent accept queues. Port `0` picks an ephemeral port —
/// read it back via [`TcpListener::local_addr`] before binding the
/// sibling listeners.
///
/// # Errors
///
/// The raw `socket`/`setsockopt`/`bind`/`listen` failure; the fd is
/// closed on every error path.
pub fn bind_reuseport(addr: SocketAddrV4) -> io::Result<TcpListener> {
    // SAFETY: no pointers involved; the return value is checked.
    let fd = cvt(unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    let result = (|| -> io::Result<()> {
        let one: c_int = 1;
        for opt in [SO_REUSEADDR, SO_REUSEPORT] {
            // SAFETY: `one` is a live c_int and its exact size is
            // passed alongside the pointer.
            cvt(unsafe {
                setsockopt(
                    fd,
                    SOL_SOCKET,
                    opt,
                    (&one as *const c_int).cast::<c_void>(),
                    std::mem::size_of::<c_int>() as u32,
                )
            })?;
        }
        let sockaddr = SockAddrIn {
            family: AF_INET as u16,
            port_be: addr.port().to_be(),
            addr_be: u32::from(*addr.ip()).to_be(),
            zero: [0; 8],
        };
        // SAFETY: `sockaddr` is a live, properly laid out
        // sockaddr_in and its exact size is passed alongside it.
        cvt(unsafe { bind(fd, &sockaddr, std::mem::size_of::<SockAddrIn>() as u32) })?;
        cvt(unsafe { listen(fd, LISTEN_BACKLOG) })?;
        Ok(())
    })();
    match result {
        // SAFETY: `fd` is a live listening socket this function owns;
        // ownership transfers to the TcpListener exactly once.
        Ok(()) => Ok(unsafe { TcpListener::from_raw_fd(fd) }),
        Err(e) => {
            // SAFETY: `fd` came from `socket` above and is closed once.
            let _ = unsafe { close(fd) };
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, TcpStream};

    #[test]
    fn reuseport_listeners_share_an_address() {
        let first = bind_reuseport(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).expect("first bind");
        let addr = first.local_addr().expect("local addr");
        let port = match addr {
            std::net::SocketAddr::V4(v4) => v4.port(),
            other => panic!("ipv4 listener reported {other}"),
        };
        // A second listener on the *same* resolved port must succeed —
        // the whole point of SO_REUSEPORT.
        let second = bind_reuseport(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port))
            .expect("second bind on same port");
        // And both accept queues actually receive connections: connect
        // repeatedly until each listener has accepted at least once
        // (the kernel hashes by 4-tuple, so a handful of distinct
        // source ports covers both).
        let (mut got_first, mut got_second) = (false, false);
        let mut held = Vec::new();
        for _ in 0..64 {
            if got_first && got_second {
                break;
            }
            held.push(TcpStream::connect(addr).expect("connect"));
            std::thread::sleep(std::time::Duration::from_millis(1));
            if let Ok((s, _)) = first.accept() {
                got_first = true;
                drop(s);
            }
            if let Ok((s, _)) = second.accept() {
                got_second = true;
                drop(s);
            }
        }
        assert!(
            got_first || got_second,
            "no listener ever accepted a connection"
        );
    }

    #[test]
    fn nonblocking_accept_would_block_when_idle() {
        let listener = bind_reuseport(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).expect("bind");
        match listener.accept() {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            Ok(_) => panic!("accept succeeded with no peer"),
        }
    }
}
