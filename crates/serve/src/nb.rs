//! Raw, dependency-free epoll bindings for the event-driven server.
//!
//! Linux-only by construction: the module is empty elsewhere, where
//! `Server::spawn` returns `ErrorKind::Unsupported`. The four syscalls
//! the event loop needs — `epoll_create1`, `epoll_ctl`, `epoll_wait`,
//! `close` — are declared directly against libc, which the binary
//! already links for `signal`. No `mio`, no `libc` crate.
#![cfg(target_os = "linux")]

use std::io;
use std::os::unix::io::RawFd;

/// `EPOLLIN`: the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// `EPOLLOUT`: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// `EPOLLERR`: error condition (always reported, never needs arming).
pub const EPOLLERR: u32 = 0x008;
/// `EPOLLHUP`: hangup (always reported, never needs arming).
pub const EPOLLHUP: u32 = 0x010;
/// `EPOLLRDHUP`: peer closed its write half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;

/// The kernel's `struct epoll_event`. On x86-64 the kernel ABI packs it
/// (no padding between `events` and `data`); other architectures use
/// natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready-event bitmask (`EPOLLIN` | ...).
    pub events: u32,
    /// Caller-chosen token identifying the fd (we use the fd itself).
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event (for the wait buffer).
    pub fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// An owned epoll instance.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // reported through errno, which last_os_error reads.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    /// Registers `fd` for `events`, tagged with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the interest set of an already registered `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, data: token };
        // SAFETY: `event` is a live, properly laid out epoll_event for the
        // duration of the call; the kernel copies it before returning.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Waits up to `timeout_ms` (`-1` = forever, `0` = poll) and fills
    /// `events`; returns how many entries are valid. `EINTR` reads as
    /// zero ready events so signal delivery never kills the loop.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        if events.is_empty() {
            return Ok(0);
        }
        // SAFETY: the buffer outlives the call and maxevents matches its
        // length, so the kernel writes only within bounds.
        let rc = unsafe {
            epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` is an fd this struct owns exclusively.
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn epoll_reports_readability_and_tokens() {
        let epoll = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        epoll.add(listener.as_raw_fd(), EPOLLIN, 42).unwrap();

        // Nothing ready yet: a zero-timeout poll returns no events.
        let mut events = [EpollEvent::zeroed(); 8];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        // An incoming connection makes the listener readable.
        let mut client = TcpStream::connect(addr).unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        let (token, mask) = (events[0].data, events[0].events);
        assert_eq!(token, 42);
        assert_ne!(mask & EPOLLIN, 0);

        // Accepted stream: readable once bytes arrive, token preserved.
        let (peer, _) = listener.accept().unwrap();
        peer.set_nonblocking(true).unwrap();
        epoll.add(peer.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 7).unwrap();
        client.write_all(b"x").unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert!(n >= 1);
        assert!((0..n).any(|i| events[i].data == 7));

        // Interest can be modified and removed.
        epoll.modify(peer.as_raw_fd(), EPOLLIN | EPOLLOUT, 7).unwrap();
        epoll.delete(peer.as_raw_fd()).unwrap();
        epoll.delete(listener.as_raw_fd()).unwrap();
    }
}
