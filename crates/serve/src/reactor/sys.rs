//! Raw `extern "C"` bindings to the handful of Linux syscall wrappers
//! the reactor needs beyond what `std::net` exposes: epoll and a
//! nonblocking wakeup pipe. No new dependencies — the symbols live in
//! the libc every Rust binary on Linux already links.
//!
//! Everything is wrapped in RAII types ([`Epoll`], [`WakePipe`]) so no
//! raw fd outlives its owner, and every call site funnels errno through
//! `io::Error::last_os_error()`.

use std::ffi::{c_int, c_void};
use std::io;
use std::os::fd::RawFd;

/// There is data to read.
pub const EPOLLIN: u32 = 0x001;
/// Writing is possible again.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the fd (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half (must be requested explicitly).
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery: readiness is reported once per transition,
/// so the consumer must drain to `EAGAIN` before parking again.
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const O_NONBLOCK: c_int = 0o4000;
const O_CLOEXEC: c_int = 0o2000000;

/// `struct epoll_event`. On x86 the kernel ABI packs the 12-byte
/// struct; other architectures use natural alignment.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLLIN` | …).
    pub events: u32,
    /// Caller-chosen token returned verbatim with the event.
    pub data: u64,
}

impl EpollEvent {
    /// An empty placeholder for the `epoll_wait` output array.
    pub fn zeroed() -> Self {
        Self { events: 0, data: 0 }
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn pipe2(pipefd: *mut c_int, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

/// An owned epoll instance.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events: interest, data: token };
        // SAFETY: `ev` outlives the call; the kernel copies it out.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Starts watching `fd` for `interest`, tagging events with `token`.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes the interest set of an already-watched `fd`.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Stops watching `fd`. (A close also deregisters implicitly, but
    /// only once every duplicate of the description is gone — explicit
    /// removal keeps the interest list exact.)
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // The event argument is ignored for DEL on every kernel ≥ 2.6.9
        // but must be non-null on the ancient ones; pass one anyway.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (−1 = forever) for readiness events;
    /// returns how many landed in `events`. `EINTR` is retried
    /// internally with the same timeout.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let max = events.len().min(c_int::MAX as usize) as c_int;
            // SAFETY: the out-pointer covers `max` valid elements.
            let rc = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), max, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd and drop it exactly once.
        unsafe { close(self.fd) };
    }
}

/// The write end of the wakeup pipe, cloneable into scoring-pool
/// completion callbacks and the shutdown waker. Owning the fd in a
/// shared handle (instead of a raw copy) guarantees no callback can
/// ever write to a *reused* fd number after the reactor is gone — the
/// fd stays open until the last handle drops.
pub struct WakeWriter {
    fd: RawFd,
}

impl WakeWriter {
    /// Writes one byte; a full pipe (`EAGAIN`) is success — the reactor
    /// is already guaranteed to wake — and any other failure means the
    /// reactor is tearing down, which is fine to ignore too.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: one valid byte, owned fd.
        unsafe { write(self.fd, (&byte as *const u8).cast::<c_void>(), 1) };
    }
}

impl Drop for WakeWriter {
    fn drop(&mut self) {
        // SAFETY: we own the fd and drop it exactly once.
        unsafe { close(self.fd) };
    }
}

/// A nonblocking self-pipe: the reactor holds the read end and parks in
/// `epoll_wait` on it; scoring-pool completion callbacks and the
/// shutdown waker hold [`WakeWriter`] clones of the write end.
pub struct WakePipe {
    read_fd: RawFd,
}

impl WakePipe {
    /// `pipe2(O_NONBLOCK | O_CLOEXEC)`, returning the owned read end
    /// and a shareable write handle.
    pub fn new() -> io::Result<(Self, std::sync::Arc<WakeWriter>)> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: `fds` is a valid out-array of two ints.
        let rc = unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok((Self { read_fd: fds[0] }, std::sync::Arc::new(WakeWriter { fd: fds[1] })))
    }

    /// The fd to register with epoll.
    pub fn fd(&self) -> RawFd {
        self.read_fd
    }

    /// Drains every pending wakeup byte (level-triggered epoll would
    /// otherwise re-report immediately).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: valid buffer, owned fd.
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr().cast::<c_void>(), buf.len()) };
            if n <= 0 {
                return; // empty (EAGAIN), closed, or error — all final
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: we own the fd and drop it exactly once.
        unsafe { close(self.read_fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pipe_round_trips_and_drains() {
        let (pipe, writer) = WakePipe::new().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(pipe.fd(), EPOLLIN, 7).unwrap();
        // Nothing pending: a zero-timeout wait returns no events.
        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        // Wakeups coalesce and are reported with the registered token.
        writer.wake();
        writer.wake();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 7);
        assert_ne!({ events[0].events } & EPOLLIN, 0);
        pipe.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        // The writer outliving the epoll registration is fine.
        drop(ep);
        writer.wake();
    }
}
