//! Raw Linux syscalls for the reactor: epoll, eventfd, signalfd and
//! signal masking, invoked directly via inline assembly — the build
//! environment has no `libc` crate, and the four facilities the event
//! loop needs are not exposed by `std`.
//!
//! Only the x86-64 Linux ABI is implemented (the target this repo
//! builds and benches on). On other targets every entry point returns
//! `ErrorKind::Unsupported`: the crate still compiles, but the server
//! cannot run there (clients — `RemoteBackend`, sessions — are
//! portable `std`).
//!
//! Safety model: every wrapper passes pointers derived from live Rust
//! references (or `null`), with lengths matching the pointee, and maps
//! the kernel's negative-errno convention to `io::Error` — callers
//! never see a raw return value.

use std::io;

/// One epoll readiness record. `#[repr(C, packed)]` matches the
/// x86-64 kernel ABI (12 bytes: no padding between `events` and
/// `data`).
#[repr(C, packed)]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Readiness mask ([`EPOLLIN`] | [`EPOLLOUT`] | error bits).
    pub events: u32,
    /// Caller-chosen token identifying the registered fd.
    pub data: u64,
}

pub const EPOLLIN: u32 = 0x1;
pub const EPOLLOUT: u32 = 0x4;
pub const EPOLLERR: u32 = 0x8;
pub const EPOLLHUP: u32 = 0x10;
pub const EPOLLRDHUP: u32 = 0x2000;

pub const EPOLL_CTL_ADD: i32 = 1;
pub const EPOLL_CTL_DEL: i32 = 2;
pub const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const FD_NONBLOCK: i32 = 0o4000;
const SIG_BLOCK: i32 = 0;
/// `SIGTERM`'s bit in the kernel's 64-bit signal mask.
const SIGTERM_MASK: u64 = 1 << (15 - 1);

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::*;

    mod nr {
        pub const READ: isize = 0;
        pub const WRITE: isize = 1;
        pub const CLOSE: isize = 3;
        pub const RT_SIGPROCMASK: isize = 14;
        pub const EPOLL_WAIT: isize = 232;
        pub const EPOLL_CTL: isize = 233;
        pub const SIGNALFD4: isize = 289;
        pub const EVENTFD2: isize = 290;
        pub const EPOLL_CREATE1: isize = 291;
    }

    /// x86-64 syscall: number in `rax`, args in `rdi rsi rdx r10`,
    /// result in `rax` (negative errno on failure). `rcx`/`r11` are
    /// clobbered by the instruction itself.
    ///
    /// SAFETY: callers must pass a valid syscall number and arguments
    /// meeting that syscall's contract — any pointer argument must be
    /// valid for the access the kernel performs, with a length argument
    /// matching the pointee.
    unsafe fn syscall4(nr: isize, a1: isize, a2: isize, a3: isize, a4: isize) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    fn check(ret: isize) -> io::Result<isize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    pub fn epoll_create1() -> io::Result<i32> {
        // SAFETY: no pointer arguments; EPOLL_CLOEXEC is the only flag
        // epoll_create1 accepts.
        check(unsafe { syscall4(nr::EPOLL_CREATE1, EPOLL_CLOEXEC as isize, 0, 0, 0) })
            .map(|fd| fd as i32)
    }

    pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: Option<&EpollEvent>) -> io::Result<()> {
        let ptr = event.map_or(std::ptr::null(), |e| e as *const EpollEvent);
        // SAFETY: `ptr` is null (allowed for EPOLL_CTL_DEL) or derives
        // from a live `&EpollEvent` whose `#[repr(C, packed)]` layout
        // matches what the kernel reads; it is only read during the call.
        check(unsafe {
            syscall4(
                nr::EPOLL_CTL,
                epfd as isize,
                op as isize,
                fd as isize,
                ptr as isize,
            )
        })
        .map(drop)
    }

    pub fn epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the buffer pointer/length come from a live
            // `&mut [EpollEvent]`; the kernel writes at most
            // `events.len()` records of the matching packed layout.
            let ret = unsafe {
                syscall4(
                    nr::EPOLL_WAIT,
                    epfd as isize,
                    events.as_mut_ptr() as isize,
                    events.len() as isize,
                    timeout_ms as isize,
                )
            };
            match check(ret) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    pub fn eventfd() -> io::Result<i32> {
        // SAFETY: no pointer arguments; initial count 0 plus flag bits.
        check(unsafe {
            syscall4(
                nr::EVENTFD2,
                0,
                (FD_NONBLOCK | EPOLL_CLOEXEC) as isize,
                0,
                0,
            )
        })
        .map(|fd| fd as i32)
    }

    /// Block `SIGTERM` for the calling thread (and every thread it
    /// spawns afterwards, which inherit the mask), so the signal is
    /// only ever delivered through the signalfd.
    pub fn block_sigterm() -> io::Result<()> {
        let mask: u64 = SIGTERM_MASK;
        // SAFETY: `&mask` points at a live u64 (the kernel sigset size
        // passed as arg 4 is 8 bytes, matching); the old-mask output
        // pointer is null, which the kernel permits.
        check(unsafe {
            syscall4(
                nr::RT_SIGPROCMASK,
                SIG_BLOCK as isize,
                &mask as *const u64 as isize,
                0,
                8, // sizeof(kernel sigset_t)
            )
        })
        .map(drop)
    }

    /// A nonblocking fd that becomes readable when `SIGTERM` arrives
    /// (the signal must already be blocked — [`block_sigterm`]).
    pub fn sigterm_fd() -> io::Result<i32> {
        let mask: u64 = SIGTERM_MASK;
        // SAFETY: `&mask` points at a live u64, read-only, with the
        // matching size 8 passed as arg 3; fd -1 asks for a new fd.
        check(unsafe {
            syscall4(
                nr::SIGNALFD4,
                -1,
                &mask as *const u64 as isize,
                8,
                (FD_NONBLOCK | EPOLL_CLOEXEC) as isize,
            )
        })
        .map(|fd| fd as i32)
    }

    pub fn read(fd: i32, buf: &mut [u8]) -> io::Result<usize> {
        // SAFETY: pointer and length come from one live `&mut [u8]`;
        // the kernel writes at most `buf.len()` bytes into it.
        check(unsafe {
            syscall4(
                nr::READ,
                fd as isize,
                buf.as_mut_ptr() as isize,
                buf.len() as isize,
                0,
            )
        })
        .map(|n| n as usize)
    }

    pub fn write(fd: i32, buf: &[u8]) -> io::Result<usize> {
        // SAFETY: pointer and length come from one live `&[u8]`, which
        // the kernel only reads.
        check(unsafe {
            syscall4(
                nr::WRITE,
                fd as isize,
                buf.as_ptr() as isize,
                buf.len() as isize,
                0,
            )
        })
        .map(|n| n as usize)
    }

    pub fn close(fd: i32) {
        // SAFETY: no pointer arguments; closing an invalid fd just
        // returns EBADF, which is deliberately ignored.
        let _ = unsafe { syscall4(nr::CLOSE, fd as isize, 0, 0, 0) };
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    use super::*;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the eqjoind server is only implemented for x86-64 Linux \
             (clients are portable; run the daemon on a supported host)",
        ))
    }

    pub fn epoll_create1() -> io::Result<i32> {
        unsupported()
    }
    pub fn epoll_ctl(_: i32, _: i32, _: i32, _: Option<&EpollEvent>) -> io::Result<()> {
        unsupported()
    }
    pub fn epoll_wait(_: i32, _: &mut [EpollEvent], _: i32) -> io::Result<usize> {
        unsupported()
    }
    pub fn eventfd() -> io::Result<i32> {
        unsupported()
    }
    pub fn block_sigterm() -> io::Result<()> {
        unsupported()
    }
    pub fn sigterm_fd() -> io::Result<i32> {
        unsupported()
    }
    pub fn read(_: i32, _: &mut [u8]) -> io::Result<usize> {
        unsupported()
    }
    pub fn write(_: i32, _: &[u8]) -> io::Result<usize> {
        unsupported()
    }
    pub fn close(_: i32) {}
}

pub use imp::{
    block_sigterm, close, epoll_create1, epoll_ctl, epoll_wait, eventfd, read, sigterm_fd, write,
};

#[cfg(all(test, target_os = "linux", target_arch = "x86_64"))]
mod tests {
    use super::*;

    #[test]
    fn epoll_event_matches_the_kernel_abi() {
        // 12 bytes on x86-64: the packed layout the kernel reads.
        assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
    }

    #[test]
    fn eventfd_write_wakes_epoll() {
        let ep = epoll_create1().unwrap();
        let ev = eventfd().unwrap();
        epoll_ctl(
            ep,
            EPOLL_CTL_ADD,
            ev,
            Some(&EpollEvent {
                events: EPOLLIN,
                data: 42,
            }),
        )
        .unwrap();

        let mut events = [EpollEvent::default(); 4];
        // Nothing written yet: a zero-timeout wait reports nothing.
        assert_eq!(epoll_wait(ep, &mut events, 0).unwrap(), 0);

        write(ev, &1u64.to_ne_bytes()).unwrap();
        let n = epoll_wait(ep, &mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 42);
        assert_ne!({ events[0].events } & EPOLLIN, 0);

        // Reading the counter resets readiness.
        let mut count = [0u8; 8];
        assert_eq!(read(ev, &mut count).unwrap(), 8);
        assert_eq!(u64::from_ne_bytes(count), 1);
        assert_eq!(epoll_wait(ep, &mut events, 0).unwrap(), 0);

        close(ev);
        close(ep);
    }

    #[test]
    fn nonblocking_eventfd_read_would_block() {
        let ev = eventfd().unwrap();
        let mut count = [0u8; 8];
        let err = read(ev, &mut count).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        close(ev);
    }
}
