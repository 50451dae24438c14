//! Raw Linux syscall wrappers for the epoll backend.
//!
//! The workspace is std-only — there is no `libc` crate to lean on — so
//! the handful of syscalls std does not expose (`epoll_create1`,
//! `epoll_ctl`, `epoll_pwait`, `eventfd2`, `prlimit64`) are issued
//! directly with inline assembly. Everything socket-shaped stays on std
//! (`TcpListener`/`TcpStream` with `set_nonblocking`); this module only
//! covers the readiness and wakeup primitives.
//!
//! `epoll_pwait` is used instead of `epoll_wait` because aarch64 has no
//! `epoll_wait` syscall at all — one entry point works on both
//! architectures. All wrappers translate the kernel's negative-errno
//! convention into `io::Result`.
//!
//! This is the only module in the crate (and the workspace's serving
//! tier) that contains `unsafe`; everything above it works with safe
//! `io::Result` APIs and owned file descriptors.

#![allow(unsafe_code)]

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use std::io;

    // Syscall numbers differ per architecture; the asm-level calling
    // convention (args in registers, negative errno return) is shared.
    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const READ: usize = 0;
        pub const WRITE: usize = 1;
        pub const CLOSE: usize = 3;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EVENTFD2: usize = 290;
        pub const EPOLL_CREATE1: usize = 291;
        pub const PRLIMIT64: usize = 302;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const READ: usize = 63;
        pub const WRITE: usize = 64;
        pub const CLOSE: usize = 57;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const EVENTFD2: usize = 19;
        pub const EPOLL_CREATE1: usize = 20;
        pub const PRLIMIT64: usize = 261;
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: caller guarantees the syscall number and arguments are
        // valid for the kernel ABI; clobbers are declared.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: caller guarantees the syscall number and arguments are
        // valid for the kernel ABI; clobbers are declared.
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") n,
                inlateout("x0") a1 => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                in("x4") a5,
                in("x5") a6,
                options(nostack),
            );
        }
        ret
    }

    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    /// `EPOLL_CLOEXEC` flag for `epoll_create1`.
    pub const EPOLL_CLOEXEC: u32 = 0x80000;
    /// Register a new fd.
    pub const EPOLL_CTL_ADD: i32 = 1;
    /// Deregister an fd.
    pub const EPOLL_CTL_DEL: i32 = 2;
    /// Change a registered fd's interest set.
    pub const EPOLL_CTL_MOD: i32 = 3;
    /// Readable.
    pub const EPOLLIN: u32 = 0x001;
    /// Writable.
    pub const EPOLLOUT: u32 = 0x004;
    /// Error condition.
    pub const EPOLLERR: u32 = 0x008;
    /// Hangup.
    pub const EPOLLHUP: u32 = 0x010;
    /// Peer half-closed its write side.
    pub const EPOLLRDHUP: u32 = 0x2000;
    /// `EFD_CLOEXEC` flag for `eventfd2`.
    pub const EFD_CLOEXEC: u32 = 0x80000;
    /// `EFD_NONBLOCK` flag for `eventfd2`.
    pub const EFD_NONBLOCK: u32 = 0x800;

    /// The kernel's `struct epoll_event`. x86_64 is the one architecture
    /// where the kernel packs it to 12 bytes; everywhere else it has
    /// natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        /// `EPOLL*` readiness bits.
        pub events: u32,
        /// Caller-chosen token echoed back on readiness.
        pub data: u64,
    }

    /// Creates an epoll instance (close-on-exec), returning its fd.
    pub fn epoll_create1() -> io::Result<i32> {
        let ret = unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC as usize, 0, 0, 0, 0, 0) };
        check(ret).map(|fd| fd as i32)
    }

    /// Adds/modifies/removes `fd` in the epoll interest list.
    pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: Option<&EpollEvent>) -> io::Result<()> {
        let ptr = event.map(|e| e as *const EpollEvent as usize).unwrap_or(0);
        let ret = unsafe {
            syscall6(
                nr::EPOLL_CTL,
                epfd as usize,
                op as usize,
                fd as usize,
                ptr,
                0,
                0,
            )
        };
        check(ret).map(|_| ())
    }

    /// Waits for readiness. `timeout_ms < 0` blocks indefinitely. Uses
    /// `epoll_pwait` with a null sigmask, which is exactly `epoll_wait`.
    pub fn epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let ret = unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                epfd as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as usize,
                0, // sigmask: null
                8, // sigsetsize
            )
        };
        check(ret)
    }

    /// Creates a non-blocking close-on-exec eventfd (counter at 0).
    pub fn eventfd() -> io::Result<i32> {
        let flags = (EFD_CLOEXEC | EFD_NONBLOCK) as usize;
        let ret = unsafe { syscall6(nr::EVENTFD2, 0, flags, 0, 0, 0, 0) };
        check(ret).map(|fd| fd as i32)
    }

    /// `read(2)` on a raw fd (the eventfd drain path).
    pub fn read(fd: i32, buf: &mut [u8]) -> io::Result<usize> {
        let ret = unsafe {
            syscall6(
                nr::READ,
                fd as usize,
                buf.as_mut_ptr() as usize,
                buf.len(),
                0,
                0,
                0,
            )
        };
        check(ret)
    }

    /// `write(2)` on a raw fd (the eventfd wake path).
    pub fn write(fd: i32, buf: &[u8]) -> io::Result<usize> {
        let ret = unsafe {
            syscall6(
                nr::WRITE,
                fd as usize,
                buf.as_ptr() as usize,
                buf.len(),
                0,
                0,
                0,
            )
        };
        check(ret)
    }

    /// `close(2)`; errors are ignored (nothing useful to do with them).
    pub fn close(fd: i32) {
        let _ = unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0) };
    }

    #[repr(C)]
    struct Rlimit64 {
        cur: u64,
        max: u64,
    }

    const RLIMIT_NOFILE: usize = 7;

    /// Returns the current `(soft, hard)` `RLIMIT_NOFILE`.
    pub fn nofile_limit() -> io::Result<(u64, u64)> {
        let mut old = Rlimit64 { cur: 0, max: 0 };
        let ret = unsafe {
            syscall6(
                nr::PRLIMIT64,
                0, // pid 0: this process
                RLIMIT_NOFILE,
                0, // new_limit: null
                &mut old as *mut Rlimit64 as usize,
                0,
                0,
            )
        };
        check(ret).map(|_| (old.cur, old.max))
    }

    /// Raises `RLIMIT_NOFILE` so `want` descriptors fit, returning the
    /// resulting soft limit. Raising the hard limit needs privilege
    /// (CAP_SYS_RESOURCE); without it this settles for the hard limit.
    pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
        let (cur, max) = nofile_limit()?;
        if cur >= want {
            return Ok(cur);
        }
        let try_set = |soft: u64, hard: u64| -> io::Result<()> {
            let new = Rlimit64 {
                cur: soft,
                max: hard,
            };
            let ret = unsafe {
                syscall6(
                    nr::PRLIMIT64,
                    0,
                    RLIMIT_NOFILE,
                    &new as *const Rlimit64 as usize,
                    0,
                    0,
                    0,
                )
            };
            check(ret).map(|_| ())
        };
        if want > max {
            // Needs a hard-limit raise too; allowed only with privilege.
            if try_set(want, want).is_ok() {
                return Ok(want);
            }
        }
        let soft = want.min(max);
        try_set(soft, max)?;
        Ok(soft)
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub use imp::*;

/// Portable stub: every entry point reports `Unsupported`, so the event
/// loop (and with it every serving endpoint) does not start here.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp_stub {
    #![allow(missing_docs)] // mirrors `imp`'s documented API

    use std::io;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "poe-net epoll backend is only available on Linux x86_64/aarch64",
        ))
    }

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
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
    pub fn read(_: i32, _: &mut [u8]) -> io::Result<usize> {
        unsupported()
    }
    pub fn write(_: i32, _: &[u8]) -> io::Result<usize> {
        unsupported()
    }
    pub fn close(_: i32) {}
    pub fn nofile_limit() -> io::Result<(u64, u64)> {
        unsupported()
    }
    pub fn raise_nofile_limit(_: u64) -> io::Result<u64> {
        unsupported()
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub use imp_stub::*;

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn eventfd_round_trips_a_wakeup() {
        let fd = eventfd().expect("eventfd");
        assert_eq!(write(fd, &1u64.to_ne_bytes()).unwrap(), 8);
        let mut buf = [0u8; 8];
        assert_eq!(read(fd, &mut buf).unwrap(), 8);
        assert_eq!(u64::from_ne_bytes(buf), 1);
        // Drained: a second read would block (EAGAIN, it's non-blocking).
        let err = read(fd, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        close(fd);
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn nofile_limit_is_readable() {
        let (cur, max) = nofile_limit().expect("prlimit64");
        assert!(cur > 0 && max >= cur);
    }
}
