//! `poll(2)` and the socket pair behind each TCP reader's doorbell —
//! the workspace's one foreign-function boundary (`LINT-E107` fences
//! `extern "C"` to this file). std links libc already, so declaring
//! `poll` here adds no crate.

use std::ffi::{c_int, c_short};
use std::io::{self, Read as _, Write as _};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use crate::doorbell::Wake;

/// Readable data (or EOF) is pending.
pub(crate) const POLLIN: c_short = 0x001;
/// Writing will not block.
pub(crate) const POLLOUT: c_short = 0x004;
/// Error condition; reported whether or not it was asked for.
const POLLERR: c_short = 0x008;
/// Hang-up; reported whether or not it was asked for.
const POLLHUP: c_short = 0x010;
/// The descriptor is not open.
const POLLNVAL: c_short = 0x020;

/// `nfds_t` of the platform's `poll(2)`.
#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

/// One `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

impl PollFd {
    /// Watch `fd` for `events`.
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// A placeholder the kernel skips (negative fd), so entries stay
    /// aligned with their connections.
    pub(crate) fn skip() -> PollFd {
        PollFd::new(-1, 0)
    }

    /// Readable — or hung up or failed, which the read path turns into
    /// a closed connection.
    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    /// Writable — or failed, which the write path turns into a closed
    /// connection.
    pub(crate) fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

/// Block until an entry of `fds` is ready or `timeout` passes (`None`
/// waits for ever), retrying on `EINTR`. A timeout rounds up to whole
/// milliseconds, `poll(2)`'s resolution; zero only probes.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ms: c_int = match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_nanos().div_ceil(1_000_000);
            c_int::try_from(ms).unwrap_or(c_int::MAX)
        }
    };
    let nfds = Nfds::try_from(fds.len()).expect("poll set larger than nfds_t");
    loop {
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `struct pollfd` records and `nfds` is its length, so the kernel
        // reads and writes only inside it, and only during this call.
        let n = unsafe { poll(fds.as_mut_ptr(), nfds, ms) };
        if let Ok(ready) = usize::try_from(n) {
            return Ok(ready);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// The OS half of a reader's doorbell: a nonblocking socket pair. A
/// wake writes one byte to `tx`; the reader polls `rx` and drains it.
/// Both ends live as long as the doorbell, so a ring that comes after
/// the reader has exited writes into a buffer nobody reads, harmlessly.
#[derive(Debug)]
pub(crate) struct SocketWake {
    tx: UnixStream,
    rx: UnixStream,
}

impl SocketWake {
    pub(crate) fn new() -> io::Result<SocketWake> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(SocketWake { tx, rx })
    }

    /// The descriptor the reader polls for wakes.
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Swallow every pending wake byte.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(n) if n > 0 => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => return,
            }
        }
    }
}

impl Wake for SocketWake {
    fn wake(&self) {
        loop {
            match (&self.tx).write(&[1]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Written; or `WouldBlock`: the buffer is full of
                // unread wakes, so one is already pending.
                _ => return,
            }
        }
    }
}
