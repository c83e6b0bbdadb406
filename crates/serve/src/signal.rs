//! Minimal async-signal-safe shutdown flag for SIGINT / SIGTERM.
//!
//! The workspace is dependency-free, so instead of a signal crate this
//! declares the two libc symbols std already links against. The handler
//! does the only async-signal-safe thing possible: store to a static
//! atomic. The server's session loops and the chaos proxy's relays poll
//! it, and a watcher thread polls it to wake a blocked `accept`.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a shutdown signal arrives.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// `SIGINT` (ctrl-c).
pub const SIGINT: i32 = 2;
/// `SIGTERM`.
pub const SIGTERM: i32 = 15;

#[cfg(unix)]
mod ffi {
    /// C signal-handler function pointer.
    pub type Handler = extern "C" fn(i32);

    extern "C" {
        /// POSIX `signal(2)`; std links libc on every unix target.
        pub fn signal(signum: i32, handler: Handler) -> usize;
        /// POSIX `raise(3)` — send a signal to this process.
        pub fn raise(signum: i32) -> i32;
    }
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Install handlers for SIGINT and SIGTERM that trip the shutdown flag.
/// Idempotent; a no-op on non-unix targets.
pub fn install() {
    #[cfg(unix)]
    unsafe {
        ffi::signal(SIGINT, on_signal);
        ffi::signal(SIGTERM, on_signal);
    }
}

/// Whether a shutdown signal has arrived (or [`request`] was called).
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Trip the flag programmatically (tests, in-process shutdown).
pub fn request() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Clear the flag (tests only — real servers exit after shutdown).
pub fn reset() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

/// Deliver a real signal to this process via `raise(3)`, exercising
/// the installed handler end to end (drain tests). No-op off unix.
pub fn raise(signum: i32) {
    #[cfg(unix)]
    unsafe {
        ffi::raise(signum);
    }
    #[cfg(not(unix))]
    let _ = signum;
}
