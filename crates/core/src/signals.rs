//! Minimal dependency-free POSIX signal latching for the long-running
//! commands (`serve`, `soak`, `govern`).
//!
//! A signal handler may only do async-signal-safe work, so the handler
//! here does the one safe thing: store the signal number into a static
//! atomic. The run loops poll [`termination_requested`] at subframe
//! boundaries and perform the actual drain — finish or shed in-flight
//! work, flush artifacts, exit — in ordinary code.
//!
//! No external crates: the handler is registered straight through
//! `signal(2)` via a tiny `extern "C"` declaration. On non-Unix targets
//! everything compiles to a no-op and loops simply never see a signal.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// Exit code for a run that was interrupted by SIGINT/SIGTERM but
/// drained cleanly and flushed complete artifacts. Distinct from 0
/// (ran to completion), 1 (SLO violation) and 2 (usage error).
pub const EXIT_INTERRUPTED: i32 = 3;

/// SIGINT's portable number.
pub const SIGINT: i32 = 2;
/// SIGTERM's portable number.
pub const SIGTERM: i32 = 15;

/// 0 = no signal latched; otherwise the signal number.
static PENDING: AtomicUsize = AtomicUsize::new(0);
static INSTALL: Once = Once::new();

#[cfg(unix)]
extern "C" {
    /// `signal(2)`. `usize` stands in for the handler function pointer;
    /// the kernel only needs the address.
    fn signal(signum: i32, handler: usize) -> usize;
}

#[cfg(unix)]
extern "C" fn latch(signum: i32) {
    // Async-signal-safe: a single relaxed store.
    PENDING.store(signum as usize, Ordering::Relaxed);
}

/// Installs SIGINT/SIGTERM handlers that latch into [`termination_requested`].
/// Idempotent; later calls are free.
pub fn install_termination_handlers() {
    INSTALL.call_once(|| {
        #[cfg(unix)]
        // SAFETY: `latch` is async-signal-safe (one atomic store) and
        // stays alive for the program's lifetime.
        unsafe {
            signal(SIGINT, latch as *const () as usize);
            signal(SIGTERM, latch as *const () as usize);
        }
    });
}

/// The latched termination signal, if any. Latching is sticky: once a
/// signal arrives every poll reports it until [`clear_termination`].
pub fn termination_requested() -> Option<i32> {
    match PENDING.load(Ordering::Relaxed) {
        0 => None,
        s => Some(s as i32),
    }
}

/// Clears the latch (used by tests; real runs exit instead).
pub fn clear_termination() {
    PENDING.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_is_sticky_and_clearable() {
        clear_termination();
        assert_eq!(termination_requested(), None);
        PENDING.store(SIGTERM as usize, Ordering::Relaxed);
        assert_eq!(termination_requested(), Some(SIGTERM));
        assert_eq!(termination_requested(), Some(SIGTERM), "sticky");
        clear_termination();
        assert_eq!(termination_requested(), None);
    }

    #[test]
    fn install_is_idempotent() {
        install_termination_handlers();
        install_termination_handlers();
    }
}
