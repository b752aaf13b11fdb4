//! Ctrl-C → [`CancelToken`] bridge, and SIGPIPE's default disposition.
//!
//! The first SIGINT cancels the current solve cooperatively (the solver
//! returns a CNC outcome and the process exits through the normal error
//! path); a second SIGINT aborts the process for users who really mean it.
//!
//! Implemented directly against libc's `signal` (the workspace builds
//! offline, without the `ctrlc`/`signal-hook` crates); the handler only
//! performs async-signal-safe operations (atomic loads/stores and `abort`).

use std::sync::OnceLock;

use langeq_core::CancelToken;

static TOKEN: OnceLock<CancelToken> = OnceLock::new();

/// Installs the SIGINT handler (once) and returns the token it cancels.
///
/// On non-Unix targets this returns the token without installing a handler;
/// Ctrl-C then terminates the process with the platform default behaviour.
pub fn install() -> CancelToken {
    let token = TOKEN.get_or_init(CancelToken::new).clone();
    #[cfg(unix)]
    {
        static INSTALL: std::sync::Once = std::sync::Once::new();
        // SAFETY: `signal` is async-signal-safe to install; the handler
        // only performs a relaxed atomic store (no allocation, locking, or
        // unwinding), and `Once` guarantees a single installation, so no
        // data race on the handler slot is possible.
        INSTALL.call_once(|| unsafe {
            signal(SIGINT, handle_sigint as *const () as usize);
        });
    }
    token
}

/// Restores SIGPIPE's default disposition, which the Rust runtime sets to
/// "ignore": a command whose stdout reader goes away (`langeq info x.aut |
/// head -1`) then ends quietly, as a Unix filter does, instead of
/// panicking in `println!`. A no-op on non-Unix targets.
pub fn default_sigpipe() {
    #[cfg(unix)]
    // SAFETY: resetting a disposition to `SIG_DFL` installs no handler, so
    // no code runs in signal context; `main` calls this before any thread
    // starts.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(unix)]
const SIGINT: i32 = 2;

#[cfg(unix)]
const SIGPIPE: i32 = 13;

#[cfg(unix)]
const SIG_DFL: usize = 0;

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

#[cfg(unix)]
extern "C" fn handle_sigint(_signum: i32) {
    if let Some(token) = TOKEN.get() {
        if token.is_cancelled() {
            // Second Ctrl-C: the cooperative path is apparently too slow
            // for the user — abort hard.
            std::process::abort();
        }
        token.cancel();
    }
}
