//! Clippy canary for `crates/bench/clippy.toml`: deleting its D004
//! entries (DESIGN.md §11) leaves this expectation unfulfilled, and
//! `-D warnings` fails the lint stage. Compiled only under clippy.

#[expect(clippy::disallowed_methods, reason = "canary: D004")]
fn _d004() -> bool {
    std::env::var("PACT_JOBS").is_ok()
}
