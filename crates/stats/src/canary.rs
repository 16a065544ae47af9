//! Clippy canaries for the root `clippy.toml`: one construct per
//! configured rule of DESIGN.md §11, each under `#[expect]`. Deleting a
//! config entry leaves its expectation unfulfilled, and `-D warnings`
//! fails the lint stage. Compiled only under clippy.

#[expect(clippy::disallowed_types, reason = "canary: D001")]
fn _d001() -> std::collections::HashMap<u8, u8> {
    Default::default()
}

#[expect(clippy::disallowed_types, reason = "canary: D002")]
fn _d002() -> std::time::Instant {
    std::time::Instant::now()
}

#[expect(clippy::disallowed_types, reason = "canary: D003")]
fn _d003() -> std::hash::RandomState {
    Default::default()
}

#[expect(clippy::disallowed_methods, reason = "canary: D004")]
fn _d004() -> bool {
    std::env::var("PACT_JOBS").is_ok()
}
