//! Cross-crate integration tests live in `tests/tests/`; this library holds
//! the test-only reference code they (and the benches) share.

pub mod oracle;
