//! Observability substrate for the ZCOMP reproduction.
//!
//! Independent facilities, layered from always-on to opt-in:
//!
//! * [`log`] — a leveled stderr logger controlled by the `ZCOMP_LOG`
//!   environment variable (or [`log::set_level`]), always compiled in.
//! * [`tracer`] — span/instant/counter event recording behind the `trace`
//!   cargo feature. With the feature off every entry point is an empty
//!   `#[inline]` function and [`tracer::SpanGuard`] is zero-sized, so the
//!   disabled path compiles to a no-op. With the feature on, recording is
//!   additionally gated at runtime by a session flag
//!   ([`tracer::session_start`]), so merely linking the tracer changes
//!   nothing until a tool such as `trace_run` opens a session.
//! * [`hash`] — the workspace's one CRC32 and one FNV-1a, shared by every
//!   layer that checksums or names bytes.
//!
//! Recorded events export to two formats: Chrome `trace_event` JSON
//! ([`chrome::export`], loadable in Perfetto / `chrome://tracing`) and a
//! compact CSV time series of counter samples ([`csv::counter_csv`]).
//! [`chrome::validate`] re-parses an exported trace and checks the
//! invariants Perfetto relies on (balanced begin/end pairs per thread,
//! monotonic timestamps), so CI can fail on a malformed trace.

pub mod chrome;
pub mod csv;
pub mod hash;
pub mod log;
pub mod tracer;
