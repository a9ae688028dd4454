//! `spectral-orderd` — the persistent ordering daemon.
//!
//! ```text
//! spectral-orderd [options]
//! ```
//!
//! The options are those of `spectral-order serve` (one parser,
//! [`se_service::Config::from_args`]); `--help` lists them. The daemon
//! prints `listening on ADDR` once ready and exits after a client sends
//! `SHUTDOWN` (in-flight and queued work finishes first).

fn main() -> std::process::ExitCode {
    se_service::serve_cli("spectral-orderd", std::env::args().skip(1))
}
