//! Sparse-matrix file I/O.
//!
//! Two formats are supported so that the *original* paper matrices
//! (Boeing–Harwell BCSSTK*, NASA meshes) can be dropped into the benchmark
//! harness when available:
//!
//! * [`matrix_market`] — the NIST MatrixMarket coordinate format,
//! * [`harwell_boeing`] — the Harwell–Boeing (RSA/PSA/RUA) fixed-column
//!   Fortran format used by the original collection,
//! * [`chaco`] — the Chaco/METIS graph format (structure only).

pub mod chaco;
pub mod harwell_boeing;
pub mod matrix_market;

/// Capacity to reserve for `declared` entries a header announces: no more
/// than `input_len` bytes of text can hold at one entry per two bytes (a
/// digit and a separator), so a header that lies cannot make a reader
/// reserve memory the payload could never fill.
pub(crate) fn capacity_for(declared: usize, input_len: u64) -> usize {
    declared.min(usize::try_from(input_len / 2 + 1).unwrap_or(usize::MAX))
}

pub use chaco::{read_chaco, read_chaco_str, write_chaco, write_chaco_string};
pub use harwell_boeing::{read_harwell_boeing, read_harwell_boeing_str};
pub use matrix_market::{
    read_matrix_market, read_matrix_market_str, write_matrix_market, write_matrix_market_string,
};
