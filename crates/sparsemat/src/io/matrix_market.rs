//! MatrixMarket coordinate-format reader/writer.
//!
//! Supports `matrix coordinate {real|integer|pattern} {general|symmetric|
//! skew-symmetric}`. Pattern entries get value 1.0; symmetric files are
//! expanded to full storage on read (the representation used everywhere in
//! this workspace).

use crate::{CooMatrix, CsrMatrix, Result, SparseError};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Reads a MatrixMarket file from a path.
pub fn read_matrix_market(path: impl AsRef<Path>) -> Result<CsrMatrix> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    read_matrix_market_reader(BufReader::new(file), len)
}

/// Reads a MatrixMarket matrix from an in-memory string.
pub fn read_matrix_market_str(s: &str) -> Result<CsrMatrix> {
    read_matrix_market_reader(BufReader::new(s.as_bytes()), s.len() as u64)
}

/// Parses `len` bytes of MatrixMarket text.
fn read_matrix_market_reader<R: Read>(reader: BufReader<R>, len: u64) -> Result<CsrMatrix> {
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| SparseError::Parse("empty file".into()))??;
    let header_lc = header.to_ascii_lowercase();
    let tokens: Vec<&str> = header_lc.split_whitespace().collect();
    if tokens.len() < 5 || !tokens[0].starts_with("%%matrixmarket") {
        return Err(SparseError::Parse(format!(
            "not a MatrixMarket header: {header}"
        )));
    }
    if tokens[1] != "matrix" || tokens[2] != "coordinate" {
        return Err(SparseError::Parse(format!(
            "only 'matrix coordinate' supported, got '{} {}'",
            tokens[1], tokens[2]
        )));
    }
    let field = match tokens[3] {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => {
            return Err(SparseError::Parse(format!(
                "unsupported field type '{other}' (complex not supported)"
            )))
        }
    };
    let symmetry = match tokens[4] {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => {
            return Err(SparseError::Parse(format!(
                "unsupported symmetry '{other}' (hermitian not supported)"
            )))
        }
    };

    // Skip comments, find size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some(line);
        break;
    }
    let size_line = size_line.ok_or_else(|| SparseError::Parse("missing size line".into()))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|e| SparseError::Parse(format!("bad size token '{t}': {e}")))
        })
        .collect::<Result<_>>()?;
    if dims.len() != 3 {
        return Err(SparseError::Parse(format!(
            "size line must have 3 fields, got {}",
            dims.len()
        )));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);

    let cap = super::capacity_for(nnz.saturating_mul(2), len);
    let mut coo = CooMatrix::with_capacity(nrows, ncols, cap);
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| SparseError::Parse("missing row index".into()))?
            .parse()
            .map_err(|e| SparseError::Parse(format!("bad row index: {e}")))?;
        let c: usize = it
            .next()
            .ok_or_else(|| SparseError::Parse("missing column index".into()))?
            .parse()
            .map_err(|e| SparseError::Parse(format!("bad column index: {e}")))?;
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(SparseError::Parse(format!(
                "entry ({r},{c}) outside 1..{nrows} x 1..{ncols}"
            )));
        }
        let v = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => it
                .next()
                .ok_or_else(|| SparseError::Parse("missing value".into()))?
                .parse::<f64>()
                .map_err(|e| SparseError::Parse(format!("bad value: {e}")))?,
        };
        let (r0, c0) = (r - 1, c - 1);
        coo.push(r0, c0, v)?;
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric => {
                if r0 != c0 {
                    coo.push(c0, r0, v)?;
                }
            }
            Symmetry::SkewSymmetric => {
                if r0 != c0 {
                    coo.push(c0, r0, -v)?;
                }
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::Parse(format!(
            "header declares {nnz} entries, file has {seen}"
        )));
    }
    Ok(coo.to_csr())
}

/// Writes `a` in MatrixMarket coordinate format. If `a` is numerically
/// symmetric, only the lower triangle is written with `symmetric` tagging.
pub fn write_matrix_market(path: impl AsRef<Path>, a: &CsrMatrix) -> Result<()> {
    let mut file = std::fs::File::create(path)?;
    let s = write_matrix_market_string(a);
    file.write_all(s.as_bytes())?;
    Ok(())
}

/// Renders `a` as a MatrixMarket string (see [`write_matrix_market`]).
pub fn write_matrix_market_string(a: &CsrMatrix) -> String {
    let symmetric = a.is_symmetric(1e-14);
    let mut out = String::new();
    if symmetric {
        out.push_str("%%MatrixMarket matrix coordinate real symmetric\n");
        let nnz = a.iter().filter(|&(r, c, _)| r >= c).count();
        out.push_str(&format!("{} {} {}\n", a.nrows(), a.ncols(), nnz));
        for (r, c, v) in a.iter() {
            if r >= c {
                out.push_str(&format!("{} {} {:.17e}\n", r + 1, c + 1, v));
            }
        }
    } else {
        out.push_str("%%MatrixMarket matrix coordinate real general\n");
        out.push_str(&format!("{} {} {}\n", a.nrows(), a.ncols(), a.nnz()));
        for (r, c, v) in a.iter() {
            out.push_str(&format!("{} {} {:.17e}\n", r + 1, c + 1, v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_general_real() {
        let s = "%%MatrixMarket matrix coordinate real general\n\
                 % a comment\n\
                 2 3 3\n\
                 1 1 1.5\n\
                 2 3 -2.0\n\
                 1 2 4\n";
        let a = read_matrix_market_str(s).unwrap();
        assert_eq!(a.nrows(), 2);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a.get(0, 0), Some(1.5));
        assert_eq!(a.get(1, 2), Some(-2.0));
        assert_eq!(a.get(0, 1), Some(4.0));
    }

    #[test]
    fn parse_symmetric_expands() {
        let s = "%%MatrixMarket matrix coordinate real symmetric\n\
                 3 3 3\n\
                 1 1 2.0\n\
                 2 1 -1.0\n\
                 3 3 2.0\n";
        let a = read_matrix_market_str(s).unwrap();
        assert_eq!(a.get(0, 1), Some(-1.0));
        assert_eq!(a.get(1, 0), Some(-1.0));
        assert_eq!(a.nnz(), 4);
    }

    #[test]
    fn parse_pattern() {
        let s = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                 2 2 2\n\
                 1 1\n\
                 2 1\n";
        let a = read_matrix_market_str(s).unwrap();
        assert_eq!(a.get(1, 0), Some(1.0));
        assert_eq!(a.get(0, 1), Some(1.0));
    }

    #[test]
    fn parse_skew_symmetric() {
        let s = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                 2 2 1\n\
                 2 1 3.0\n";
        let a = read_matrix_market_str(s).unwrap();
        assert_eq!(a.get(1, 0), Some(3.0));
        assert_eq!(a.get(0, 1), Some(-3.0));
    }

    #[test]
    fn reject_bad_header() {
        assert!(read_matrix_market_str("garbage\n1 1 0\n").is_err());
    }

    #[test]
    fn reject_complex() {
        let s = "%%MatrixMarket matrix coordinate complex general\n1 1 0\n";
        assert!(read_matrix_market_str(s).is_err());
    }

    #[test]
    fn reject_wrong_count() {
        let s = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market_str(s).is_err());
    }

    #[test]
    fn header_entry_count_cannot_size_allocations() {
        // A 20-byte size line must not reserve room for 2·10¹⁴ entries.
        for nnz in ["100000000000000", "18446744073709551615"] {
            let s = format!("%%MatrixMarket matrix coordinate pattern symmetric\n1 1 {nnz}\n1 1\n");
            assert!(read_matrix_market_str(&s).is_err(), "{nnz}");
        }
    }

    #[test]
    fn reject_out_of_range_entry() {
        let s = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market_str(s).is_err());
    }

    #[test]
    fn roundtrip_symmetric() {
        let a = CsrMatrix::from_entries(
            3,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (2, 2, 1.0),
            ],
        )
        .unwrap();
        let s = write_matrix_market_string(&a);
        assert!(s.contains("symmetric"));
        let b = read_matrix_market_str(&s).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_general() {
        let a = CsrMatrix::from_entries(2, &[(0, 1, 3.25), (1, 1, -0.5)]).unwrap();
        let s = write_matrix_market_string(&a);
        assert!(s.contains("general"));
        let b = read_matrix_market_str(&s).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn file_roundtrip() {
        let a = CsrMatrix::identity(4);
        let dir = std::env::temp_dir().join("sparsemat_mm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("id4.mtx");
        write_matrix_market(&path, &a).unwrap();
        let b = read_matrix_market(&path).unwrap();
        assert_eq!(a, b);
    }
}
