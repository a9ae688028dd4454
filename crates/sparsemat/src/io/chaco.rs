//! Chaco / METIS graph format reader/writer.
//!
//! The format of the mesh-partitioning world this paper's eigensolver came
//! from (Barnard–Simon's multilevel recursive spectral bisection shipped in
//! Chaco-adjacent tooling). Line 1: `n m [fmt]`; then one line per vertex
//! listing its (1-based) neighbors. `fmt` is `1`/`10`/`11` when edge and/or
//! vertex weights are present; weights are parsed and skipped (only the
//! structure matters for envelope reduction).

use crate::{Result, SparseError, SymmetricPattern};
use std::io::Write;
use std::path::Path;

/// Reads a Chaco/METIS graph file from a path.
pub fn read_chaco(path: impl AsRef<Path>) -> Result<SymmetricPattern> {
    read_chaco_str(&std::fs::read_to_string(path)?)
}

/// Reads a Chaco/METIS graph from an in-memory string.
///
/// One pass over the bytes: each vertex line is appended straight to the
/// CSR arrays as that vertex's row, which is then normalized in place
/// (self-loops dropped, sorted only when not already increasing,
/// duplicates merged). A symmetric listing, the common case, is checked in
/// O(nnz) and used as is; an asymmetric one is symmetrized through
/// [`SymmetricPattern::from_edges`], so the result always equals
/// `from_edges(n, listed pairs)`. Nothing is sized from the header alone:
/// buffers are capped by what the remaining input can hold.
pub fn read_chaco_str(s: &str) -> Result<SymmetricPattern> {
    let mut sc = Scanner { s, pos: 0 };
    // Header: the first line that is neither blank nor a % comment.
    loop {
        if sc.at_end() {
            return Err(SparseError::Parse("empty chaco file".into()));
        }
        match sc.skip_blank() {
            Some(b'%') | Some(b'\n') | None => sc.next_line(),
            Some(_) => break,
        }
    }
    let mut head = [""; 4];
    let mut fields = 0;
    while let Some(tok) = sc.token() {
        if fields < head.len() {
            head[fields] = tok;
        }
        fields += 1;
    }
    sc.next_line();
    if fields < 2 {
        return Err(SparseError::Parse(
            "chaco header needs at least 'n m'".into(),
        ));
    }
    let n: usize = head[0]
        .parse()
        .map_err(|e| SparseError::Parse(format!("bad vertex count: {e}")))?;
    let m: usize = head[1]
        .parse()
        .map_err(|e| SparseError::Parse(format!("bad edge count: {e}")))?;
    let fmt = if fields > 2 { head[2] } else { "0" };
    let has_vweights = fmt.len() >= 2 && fmt.as_bytes()[fmt.len() - 2] == b'1';
    let has_eweights = fmt.ends_with('1');
    // Optional 4th header token: number of vertex weights per vertex.
    let ncon: usize = if has_vweights {
        head[3].parse().unwrap_or(1)
    } else {
        0
    };

    // Every vertex line but the last ends in a newline.
    let rest = s.len() - sc.pos;
    let mut xadj = Vec::with_capacity(n.min(rest + 1) + 1);
    let mut adjncy = Vec::with_capacity(super::capacity_for(m.saturating_mul(2), rest as u64));
    xadj.push(0);
    let mut v = 0usize;
    while !sc.at_end() {
        let first = sc.skip_blank();
        if first == Some(b'%') {
            sc.next_line();
            continue;
        }
        if v >= n {
            if matches!(first, Some(b'\n') | None) {
                sc.next_line();
                continue;
            }
            return Err(SparseError::Parse(format!(
                "more than {n} vertex lines in chaco file"
            )));
        }
        for _ in 0..ncon {
            sc.token()
                .ok_or_else(|| SparseError::Parse(format!("vertex {v}: missing weight")))?;
        }
        let row = adjncy.len();
        while let Some(u) = sc
            .index()
            .map_err(|tok| SparseError::Parse(format!("vertex {v}: bad neighbor '{tok}'")))?
        {
            if u == 0 || u > n {
                return Err(SparseError::Parse(format!(
                    "vertex {v}: neighbor {u} outside 1..{n}"
                )));
            }
            if has_eweights {
                sc.token().ok_or_else(|| {
                    SparseError::Parse(format!("vertex {v}: missing edge weight"))
                })?;
            }
            adjncy.push(u - 1);
        }
        normalize_row(&mut adjncy, row, v);
        xadj.push(adjncy.len());
        v += 1;
        sc.next_line();
    }
    if v != n {
        return Err(SparseError::Parse(format!(
            "chaco file has {v} vertex lines, header says {n}"
        )));
    }
    let g = if is_symmetric(&xadj, &adjncy) {
        SymmetricPattern::from_normalized(n, xadj, adjncy)
    } else {
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|v| adjncy[xadj[v]..xadj[v + 1]].iter().map(move |&u| (v, u)))
            .collect();
        SymmetricPattern::from_edges(n, &edges)?
    };
    if g.num_edges() != m {
        // Tolerate, but only slightly: many files in the wild miscount.
        // Strictly symmetric inputs should match exactly.
        if g.num_edges().abs_diff(m) > m / 10 + 1 {
            return Err(SparseError::Parse(format!(
                "edge count mismatch: header {m}, file {}",
                g.num_edges()
            )));
        }
    }
    Ok(g)
}

/// Drops self-loops from the row `adjncy[start..]` of vertex `v` and makes
/// it strictly increasing, sorting only when the listing was not already.
fn normalize_row(adjncy: &mut Vec<usize>, start: usize, v: usize) {
    let mut len = start;
    let mut increasing = true;
    for i in start..adjncy.len() {
        let u = adjncy[i];
        if u == v {
            continue;
        }
        increasing &= len == start || adjncy[len - 1] < u;
        adjncy[len] = u;
        len += 1;
    }
    adjncy.truncate(len);
    if !increasing {
        let row = &mut adjncy[start..];
        row.sort_unstable();
        let mut kept = 0;
        for i in 0..row.len() {
            if kept == 0 || row[i] != row[kept - 1] {
                row[kept] = row[i];
                kept += 1;
            }
        }
        adjncy.truncate(start + kept);
    }
}

/// Whether CSR rows that are each strictly increasing hold every entry's
/// mirror. Visiting rows in increasing `v`, the entries `(u, v)` of row `u`
/// come up in increasing order too, so one cursor per row suffices: O(nnz).
fn is_symmetric(xadj: &[usize], adjncy: &[usize]) -> bool {
    let n = xadj.len() - 1;
    let mut cursor = xadj[..n].to_vec();
    for v in 0..n {
        for &u in &adjncy[xadj[v]..xadj[v + 1]] {
            if cursor[u] == xadj[u + 1] || adjncy[cursor[u]] != v {
                return false;
            }
            cursor[u] += 1;
        }
    }
    (0..n).all(|u| cursor[u] == xadj[u + 1])
}

/// A byte cursor over Chaco text with the line and token rules of
/// `str::lines` + `str::split_whitespace`: lines end at `\n`, and tokens are
/// separated by any Unicode whitespace.
struct Scanner<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.s.len()
    }

    /// Length in bytes of the whitespace character at `pos`, or 0 when the
    /// character there is not whitespace (or `pos` is at the end).
    fn space_len(&self, pos: usize) -> usize {
        match self.s.as_bytes().get(pos) {
            Some(b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c) => 1,
            Some(&b) if b >= 0x80 => match self.s[pos..].chars().next() {
                Some(c) if c.is_whitespace() => c.len_utf8(),
                _ => 0,
            },
            _ => 0,
        }
    }

    /// Skips whitespace up to (not past) the end of the line; returns the
    /// byte there, `b'\n'` at the end of the line, `None` at the end of
    /// the input.
    fn skip_blank(&mut self) -> Option<u8> {
        loop {
            let b = *self.s.as_bytes().get(self.pos)?;
            if b == b'\n' {
                return Some(b);
            }
            match self.space_len(self.pos) {
                0 => return Some(b),
                k => self.pos += k,
            }
        }
    }

    /// The next token on the current line, if any.
    fn token(&mut self) -> Option<&'a str> {
        match self.skip_blank() {
            None | Some(b'\n') => None,
            Some(_) => {
                let start = self.pos;
                while self.pos < self.s.len() && self.space_len(self.pos) == 0 {
                    self.pos += self.s[self.pos..].chars().next().map_or(1, char::len_utf8);
                }
                Some(&self.s[start..self.pos])
            }
        }
    }

    /// The next token on the current line parsed as a `usize` with the
    /// rules of `str::parse` (an optional `+`, then decimal digits, no
    /// overflow); `Err` carries a token that is not such a number.
    fn index(&mut self) -> std::result::Result<Option<usize>, &'a str> {
        let bytes = self.s.as_bytes();
        let mut i = match self.skip_blank() {
            None | Some(b'\n') => return Ok(None),
            Some(b'+') => self.pos + 1,
            Some(_) => self.pos,
        };
        let digits = i;
        let mut value = 0usize;
        while let Some(&b) = bytes.get(i) {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            match value
                .checked_mul(10)
                .and_then(|x| x.checked_add(d as usize))
            {
                Some(x) => value = x,
                None => return Err(self.token().unwrap_or_default()),
            }
            i += 1;
        }
        if i == digits || (i < bytes.len() && self.space_len(i) == 0) {
            return Err(self.token().unwrap_or_default());
        }
        self.pos = i;
        Ok(Some(value))
    }

    /// Moves past the end of the current line.
    fn next_line(&mut self) {
        let rest = &self.s.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |k| k + 1);
    }
}

/// Writes a pattern in Chaco/METIS format.
pub fn write_chaco(path: impl AsRef<Path>, g: &SymmetricPattern) -> Result<()> {
    std::fs::File::create(path)?.write_all(write_chaco_string(g).as_bytes())?;
    Ok(())
}

/// Renders a pattern as a Chaco/METIS format string.
pub fn write_chaco_string(g: &SymmetricPattern) -> String {
    let mut out = String::new();
    out.push_str(&format!("{} {}\n", g.n(), g.num_edges()));
    for v in 0..g.n() {
        let mut first = true;
        for &u in g.neighbors(v) {
            if !first {
                out.push(' ');
            }
            out.push_str(&(u + 1).to_string());
            first = false;
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_graph() {
        // Path 1-2-3 plus edge 1-3: triangle.
        let s = "3 3\n2 3\n1 3\n1 2\n";
        let g = read_chaco_str(s).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn parse_with_comments_and_blank_tail() {
        let s = "% a comment\n2 1\n2\n1\n\n";
        let g = read_chaco_str(s).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn parse_edge_weights_skipped() {
        let s = "3 2 1\n2 7\n1 7 3 9\n2 9\n";
        let g = read_chaco_str(s).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn parse_vertex_and_edge_weights() {
        // fmt 11: each vertex line starts with a vertex weight, edges carry
        // weights too.
        let s = "2 1 11\n5 2 4\n3 1 4\n";
        let g = read_chaco_str(s).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn reject_neighbor_out_of_range() {
        assert!(read_chaco_str("2 1\n3\n1\n").is_err());
    }

    #[test]
    fn header_counts_cannot_size_allocations() {
        // Neither count may reserve memory up front: the edge count is
        // capped by the payload and the vertex count by its lines.
        assert!(read_chaco_str("1 100000000000000\n\n").is_err());
        assert!(read_chaco_str("100000000000000 1\n2\n1\n").is_err());
        assert!(read_chaco_str("2 18446744073709551615\n2\n1\n").is_err());
    }

    #[test]
    fn reject_wrong_vertex_count() {
        assert!(read_chaco_str("3 1\n2\n1\n").is_err());
    }

    #[test]
    fn roundtrip() {
        let g = SymmetricPattern::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
            .unwrap();
        let s = write_chaco_string(&g);
        let h = read_chaco_str(&s).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn roundtrip_with_isolated_vertex() {
        let g = SymmetricPattern::from_edges(4, &[(0, 1)]).unwrap();
        let s = write_chaco_string(&g);
        let h = read_chaco_str(&s).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn file_roundtrip() {
        let g = SymmetricPattern::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let dir = std::env::temp_dir().join("sparsemat_chaco_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.graph");
        write_chaco(&path, &g).unwrap();
        assert_eq!(read_chaco(&path).unwrap(), g);
    }
}
