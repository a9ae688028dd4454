//! The single-pass Chaco reader against the line-based reader it replaced.
//!
//! `reference` below is that earlier reader, kept verbatim in behaviour:
//! it splits with `str::lines` + `split_whitespace`, collects every listed
//! `(v, u)` pair and hands them to `SymmetricPattern::from_edges`. On
//! seeded random texts that mix every feature of the format with the
//! usual defects, `read_chaco_str` must return exactly what `reference`
//! returns, or fail exactly where it fails.

use meshgen::standins::{standin, ALL_NAMES};
use se_prng::SmallRng;
use sparsemat::io::{read_chaco_str, write_chaco_string};
use sparsemat::{SparseError, SymmetricPattern};

fn reference(s: &str) -> Result<SymmetricPattern, SparseError> {
    let bad = |m: &str| SparseError::Parse(m.to_string());
    let mut lines = s.lines();
    let header = loop {
        let t = lines.next().ok_or_else(|| bad("empty"))?.trim();
        if !t.is_empty() && !t.starts_with('%') {
            break t;
        }
    };
    let head: Vec<&str> = header.split_whitespace().collect();
    if head.len() < 2 {
        return Err(bad("short header"));
    }
    let n: usize = head[0].parse().map_err(|_| bad("n"))?;
    let m: usize = head[1].parse().map_err(|_| bad("m"))?;
    let fmt = head.get(2).copied().unwrap_or("0");
    let has_vweights = fmt.len() >= 2 && fmt.as_bytes()[fmt.len() - 2] == b'1';
    let has_eweights = fmt.ends_with('1');
    let ncon: usize = if has_vweights {
        head.get(3).and_then(|t| t.parse().ok()).unwrap_or(1)
    } else {
        0
    };
    let mut edges = Vec::new();
    let mut v = 0usize;
    for line in lines {
        let t = line.trim();
        if t.starts_with('%') {
            continue;
        }
        if v >= n {
            if t.is_empty() {
                continue;
            }
            return Err(bad("extra line"));
        }
        let mut toks = t.split_whitespace();
        for _ in 0..ncon {
            toks.next().ok_or_else(|| bad("weight"))?;
        }
        while let Some(tok) = toks.next() {
            let u: usize = tok.parse().map_err(|_| bad("neighbor"))?;
            if u == 0 || u > n {
                return Err(bad("range"));
            }
            if has_eweights {
                toks.next().ok_or_else(|| bad("edge weight"))?;
            }
            edges.push((v, u - 1));
        }
        v += 1;
    }
    if v != n {
        return Err(bad("vertex count"));
    }
    let g = SymmetricPattern::from_edges(n, &edges)?;
    if g.num_edges() != m && g.num_edges().abs_diff(m) > m / 10 + 1 {
        return Err(bad("edge count"));
    }
    Ok(g)
}

/// One in `k`.
fn one_in(rng: &mut SmallRng, k: u32) -> bool {
    rng.gen_range(0..k) == 0
}

/// A separator between tokens: mostly a space, sometimes runs, tabs,
/// vertical tab, form feed, a lone CR or a non-ASCII Unicode space.
fn sep(rng: &mut SmallRng) -> &'static str {
    match rng.gen_range(0..40u32) {
        0 => "  ",
        1 => "\t",
        2 => " \u{0b}",
        3 => "\u{0c}",
        4 => "\r",
        5 => "\u{a0}",
        6 => "\u{3000}",
        _ => " ",
    }
}

/// A neighbor index as text: usually plain, sometimes with a leading `+`
/// or zeros; with `defects`, now and then an overflowing, negative or
/// malformed token.
fn index_token(rng: &mut SmallRng, u: usize, defects: bool) -> String {
    match rng.gen_range(if defects { 0..400u32 } else { 6..400u32 }) {
        0 => "99999999999999999999999".to_string(),
        1 => "18446744073709551616".to_string(),
        2 => format!("-{u}"),
        3 => format!("{u}x"),
        4 => "+".to_string(),
        5 => format!("{u}\u{e9}"),
        6..=15 => format!("+{u}"),
        16..=20 => format!("00{u}"),
        _ => u.to_string(),
    }
}

/// A seeded Chaco text: a random graph listed in both directions, then
/// perturbed with duplicates, self-loops, dropped mirrors, shuffled rows,
/// comments, blank lines, weights and CRLF endings. One text in three also
/// gets defects the format rejects: odd tokens, missing weights, a wrong
/// vertex-line count or a far-off edge count.
fn random_text(rng: &mut SmallRng) -> String {
    let defects = one_in(rng, 3);
    let n = rng.gen_range(1..=24usize);
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n];
    let target = rng.gen_range(0..=3 * n);
    for _ in 0..target {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            rows[a].push(b);
            rows[b].push(a);
        }
    }
    for row in &mut rows {
        row.sort_unstable();
        row.dedup();
    }
    let m_true = rows.iter().map(Vec::len).sum::<usize>() / 2;
    for (v, row) in rows.iter_mut().enumerate() {
        if one_in(rng, 12) && !row.is_empty() {
            let k = rng.gen_range(0..row.len());
            row.push(row[k]); // duplicate
        }
        if one_in(rng, 12) {
            row.push(v); // self-loop
        }
        if one_in(rng, 15) && !row.is_empty() {
            row.remove(rng.gen_range(0..row.len())); // drop one mirror
        }
        if one_in(rng, 15) {
            row.push(rng.gen_range(0..n)); // one-sided extra edge
        }
        if one_in(rng, 6) {
            rng.shuffle(row);
        }
    }
    let fmt = match rng.gen_range(0..8u32) {
        0 => Some("1"),
        1 => Some("10"),
        2 => Some("11"),
        3 => Some("0"),
        4 => Some("011"),
        _ => None,
    };
    let has_vweights = matches!(fmt, Some("10" | "11" | "011"));
    let has_eweights = matches!(fmt, Some("1" | "11" | "011"));
    let ncon = if has_vweights && one_in(rng, 3) {
        rng.gen_range(0..=2usize)
    } else {
        1
    };
    let eol = if one_in(rng, 4) { "\r\n" } else { "\n" };
    let m = match rng.gen_range(0..10u32) {
        0 if defects => rng.gen_range(0..=4 * n + 2),
        1 => m_true + 1,
        _ => m_true,
    };

    let mut out = String::new();
    if one_in(rng, 4) {
        out.push_str("% a comment line");
        out.push_str(eol);
    }
    if one_in(rng, 8) {
        out.push_str(eol); // blank line before the header
    }
    out.push_str(&format!("{}{}{m}", index_token(rng, n, defects), sep(rng)));
    if let Some(f) = fmt {
        out.push_str(&format!(" {f}"));
        if has_vweights && ncon != 1 {
            out.push_str(&format!(" {ncon}"));
        } else if one_in(rng, 10) {
            out.push_str(" 1");
        }
    }
    out.push_str(eol);
    let lines = match rng.gen_range(0..20u32) {
        0 if defects => n + 1,
        1 if defects => n - 1,
        _ => n,
    };
    for v in 0..lines {
        if one_in(rng, 10) {
            out.push_str(if one_in(rng, 2) { "%" } else { "  % indented" });
            out.push_str(eol);
        }
        if one_in(rng, 6) {
            out.push_str(sep(rng)); // leading whitespace
        }
        let mut first = true;
        let space = |out: &mut String, rng: &mut SmallRng, first: &mut bool| {
            if !*first {
                out.push_str(sep(rng));
            }
            *first = false;
        };
        for _ in 0..ncon {
            if !(defects && one_in(rng, 50)) {
                space(&mut out, rng, &mut first);
                out.push_str(&rng.gen_range(1..9usize).to_string());
            }
        }
        let row = rows.get(v).cloned().unwrap_or_default();
        for u in row {
            space(&mut out, rng, &mut first);
            out.push_str(&index_token(rng, u + 1, defects));
            if has_eweights && !(defects && one_in(rng, 60)) {
                space(&mut out, rng, &mut first);
                out.push_str(&rng.gen_range(1..99usize).to_string());
            }
        }
        if one_in(rng, 8) {
            out.push_str(sep(rng)); // trailing whitespace
        }
        out.push_str(eol);
    }
    for _ in 0..rng.gen_range(0..3usize) {
        out.push_str(eol); // blank trailing lines
    }
    if one_in(rng, 5) {
        out.truncate(out.trim_end_matches(['\r', '\n']).len()); // no final newline
    }
    out
}

#[test]
fn single_pass_reader_matches_reference_on_random_texts() {
    let mut rng = SmallRng::seed_from_u64(0xC4AC0);
    let (mut ok, mut err) = (0, 0);
    for case in 0..4000 {
        let s = random_text(&mut rng);
        match (reference(&s), read_chaco_str(&s)) {
            (Ok(want), Ok(got)) => {
                assert_eq!(got, want, "case {case}: different pattern for {s:?}");
                ok += 1;
            }
            (Err(_), Err(_)) => err += 1,
            (want, got) => panic!("case {case}: reference {want:?}, reader {got:?} for {s:?}"),
        }
    }
    // The generator must exercise both outcomes in earnest.
    assert!(ok > 1000 && err > 400, "{ok} parsed, {err} rejected");
}

#[test]
fn hand_picked_edge_cases_match_reference() {
    let cases = [
        "",
        "\n\n",
        "% only a comment\n",
        "3",
        "2 1\n2\n1",
        "2 1\n2\n1\n\n\n",
        "2 0\n\n",
        "2 0\n\n\n",
        "2 0\n \n\t\n",
        "+2 +1\n+2\n+1\n",
        "2 1 1\n2\n1 5\n",
        "2 1 11 0\n2 3\n1 3\n",
        "2 1 x1\n2 7\n1 7\n",
        "3 2\n2 3\n\n\n",
        "3 1\n2\n1\n3\n",
        "1 0\n1\n",
        "1 100000000000000\n\n",
        "2 1\n2\u{a0}\n1\u{2003}\n",
        "2 1\n2\u{e9}\n1\n",
        "18446744073709551616 1\n",
        "2 1\r\n2\r\n1\r\n",
        "2 1\n2\n% tail comment\n1\n% another\n",
        "2 1\n2\n1\nextra\n",
    ];
    for s in cases {
        match (reference(s), read_chaco_str(s)) {
            (Ok(want), Ok(got)) => assert_eq!(got, want, "{s:?}"),
            (Err(_), Err(_)) => {}
            (want, got) => panic!("reference {want:?}, reader {got:?} for {s:?}"),
        }
    }
}

#[test]
fn standins_round_trip_through_chaco_text() {
    for name in ALL_NAMES {
        let s = standin(name).expect("every listed name has a stand-in");
        if s.pattern.n() > 20_000 {
            continue;
        }
        let text = write_chaco_string(&s.pattern);
        assert_eq!(read_chaco_str(&text).unwrap(), s.pattern, "{name}");
    }
}
