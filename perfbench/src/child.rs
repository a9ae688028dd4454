//! Parts of a run measured in child processes of the benchmark.
//!
//! Every process gets an address-space layout of its own (the kernel
//! randomises where code, heap and stacks go), and on the 2-vCPU hosts
//! measured that alone moves the CPU time of the same short solve by up to
//! ±20 %, the same way for every solve in the process: RGG8-13 read
//! 26–40 ms from one process to the next, within a few percent inside
//! each, and 33–38 ms with the randomisation turned off. A run that takes
//! its samples in several processes reads the median over several
//! layouts, so its figures no longer hang on one draw.
//!
//! A child is the benchmark itself, started with `--child KIND` and the
//! arguments of that kind. It prints one JSON object as its last stdout
//! line and exits 0; its failed checks travel in that line's `tally`.

use crate::checks::Tally;
use crate::host::json_str;
use se_service::json::{parse, Json};
use std::process::Command;

/// Runs the benchmark binary as a child with `args`, waits for it, and
/// returns its last stdout line, parsed.
pub fn run(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("start child {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let tail: String = stderr
            .chars()
            .rev()
            .take(400)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        return Err(format!("child {args:?} exited with {}: {tail}", out.status));
    }
    let last = stdout.lines().last().unwrap_or("");
    parse(last).map_err(|e| format!("child {args:?} printed no result: {e:?}"))
}

/// A tally as a JSON object.
pub fn tally_json(t: &Tally) -> String {
    let messages: Vec<String> = t.messages.iter().map(|m| json_str(m)).collect();
    format!(
        "{{\"attempted\":{},\"failed\":{},\"degraded\":{},\"messages\":[{}]}}",
        t.attempted,
        t.failed,
        t.degraded,
        messages.join(",")
    )
}

/// The tally a child sent; a missing or malformed one counts as one
/// failed operation.
pub fn tally_from(j: &Json) -> Tally {
    let Some(t) = j.get("tally") else {
        let mut bad = Tally::default();
        bad.record(Err("child result has no tally".into()));
        return bad;
    };
    let count = |k: &str| t.get(k).and_then(Json::as_u64).unwrap_or(0);
    Tally {
        attempted: count("attempted"),
        failed: count("failed"),
        degraded: count("degraded"),
        messages: t
            .get("messages")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.as_str().map(str::to_string))
            .collect(),
    }
}

/// A list of numbers as a JSON array.
pub fn nums_json(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", items.join(","))
}

/// A JSON array of numbers; anything else reads as empty.
pub fn nums(j: Option<&Json>) -> Vec<f64> {
    j.and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}
