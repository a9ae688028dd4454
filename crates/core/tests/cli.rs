//! End-to-end tests of the `spectral-order` command-line binary.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_spectral-order")
}

fn write_test_matrix(dir: &std::path::Path) -> std::path::PathBuf {
    let g = meshgen::grid2d(10, 6);
    let scrambled = g.permute(&meshgen::scramble(60, 5)).unwrap();
    let a = scrambled.spd_matrix(1.0);
    let path = dir.join("grid.mtx");
    sparsemat::io::write_matrix_market(&path, &a).unwrap();
    path
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("spectral_order_cli_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn orders_a_matrix_market_file() {
    let dir = tmpdir("basic");
    let mtx = write_test_matrix(&dir);
    let out = Command::new(bin()).arg(&mtx).output().expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SPECTRAL"), "{stdout}");
    assert!(stdout.contains("envelope ="), "{stdout}");
}

#[test]
fn compare_mode_prints_table() {
    let dir = tmpdir("compare");
    let mtx = write_test_matrix(&dir);
    let out = Command::new(bin())
        .arg(&mtx)
        .arg("--compare")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["SPECTRAL", "GK", "GPS", "RCM", "Rank"] {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
}

#[test]
fn writes_permutation_and_matrix_and_spy() {
    let dir = tmpdir("outputs");
    let mtx = write_test_matrix(&dir);
    let perm = dir.join("perm.txt");
    let outm = dir.join("reordered.mtx");
    let spy = dir.join("spy.pgm");
    let out = Command::new(bin())
        .arg(&mtx)
        .args(["--alg", "rcm"])
        .arg("--perm")
        .arg(&perm)
        .arg("--out")
        .arg(&outm)
        .arg("--spy")
        .arg(&spy)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The permutation file is n lines of 1-based indices.
    let ptxt = std::fs::read_to_string(&perm).unwrap();
    let ids: Vec<usize> = ptxt.lines().map(|l| l.parse().unwrap()).collect();
    assert_eq!(ids.len(), 60);
    let mut sorted = ids.clone();
    sorted.sort();
    assert_eq!(sorted, (1..=60).collect::<Vec<_>>());
    // The permuted matrix reads back with the same size/nnz.
    let m = sparsemat::io::read_matrix_market(&outm).unwrap();
    assert_eq!(m.nrows(), 60);
    // PGM header present.
    let img = std::fs::read(&spy).unwrap();
    assert!(img.starts_with(b"P5\n"));
}

#[test]
fn metrics_flag_prints_extended_stats() {
    let dir = tmpdir("metrics");
    let mtx = write_test_matrix(&dir);
    let out = Command::new(bin())
        .arg(&mtx)
        .args(["--alg", "gk", "--metrics"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("frontwidth"), "{stdout}");
    assert!(stdout.contains("factor |L|"), "{stdout}");
}

#[test]
fn compressed_flag_reports_ratio() {
    // A 3-DOF block matrix: compression ratio 3.
    let dir = tmpdir("compressed");
    let base = meshgen::grid2d(6, 4);
    let g = meshgen::block_expand(&base, 3);
    let a = g.spd_matrix(1.0);
    let path = dir.join("block.mtx");
    sparsemat::io::write_matrix_market(&path, &a).unwrap();
    let out = Command::new(bin())
        .arg(&path)
        .args(["--alg", "rcm", "--compressed"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("compression ratio: 3.00"), "{stderr}");
}

#[test]
fn chaco_input_is_accepted() {
    let dir = tmpdir("chaco");
    let g = meshgen::grid2d(8, 5);
    let path = dir.join("grid.graph");
    sparsemat::io::write_chaco(&path, &g).unwrap();
    let out = Command::new(bin())
        .arg(&path)
        .args(["--alg", "gps"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("GPS: envelope ="), "{stdout}");
}

#[test]
fn mindeg_algorithm_via_cli() {
    let dir = tmpdir("mindeg");
    let mtx = write_test_matrix(&dir);
    let out = Command::new(bin())
        .arg(&mtx)
        .args(["--alg", "mindeg"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("MINDEG"));
}

#[test]
fn bad_algorithm_is_usage_error() {
    let dir = tmpdir("badalg");
    let mtx = write_test_matrix(&dir);
    let out = Command::new(bin())
        .arg(&mtx)
        .args(["--alg", "nonsense"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn missing_file_fails_cleanly() {
    let out = Command::new(bin())
        .arg("/nonexistent/matrix.mtx")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error reading"));
}

/// `spectral-orderd` belongs to the se-service package, so Cargo exports no
/// path for it to this one; a workspace build (`cargo test --workspace`)
/// puts it next to `spectral-order`.
fn orderd_bin() -> PathBuf {
    let path =
        Path::new(bin()).with_file_name(format!("spectral-orderd{}", std::env::consts::EXE_SUFFIX));
    assert!(
        path.exists(),
        "{} is not built; run `cargo test --workspace` or `cargo build -p se-service` first",
        path.display()
    );
    path
}

/// A daemon child process, killed if the test fails before its SHUTDOWN.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts a daemon command, waits for its `listening on ADDR` line, stops
/// it with SHUTDOWN and asserts a clean exit.
fn serve_and_shutdown(cmd: &mut Command) {
    let mut daemon = Daemon(
        cmd.stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon starts"),
    );
    let mut line = String::new();
    BufReader::new(daemon.0.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let Some(addr) = line
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
    else {
        let mut stderr = String::new();
        let _ = std::io::Read::read_to_string(daemon.0.stderr.as_mut().unwrap(), &mut stderr);
        panic!("no listening line: stdout {line:?}, stderr {stderr:?}");
    };
    let mut client = se_service::Client::connect(addr).expect("connect to the daemon");
    client.shutdown().expect("SHUTDOWN is acknowledged");
    let status = daemon.0.wait().unwrap();
    assert!(status.success(), "{status}");
}

#[test]
fn serve_accepts_the_mesh_flags() {
    serve_and_shutdown(Command::new(bin()).args([
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--peer-heartbeat-ms",
        "100",
        "--hint-cap",
        "8",
    ]));
}

#[test]
fn orderd_accepts_the_serve_flags() {
    serve_and_shutdown(Command::new(orderd_bin()).args([
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "2",
        "--log-requests",
        "--cache-dir-budget",
        "1000000",
    ]));
}

#[test]
fn both_daemon_entry_points_print_the_same_help() {
    let serve = Command::new(bin())
        .args(["serve", "--help"])
        .output()
        .unwrap();
    let orderd = Command::new(orderd_bin()).arg("--help").output().unwrap();
    assert!(serve.status.success(), "{}", serve.status);
    assert!(orderd.status.success(), "{}", orderd.status);
    // Both list exactly the shared option table after their usage line.
    let options = |out: &[u8]| {
        let text = String::from_utf8_lossy(out).into_owned();
        text.split_once('\n')
            .expect("usage line")
            .1
            .trim_end()
            .to_string()
    };
    assert_eq!(options(&serve.stdout), se_service::SERVE_USAGE.trim_end());
    assert_eq!(options(&orderd.stdout), se_service::SERVE_USAGE.trim_end());
}

#[test]
fn serve_rejects_an_overflowing_cache_size() {
    let out = Command::new(bin())
        .args(["serve", "--cache-mb", "17592186044416"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("overflows"));
}
