//! Bench: the multilevel Fiedler solver of §3 versus plain Lanczos — the
//! speedup that makes the spectral ordering practical.

use meshgen::grid2d;
use se_bench::harness::Runner;
use se_eigen::lanczos::LanczosOptions;
use se_eigen::lobpcg::{lobpcg_smallest, LobpcgOptions};
use se_eigen::multilevel::{fiedler, fiedler_lanczos, FiedlerOptions};
use se_eigen::op::{constant_unit_vector, LaplacianOp};
use se_eigen::SolverOpts;

fn main() {
    let runner = Runner::new("fiedler");
    for (label, nx, ny) in [
        ("n=1024", 32, 32),
        ("n=4096", 64, 64),
        ("n=16384", 128, 128),
    ] {
        let g = grid2d(nx, ny);
        runner.bench(&format!("multilevel/{label}"), || {
            fiedler(&g, &FiedlerOptions::default()).expect("connected")
        });
        runner.bench(&format!("lobpcg/{label}"), || {
            let lop = LaplacianOp::new(&g);
            let deflate = vec![constant_unit_vector(g.n())];
            lobpcg_smallest(
                &lop,
                &deflate,
                None,
                &LobpcgOptions {
                    max_iter: 3000,
                    tol: 1e-7,
                    ..Default::default()
                },
            )
            .expect("connected")
        });
        // Plain Lanczos gets slow quickly; skip the largest size.
        if nx <= 64 {
            runner.bench(&format!("lanczos/{label}"), || {
                fiedler_lanczos(
                    &g,
                    &LanczosOptions {
                        max_iter: 600,
                        ..Default::default()
                    },
                    &SolverOpts::default(),
                )
                .expect("connected")
            });
        }
    }
}
