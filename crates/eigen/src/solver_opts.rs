//! The solve context [`SolverOpts`] and the named solver defaults.
//!
//! Every tolerance and iteration cap the eigensolvers use is a named,
//! documented constant here, and each per-solver option struct
//! ([`LanczosOptions`](crate::LanczosOptions),
//! [`RqiOptions`](crate::RqiOptions), [`MinresOptions`](crate::MinresOptions),
//! [`FiedlerOptions`]) holds only such numbers. What every solver shares —
//! the thread pool, the span recorder, the cooperative budget and the fault
//! plane — lives once in [`SolverOpts`], which each solver borrows as `ctx`.

use crate::multilevel::FiedlerOptions;
use se_faults::{Budget, FaultPlane};
use se_trace::Tracer;
use sparsemat::par::TaskPool;

/// Eigen-residual tolerance of the multilevel Fiedler solver, relative to
/// the Laplacian norm bound (the paper's accuracy regime: orderings are
/// insensitive to the trailing digits of the Fiedler vector).
pub const DEFAULT_FIEDLER_TOL: f64 = 1e-8;

/// Coarsest-graph size at which the multilevel scheme stops contracting and
/// solves directly with Lanczos (§3 of the paper uses ~100 vertices).
pub const DEFAULT_COARSEST_SIZE: usize = 100;

/// Jacobi-style smoothing passes applied after each interpolation.
pub const DEFAULT_SMOOTH_STEPS: usize = 2;

/// Maximum Krylov dimension for Lanczos.
pub const DEFAULT_LANCZOS_MAX_ITER: usize = 300;

/// Relative Ritz-residual tolerance for Lanczos convergence.
pub const DEFAULT_LANCZOS_TOL: f64 = 1e-10;

/// Seed of the deterministic random Lanczos start vector.
pub const DEFAULT_LANCZOS_SEED: u64 = 0x5EED_CAFE;

/// How often (in Lanczos steps) the convergence test runs.
pub const DEFAULT_LANCZOS_CHECK_EVERY: usize = 5;

/// Maximum outer Rayleigh-quotient-iteration steps per hierarchy level.
pub const DEFAULT_RQI_MAX_OUTER: usize = 12;

/// RQI eigen-residual tolerance (relative to the operator norm bound) when
/// RQI is used standalone; [`FiedlerOptions::default`] refines to
/// [`DEFAULT_FIEDLER_TOL`] instead, so refinement matches the outer target.
pub const DEFAULT_RQI_TOL: f64 = 1e-10;

/// Iteration cap of the MINRES solve *inside* an RQI step. Deliberately
/// lower than [`DEFAULT_MINRES_MAX_ITER`]: RQI only needs a direction, not
/// an accurate solve.
pub const DEFAULT_RQI_INNER_MAX_ITER: usize = 300;

/// Relative residual tolerance of the MINRES solve inside an RQI step
/// (loose, for the same reason).
pub const DEFAULT_RQI_INNER_RTOL: f64 = 1e-8;

/// Iteration cap for standalone MINRES solves.
pub const DEFAULT_MINRES_MAX_ITER: usize = 500;

/// Relative residual tolerance for standalone MINRES solves.
pub const DEFAULT_MINRES_RTOL: f64 = 1e-10;

/// The solve context: the four handles every solver stage shares.
///
/// This is what the `spectral-env` facade, the `spectral-order` CLI
/// (`--threads`) and the `spectral-orderd` service (`"threads"` request
/// field) construct. Solvers borrow it as `ctx: &SolverOpts` next to their
/// numeric options; [`SolverOpts::fiedler_options`] wraps it into the
/// multilevel [`FiedlerOptions`].
///
/// Results are **bit-identical for every pool size** — the pool's
/// reductions use a fixed chunk order (see [`sparsemat::par`]) — so the
/// thread count is purely a wall-clock knob.
///
/// ```
/// use se_eigen::SolverOpts;
///
/// let opts = SolverOpts::with_threads(4);
/// let fo = opts.fiedler_options();
/// assert_eq!(fo.pool.threads(), opts.pool.threads());
/// assert_eq!(fo.coarsest_size, se_eigen::solver_opts::DEFAULT_COARSEST_SIZE);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SolverOpts {
    /// Pool for every matvec, reduction and region. Serial by default
    /// ([`TaskPool::serial`]); without the crate's `parallel` feature every
    /// pool is serial. Long-lived hosts (the `spectral-orderd` engine) pass
    /// a cached pool through [`SolverOpts::with_pool`] so concurrent solves
    /// share workers instead of spawning their own.
    pub pool: TaskPool,
    /// Span recorder threaded through every pipeline stage. Disabled by
    /// default; an enabled tracer never changes numerical results.
    pub trace: Tracer,
    /// Cooperative deadline/cancel/matvec-cap token, checked at every
    /// solver iteration boundary. [`Budget::unlimited`] (the default) is a
    /// strict no-op.
    pub budget: Budget,
    /// Deterministic fault-injection plane threaded through every stage.
    /// [`FaultPlane::disabled`] (the default) is a strict no-op; solver
    /// results are bit-identical with a disabled plane.
    pub faults: FaultPlane,
}

impl SolverOpts {
    /// Defaults on a fresh pool of `threads` total threads (`1` = serial,
    /// `0` = all available cores) — the common CLI case. The pool is built
    /// here, once; clones of the context share its workers.
    pub fn with_threads(threads: usize) -> Self {
        SolverOpts::with_pool(TaskPool::new(threads))
    }

    /// Defaults on an externally owned pool (e.g. from a pool cache).
    pub fn with_pool(pool: TaskPool) -> Self {
        SolverOpts {
            pool,
            ..SolverOpts::default()
        }
    }

    /// The multilevel [`FiedlerOptions`] with default numbers, carrying
    /// this context's handles.
    pub fn fiedler_options(&self) -> FiedlerOptions {
        FiedlerOptions {
            pool: self.pool.clone(),
            trace: self.trace.clone(),
            budget: self.budget.clone(),
            faults: self.faults.clone(),
            ..FiedlerOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_by_default() {
        assert_eq!(SolverOpts::default().pool.threads(), 1);
        assert!(!SolverOpts::default().fiedler_options().pool.is_parallel());
    }

    #[test]
    fn fiedler_options_carry_the_context() {
        let ctx = SolverOpts {
            trace: Tracer::enabled(),
            budget: Budget::cancellable(),
            ..SolverOpts::with_threads(2)
        };
        let fo = ctx.fiedler_options();
        assert!(fo.trace.is_enabled());
        assert_eq!(fo.pool.threads(), ctx.pool.threads());
        // The budget is shared, not copied: cancelling one cancels both.
        ctx.budget.cancel();
        assert!(fo.budget.check().is_err());
        assert!(fo.context().budget.check().is_err());
    }

    #[test]
    fn injected_pool_is_reused_not_rebuilt() {
        let external = TaskPool::new(2);
        let s = SolverOpts::with_pool(external.clone());
        assert_eq!(s.pool.threads(), external.threads());
        let fo = s.fiedler_options();
        assert_eq!(fo.pool.threads(), external.threads());
        if external.is_parallel() {
            // Regions run through the injected pool show up in its stats —
            // proof the expansion shares workers instead of spawning anew.
            let before = external.stats().regions;
            let v: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
            let _ = fo.pool.dot(&v, &v);
            assert_eq!(external.stats().regions, before + 1);
        }
    }
}
