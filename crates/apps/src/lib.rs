//! # commchar-apps
//!
//! The seven application kernels the paper characterizes, implemented from
//! scratch with the parallelization structure the paper describes:
//!
//! **Shared memory** (run on the execution-driven CC-NUMA simulator,
//! [`commchar_spasm`]):
//!
//! - [`sm::fft1d`] — 1-D complex radix-2 FFT; three phases (local
//!   butterflies, all-to-all exchange, local butterflies).
//! - [`sm::is`] — Integer Sort: bucket-sort ranking with a shared bucket
//!   accumulation phase (the source of its favorite-processor pattern).
//! - [`sm::cholesky`] — banded sparse Cholesky factorization with a
//!   lock-protected dynamic task queue (SPLASH-style, data-dependent).
//! - [`sm::nbody`] — gravitational N-body; per-step phases: read all
//!   positions, accumulate forces, update owned bodies.
//! - [`sm::maxflow`] — Goldberg push–relabel maximum flow with a shared
//!   work queue and per-vertex locks (Anderson–Setubal parallelization).
//!
//! **Message passing** (run on the SP2-modelled runtime, [`commchar_sp2`]):
//!
//! - [`mp::fft3d`] — NAS 3D-FFT: z-plane decomposition, all-to-all
//!   transpose, p0-rooted broadcast/reduce each iteration.
//! - [`mp::mg`] — NAS MG: V-cycle multigrid with nearest-neighbour ghost
//!   exchange and a p0-rooted residual reduction.
//!
//! Two collective-shaped workloads extend the paper's set so the suite
//! can contrast topologies and routing policies on traffic with known
//! communication shapes:
//!
//! - [`mp::allreduce`] — ring allreduce (reduce-scatter + allgather),
//!   strictly nearest-neighbour traffic around the rank ring.
//! - [`mp::halo`] — 2-D *periodic* halo exchange with a conservative
//!   diffusion stencil; the process grid is itself a torus, so wraparound
//!   network links carry its boundary exchanges natively.
//!
//! Every kernel checks its own numerical output (against closed forms or a
//! sequential reference in tests) so the traffic being characterized comes
//! from *correct* executions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mp;
pub mod sm;
pub mod util;

use commchar_mesh::NetLog;
use commchar_trace::CommTrace;

/// Which strategy runs the application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppClass {
    /// Dynamic strategy: execution-driven CC-NUMA simulation.
    SharedMemory,
    /// Static strategy: traced message-passing execution.
    MessagePassing,
}

/// The largest processor count any kernel runs on: one mesh node per
/// processor, and the CC-NUMA machine's full-map directory.
pub const MAX_PROCS: usize = 4096;

impl AppClass {
    /// Label used in report tables.
    pub fn name(self) -> &'static str {
        match self {
            AppClass::SharedMemory => "shared-memory",
            AppClass::MessagePassing => "message-passing",
        }
    }
}

/// Problem-size scaling for tests, experiments and benches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Smallest sizes, for unit/integration tests.
    Tiny,
    /// Default experiment sizes.
    Small,
    /// Larger runs for benchmark tables.
    Full,
}

impl Scale {
    /// Lowercase label, matching the CLI's `--scale` values.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }
}

/// The uniform output of one application run.
#[derive(Debug)]
pub struct AppOutput {
    /// Application name (lowercase, as in the paper's tables).
    pub name: &'static str,
    /// Strategy class.
    pub class: AppClass,
    /// Processor count used.
    pub nprocs: usize,
    /// The communication trace.
    pub trace: CommTrace,
    /// Network log (dynamic strategy only; static traces are replayed
    /// through the mesh separately).
    pub netlog: Option<NetLog>,
    /// Simulated execution time in ticks (cycles or SP2 ticks).
    pub exec_ticks: u64,
    /// Application-specific correctness figure (e.g. residual, checksum).
    pub check: f64,
}

/// Identifier for each of the seven applications.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppId {
    /// 1-D FFT (shared memory).
    Fft1d,
    /// Integer Sort (shared memory).
    Is,
    /// Sparse Cholesky factorization (shared memory).
    Cholesky,
    /// N-body (shared memory).
    Nbody,
    /// Goldberg maximum flow (shared memory).
    Maxflow,
    /// NAS 3D-FFT (message passing).
    Fft3d,
    /// NAS MG multigrid (message passing).
    Mg,
    /// Ring allreduce collective (message passing).
    Allreduce,
    /// 2-D periodic halo exchange (message passing).
    Halo,
}

impl AppId {
    /// All applications: the paper's seven in presentation order, then
    /// the collective-shaped additions.
    pub fn all() -> &'static [AppId] {
        &[
            AppId::Fft1d,
            AppId::Is,
            AppId::Cholesky,
            AppId::Nbody,
            AppId::Maxflow,
            AppId::Fft3d,
            AppId::Mg,
            AppId::Allreduce,
            AppId::Halo,
        ]
    }

    /// Lowercase name as used in the tables.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Fft1d => "1d-fft",
            AppId::Is => "is",
            AppId::Cholesky => "cholesky",
            AppId::Nbody => "nbody",
            AppId::Maxflow => "maxflow",
            AppId::Fft3d => "3d-fft",
            AppId::Mg => "mg",
            AppId::Allreduce => "allreduce",
            AppId::Halo => "halo",
        }
    }

    /// Strategy class.
    pub fn class(self) -> AppClass {
        match self {
            AppId::Fft3d | AppId::Mg | AppId::Allreduce | AppId::Halo => AppClass::MessagePassing,
            _ => AppClass::SharedMemory,
        }
    }

    /// Checks `nprocs` against this kernel's requirements at `scale` —
    /// exactly the processor counts on which [`AppId::run`] would panic —
    /// so a driver can report a bad count as one line instead.
    ///
    /// # Errors
    ///
    /// A message naming the kernel, the count and what it needs.
    pub fn check_procs(self, nprocs: usize, scale: Scale) -> Result<(), String> {
        if !(1..=MAX_PROCS).contains(&nprocs) {
            return Err(format!("processor count must be between 1 and {MAX_PROCS}, got {nprocs}"));
        }
        let divides = |n: usize, what: &str| {
            n.is_multiple_of(nprocs).then_some(()).ok_or(format!("a divisor of its {n} {what}"))
        };
        let needs = match self {
            AppId::Fft1d => {
                let n = sm::fft1d::points(scale);
                (nprocs.is_power_of_two() && 2 * nprocs <= n)
                    .then_some(())
                    .ok_or(format!("a power of two of at most {}", n / 2))
            }
            AppId::Is => divides(sm::is::sizes(scale).0, "keys"),
            AppId::Nbody => divides(sm::nbody::sizes(scale).0, "bodies"),
            AppId::Fft3d => divides(mp::fft3d::grid(scale), "z-planes"),
            AppId::Mg => nprocs.is_power_of_two().then_some(()).ok_or("a power of two".to_string()),
            AppId::Allreduce | AppId::Halo => {
                (nprocs >= 2).then_some(()).ok_or("at least 2".to_string())
            }
            AppId::Cholesky | AppId::Maxflow => Ok(()),
        };
        needs.map_err(|need| {
            format!(
                "{self} cannot run on {nprocs} processors at {} scale: the count must be {need}",
                scale.name()
            )
        })
    }

    /// Runs the application at the given processor count and scale.
    ///
    /// # Panics
    ///
    /// Panics on processor counts [`AppId::check_procs`] rejects.
    pub fn run(self, nprocs: usize, scale: Scale) -> AppOutput {
        self.run_engine(nprocs, scale, commchar_mesh::EngineKind::Recurrence)
    }

    /// Like [`AppId::run`] but with an explicit closed-loop network engine.
    ///
    /// For shared-memory kernels (dynamic strategy) the engine sits inside
    /// the execution-driven simulation and steers it. Message-passing
    /// kernels use the static strategy — acquisition is engine-free and the
    /// engine choice applies when the trace is replayed — so `engine` is
    /// ignored here.
    ///
    /// # Panics
    ///
    /// Same constraints as [`AppId::run`].
    pub fn run_engine(
        self,
        nprocs: usize,
        scale: Scale,
        engine: commchar_mesh::EngineKind,
    ) -> AppOutput {
        self.run_sim(nprocs, scale, engine, 1)
    }

    /// Like [`AppId::run_engine`] with an explicit shard count for the
    /// execution-driven simulator's conservative-window parallel engine
    /// (`sim_jobs`; 1 = serial, 0 = one shard per hardware thread).
    ///
    /// The shard count never changes simulation results — traces are
    /// bit-identical for any value — only wall-clock time. Message-passing
    /// kernels acquire traces without the simulator, so `sim_jobs` is
    /// ignored there, like `engine`.
    ///
    /// # Panics
    ///
    /// Same constraints as [`AppId::run`].
    pub fn run_sim(
        self,
        nprocs: usize,
        scale: Scale,
        engine: commchar_mesh::EngineKind,
        sim_jobs: usize,
    ) -> AppOutput {
        self.run_net(nprocs, scale, engine, sim_jobs, commchar_mesh::MeshConfig::for_nodes(nprocs))
    }

    /// Like [`AppId::run_sim`] with an explicit network configuration —
    /// topology (mesh or torus), routing policy and virtual-channel
    /// budget. Shared-memory kernels run with `mesh` inside the closed
    /// loop, so wraparound links and the routing policy steer their
    /// execution; message-passing kernels acquire their traces network-free
    /// (the configuration applies at causal replay), so `mesh` is ignored
    /// there, like `engine` and `sim_jobs`.
    ///
    /// # Panics
    ///
    /// Same constraints as [`AppId::run`], plus `mesh` must have at least
    /// `nprocs` nodes.
    pub fn run_net(
        self,
        nprocs: usize,
        scale: Scale,
        engine: commchar_mesh::EngineKind,
        sim_jobs: usize,
        mesh: commchar_mesh::MeshConfig,
    ) -> AppOutput {
        let cfg = commchar_spasm::MachineConfig::new(nprocs)
            .with_mesh(mesh)
            .with_engine(engine)
            .with_sim_jobs(sim_jobs);
        match self {
            AppId::Fft1d => sm::fft1d::run_cfg(cfg, scale),
            AppId::Is => sm::is::run_cfg(cfg, scale),
            AppId::Cholesky => sm::cholesky::run_cfg(cfg, scale),
            AppId::Nbody => sm::nbody::run_cfg(cfg, scale),
            AppId::Maxflow => sm::maxflow::run_cfg(cfg, scale),
            AppId::Fft3d => mp::fft3d::run(nprocs, scale),
            AppId::Mg => mp::mg::run(nprocs, scale),
            AppId::Allreduce => mp::allreduce::run(nprocs, scale),
            AppId::Halo => mp::halo::run(nprocs, scale),
        }
    }
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_procs_accepts_the_suite_counts_and_names_what_is_wrong() {
        for &app in AppId::all() {
            for procs in [2, 4, 8] {
                for scale in [Scale::Tiny, Scale::Small, Scale::Full] {
                    assert_eq!(app.check_procs(procs, scale), Ok(()), "{app} p={procs}");
                }
            }
            assert!(app.check_procs(0, Scale::Small).is_err(), "{app}");
            assert!(app.check_procs(MAX_PROCS + 1, Scale::Small).is_err(), "{app}");
        }
        let err = AppId::Is.check_procs(3, Scale::Small).unwrap_err();
        assert!(err.contains("divisor of its 8192 keys"), "{err}");
        assert!(AppId::Fft1d.check_procs(6, Scale::Full).is_err());
        assert!(AppId::Fft3d.check_procs(16, Scale::Tiny).is_err());
        assert!(AppId::Allreduce.check_procs(1, Scale::Tiny).is_err());
        assert_eq!(AppId::Halo.check_procs(3, Scale::Tiny), Ok(()));
    }
}
