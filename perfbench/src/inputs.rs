//! The three workloads: their inputs, platforms and cells, generated
//! from the seed. Building a [`Plan`] is the benchmark's set-up.

use memsched_experiments::{figures, prefix_route};
use memsched_model::{TaskSet, TaskSetBuilder};
use memsched_platform::{PlatformSpec, Scheduler, PAPER_MEMORY_BYTES};
use memsched_schedulers::{
    DartsConfig, DartsScheduler, DmdaScheduler, EagerScheduler, HfpScheduler, HmetisRScheduler,
    NamedScheduler, PartitionerOptions, RouterScheduler,
};
use memsched_workloads::constants::{TILE_BYTES, TILE_GEMM_FLOPS};
use memsched_workloads::TrafficGen;
use std::time::Instant;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 53 cells of the paper's Figure 5.
    PaperFig05,
    /// One memory-pressured 262 144-task EAGER run on 8 GPUs, 4 buses.
    EngineXl,
    /// 20 000 shared-prefix requests served online by four policies.
    ServePrefix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFig05,
        Workload::EngineXl,
        Workload::ServePrefix,
    ];

    /// Command-line name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::PaperFig05 => "paper_fig05",
            Workload::EngineXl => "engine_xl",
            Workload::ServePrefix => "serve_prefix",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The scheduler families the benchmark reports on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// EAGER.
    Eager,
    /// DMDAR.
    Dmdar,
    /// DARTS with LRU eviction.
    Darts,
    /// DARTS+LUF.
    DartsLuf,
    /// hMETIS+R.
    HmetisR,
    /// mHFP.
    Mhfp,
    /// The residency-aware Router.
    Router,
}

impl Family {
    /// Every family, in report order.
    pub const ALL: [Family; 7] = [
        Family::Eager,
        Family::Dmdar,
        Family::Darts,
        Family::DartsLuf,
        Family::HmetisR,
        Family::Mhfp,
        Family::Router,
    ];

    /// Metric-name key (`schedulers.<key>.hooks_s`).
    pub fn key(&self) -> &'static str {
        match self {
            Family::Eager => "eager",
            Family::Dmdar => "dmdar",
            Family::Darts => "darts",
            Family::DartsLuf => "darts_luf",
            Family::HmetisR => "hmetis_r",
            Family::Mhfp => "mhfp",
            Family::Router => "router",
        }
    }

    /// The family of a figure's scheduler, if the benchmark covers it.
    pub fn of(named: &NamedScheduler) -> Option<Family> {
        match named {
            NamedScheduler::Eager => Some(Family::Eager),
            NamedScheduler::Dmdar => Some(Family::Dmdar),
            NamedScheduler::Darts => Some(Family::Darts),
            NamedScheduler::DartsLuf => Some(Family::DartsLuf),
            NamedScheduler::HmetisR => Some(Family::HmetisR),
            NamedScheduler::Mhfp => Some(Family::Mhfp),
            NamedScheduler::Router => Some(Family::Router),
            _ => None,
        }
    }

    /// Build the scheduler. `seed` seeds the randomized tie-breaks of
    /// DARTS and the partitioner of hMETIS+R; the other families are
    /// deterministic without one.
    pub fn build(&self, seed: u64) -> Box<dyn Scheduler + Send> {
        match self {
            Family::Eager => Box::new(EagerScheduler::new()),
            Family::Dmdar => Box::new(DmdaScheduler::dmdar()),
            Family::Darts => Box::new(DartsScheduler::new(DartsConfig::lru().with_seed(seed))),
            Family::DartsLuf => Box::new(DartsScheduler::new(DartsConfig::luf().with_seed(seed))),
            Family::HmetisR => Box::new(HmetisRScheduler::with_options(PartitionerOptions {
                seed,
                ..PartitionerOptions::default()
            })),
            Family::Mhfp => Box::new(HfpScheduler::new()),
            Family::Router => Box::new(RouterScheduler::new()),
        }
    }
}

/// What kind of task set an input is, which fixes how its flops are
/// checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Blocked GEMM over 960×960 fp32 tiles.
    Gemm,
    /// Prefix-tree requests (flops proportional to path bytes).
    Prefix,
}

/// One generated task set with its platform.
pub struct Input {
    /// Human label.
    pub label: String,
    /// The task set.
    pub ts: TaskSet,
    /// The platform it runs on.
    pub spec: PlatformSpec,
    /// Served online through the admission loop (arrival-stamped).
    pub online: bool,
    /// Task-set kind.
    pub kind: Kind,
}

/// One simulated run: an input under a scheduler family.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Index into [`Plan::inputs`].
    pub input: usize,
    /// Scheduler family.
    pub family: Family,
    /// Run through `run_observed` with an in-memory probe (the extra
    /// Router cell of `serve_prefix`).
    pub observed: bool,
}

/// A workload's inputs and cells for one seed.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed everything was generated from.
    pub seed: u64,
    /// Generated inputs.
    pub inputs: Vec<Input>,
    /// Cells, in execution order.
    pub cells: Vec<Cell>,
    /// Host nanoseconds spent generating the task sets (the workloads
    /// layer's share of set-up).
    pub build_ns: u64,
}

/// Requests in the `serve_prefix` stream.
pub const SERVE_REQUESTS: usize = 20_000;
/// Poisson arrival rate of the `serve_prefix` stream.
pub const SERVE_RATE_PER_SEC: f64 = 2_000.0;
/// Cache pressure of the `serve_prefix` platform (tree bytes over
/// aggregate GPU memory).
pub const SERVE_PRESSURE: f64 = 2.0;
/// Grid dimension of `engine_xl` (`n³` tasks).
pub const ENGINE_XL_N: usize = 64;

impl Plan {
    /// Generate `workload`'s inputs from `seed`.
    pub fn build(workload: Workload, seed: u64) -> Plan {
        let mut build_ns = 0;
        let mut timed = |f: &mut dyn FnMut() -> TaskSet| {
            let t = Instant::now();
            let ts = f();
            build_ns += t.elapsed().as_nanos() as u64;
            ts
        };
        let (inputs, cells) = match workload {
            Workload::PaperFig05 => {
                let fig = figures::fig05();
                let mut inputs = Vec::new();
                let mut cells = Vec::new();
                for point in &fig.points {
                    let ts = timed(&mut || point.workload.generate());
                    for named in &point.schedulers {
                        let family = Family::of(named).unwrap_or_else(|| {
                            panic!("fig05 runs {named:?}, which the benchmark does not cover")
                        });
                        cells.push(Cell {
                            input: inputs.len(),
                            family,
                            observed: false,
                        });
                    }
                    inputs.push(Input {
                        label: point.workload.label(),
                        ts,
                        spec: fig.spec.clone(),
                        online: false,
                        kind: Kind::Gemm,
                    });
                }
                (inputs, cells)
            }
            Workload::EngineXl => {
                let ts = timed(&mut || gemm_3d_shuffled_k(ENGINE_XL_N, seed));
                let spec = PlatformSpec::v100_multibus(8, 4).with_memory(PAPER_MEMORY_BYTES);
                let input = Input {
                    label: format!("gemm3d(n={ENGINE_XL_N}, k-order seed {seed})"),
                    ts,
                    spec,
                    online: false,
                    kind: Kind::Gemm,
                };
                let cell = Cell {
                    input: 0,
                    family: Family::Eager,
                    observed: false,
                };
                (vec![input], vec![cell])
            }
            Workload::ServePrefix => {
                let cfg = prefix_route::SweepConfig {
                    tasks: SERVE_REQUESTS,
                    rate_per_sec: SERVE_RATE_PER_SEC,
                    seed,
                };
                let ts = timed(&mut || prefix_route::sweep_taskset(&cfg));
                let spec = prefix_route::sweep_spec(&ts, SERVE_PRESSURE);
                let mut cells: Vec<Cell> = prefix_route::schedulers()
                    .iter()
                    .map(|named| Cell {
                        input: 0,
                        family: Family::of(named).expect("prefix_route runs covered families"),
                        observed: false,
                    })
                    .collect();
                cells.push(Cell {
                    input: 0,
                    family: Family::Router,
                    observed: true,
                });
                let input = Input {
                    label: format!(
                        "prefix serving_default({SERVE_REQUESTS} requests, seed {seed})"
                    ),
                    ts,
                    spec,
                    online: true,
                    kind: Kind::Prefix,
                };
                (vec![input], cells)
            }
        };
        Plan {
            workload,
            seed,
            inputs,
            cells,
            build_ns,
        }
    }

    /// Tasks simulated by one pass over every cell.
    pub fn tasks_per_pass(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| self.inputs[c.input].ts.num_tasks() as u64)
            .sum()
    }
}

/// 3D blocked GEMM (`n³` tile products `A_ik · B_kj`, the task set of
/// `memsched_workloads::gemm_3d`) where the seed draws, for every output
/// tile `C_ij`, the order of its `n` accumulation steps over `k`. The
/// sum is order-free, so every seed is a valid submission order of the
/// same product; the natural order is one of them.
pub fn gemm_3d_shuffled_k(n: usize, seed: u64) -> TaskSet {
    let mut rng = TrafficGen::new(seed);
    let mut b = TaskSetBuilder::new();
    let a: Vec<_> = (0..n * n).map(|_| b.add_data(TILE_BYTES)).collect();
    let bt: Vec<_> = (0..n * n).map(|_| b.add_data(TILE_BYTES)).collect();
    let mut ks: Vec<usize> = (0..n).collect();
    for i in 0..n {
        for j in 0..n {
            for x in (1..n).rev() {
                let y = (rng.next_u64() % (x as u64 + 1)) as usize;
                ks.swap(x, y);
            }
            for &k in &ks {
                b.add_task(&[a[i * n + k], bt[k * n + j]], TILE_GEMM_FLOPS);
            }
        }
    }
    b.build()
}
