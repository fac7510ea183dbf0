//! One pass: every cell of a plan run once, in order, on this thread.

use crate::alloc;
use crate::inputs::{Cell, Input, Plan, Workload};
use crate::timing::{HookStats, Timed};
use memsched_experiments::{lint_chrome, shape_checks, CheckResult, Row};
use memsched_obs::{chrome_trace, Counter, Metrics};
use memsched_platform::{
    run_observed, run_with_config, AdmissionConfig, Probe, RunConfig, RunError, RunReport,
    Scheduler, TraceEvent, TraceMode,
};
use std::time::Instant;

/// How a pass runs its cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// As users run them: no wrapper, checksum trace. Gives the
    /// end-to-end metrics.
    Plain,
    /// Every scheduler inside the [`Timed`] wrapper, checksum trace.
    /// Gives the per-layer metrics.
    Timed,
    /// [`Mode::Timed`] with a full trace, for the checks that read it.
    Verify,
}

/// What the observed cell's probe produced and what exporting it cost.
#[derive(Clone, Debug)]
pub struct ObsRun {
    /// Events the probe recorded.
    pub events: u64,
    /// Host time of copying the events out and `Metrics::ingest`.
    pub ingest_ns: u64,
    /// Host time of `chrome_trace` and serializing it to a string (the
    /// two steps of `chrome_trace_json`).
    pub export_ns: u64,
    /// Size of the Chrome export.
    pub export_bytes: u64,
    /// Host time of `lint_chrome` on the exported document.
    pub lint_ns: u64,
    /// Highest live heap, in bytes, from the start of the run call to
    /// the end of the lint.
    pub peak_bytes: u64,
    /// The registry's load counter.
    pub loads: u64,
    /// The registry's eviction counter.
    pub evictions: u64,
    /// `Err` when export or lint rejected the stream.
    pub lint: Result<(), String>,
}

/// One cell's outcome.
pub struct CellRun {
    /// The engine's answer.
    pub result: Result<RunReport, RunError>,
    /// The full trace ([`Mode::Verify`] only; empty otherwise).
    pub trace: Vec<TraceEvent>,
    /// Host time of the `run_with_config` / `run_observed` call.
    pub run_ns: u64,
    /// Hook timings (zero in [`Mode::Plain`]).
    pub hooks: HookStats,
    /// Allocations made during the run call.
    pub allocs: u64,
    /// Highest live heap during the run call, in bytes (the inputs
    /// included).
    pub peak_bytes: u64,
    /// The observed cell's probe and export costs.
    pub obs: Option<ObsRun>,
}

/// One pass's outcome.
pub struct Pass {
    /// Per cell, in plan order.
    pub cells: Vec<CellRun>,
    /// Host time of building the figure rows and its shape checks
    /// (`paper_fig05` only).
    pub experiments_ns: u64,
    /// The paper's shape checks (`paper_fig05` only; skipped when a
    /// cell failed).
    pub shape: Vec<CheckResult>,
    /// Host time of the whole pass.
    pub wall_ns: u64,
    /// Highest live heap during the run call of any unobserved cell, in
    /// bytes. The observed cell's probe and export are reported apart
    /// ([`ObsRun::peak_bytes`]).
    pub peak_bytes: u64,
}

/// Run every cell of `plan` once.
pub fn run_pass(plan: &Plan, mode: Mode) -> Pass {
    let start = Instant::now();
    let cells: Vec<CellRun> = plan
        .cells
        .iter()
        .map(|cell| run_cell(plan, cell, mode))
        .collect();
    let mut experiments_ns = 0;
    let mut shape = Vec::new();
    if plan.workload == Workload::PaperFig05 && cells.iter().all(|c| c.result.is_ok()) {
        let t = Instant::now();
        let rows: Vec<Row> = plan
            .cells
            .iter()
            .zip(&cells)
            .filter_map(|(cell, run)| {
                let r = run.result.as_ref().ok()?;
                Some(figure_row(&plan.inputs[cell.input], r))
            })
            .collect();
        let spec = &plan.inputs[0].spec;
        shape = shape_checks("fig05", &rows, spec.total_gflops());
        experiments_ns = t.elapsed().as_nanos() as u64;
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let peak_bytes = plan
        .cells
        .iter()
        .zip(&cells)
        .filter(|(cell, _)| !cell.observed)
        .map(|(_, run)| run.peak_bytes)
        .max()
        .unwrap_or(0);
    Pass {
        cells,
        experiments_ns,
        shape,
        wall_ns,
        peak_bytes,
    }
}

fn run_cell(plan: &Plan, cell: &Cell, mode: Mode) -> CellRun {
    let input = &plan.inputs[cell.input];
    let config = RunConfig {
        trace: if mode == Mode::Verify {
            TraceMode::Full
        } else {
            TraceMode::Checksum
        },
        admission: input.online.then(AdmissionConfig::default),
        ..RunConfig::default()
    };
    let mut plain = None;
    let mut timed = None;
    let sched: &mut dyn Scheduler = if mode == Mode::Plain {
        plain.insert(cell.family.build(plan.seed)).as_mut()
    } else {
        timed.insert(Timed::new(cell.family.build(plan.seed)))
    };
    let probe = cell.observed.then(Probe::unbounded);

    alloc::reset_peak();
    let allocs = alloc::allocs();
    let t = Instant::now();
    let result = match &probe {
        Some(p) => run_observed(&input.ts, &input.spec, sched, &config, p),
        None => run_with_config(&input.ts, &input.spec, sched, &config),
    };
    let run_ns = t.elapsed().as_nanos() as u64;
    let allocs = alloc::allocs() - allocs;
    let peak_bytes = alloc::peak_bytes();

    let hooks = timed.map(|t| t.stats).unwrap_or_default();
    let (result, trace) = match result {
        Ok((report, trace)) => (Ok(report), trace),
        Err(e) => (Err(e), Vec::new()),
    };
    let obs = match (&probe, &result) {
        (Some(p), Ok(_)) => Some(export(p)),
        _ => None,
    };
    CellRun {
        result,
        trace,
        run_ns,
        hooks,
        allocs,
        peak_bytes,
        obs,
    }
}

/// Ingest the probe into a metrics registry, export it as a Chrome
/// trace into memory and lint the export.
fn export(probe: &Probe) -> ObsRun {
    let t = Instant::now();
    let events = probe.events();
    let mut metrics = Metrics::new();
    metrics.ingest(&events);
    let ingest_ns = t.elapsed().as_nanos() as u64;

    // `chrome_trace_json` in its two steps, so the linted document is
    // the one that was serialized.
    let t = Instant::now();
    let exported = chrome_trace(&events)
        .map_err(|e| e.to_string())
        .and_then(|doc| match serde_json::to_string(&doc) {
            Ok(text) => Ok((doc, text.len() as u64)),
            Err(e) => Err(e.to_string()),
        });
    let export_ns = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let (lint, export_bytes) = match exported {
        Ok((doc, bytes)) => (lint_chrome(&doc).map(|_| ()), bytes),
        Err(e) => (Err(format!("export failed: {e}")), 0),
    };
    let lint_ns = t.elapsed().as_nanos() as u64;

    ObsRun {
        events: events.len() as u64,
        ingest_ns,
        export_ns,
        export_bytes,
        lint_ns,
        peak_bytes: alloc::peak_bytes(),
        loads: metrics.counter(Counter::Loads),
        evictions: metrics.counter(Counter::Evictions),
        lint,
    }
}

/// The figure harness's row for one cell.
fn figure_row(input: &Input, r: &RunReport) -> Row {
    let k = r.per_gpu.len().max(1) as f64;
    let mean_ms = |f: fn(&memsched_platform::GpuRunStats) -> u64| {
        r.per_gpu.iter().map(f).sum::<u64>() as f64 / k / 1e6
    };
    Row {
        figure: "fig05".into(),
        workload: input.label.clone(),
        ws_mb: input.ts.working_set_bytes() as f64 / 1e6,
        gpus: input.spec.num_gpus,
        scheduler: r.scheduler.clone(),
        gflops: r.gflops(),
        gflops_with_sched: r.gflops_with_sched(),
        transfers_mb: r.transfers_mb(),
        loads: r.total_loads,
        evictions: r.total_evictions,
        makespan_ms: r.makespan as f64 / 1e6,
        prepare_ms: r.prepare_wall as f64 / 1e6,
        sched_ms: r.sched_wall as f64 / 1e6,
        max_load: r.max_load(),
        retries: r.transfer_retries,
        redispatched: r.tasks_redispatched,
        busy_ms: mean_ms(|g| g.busy),
        stall_ms: mean_ms(|g| g.stall),
        idle_ms: mean_ms(|g| g.idle),
    }
}
