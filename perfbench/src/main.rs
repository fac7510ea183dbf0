//! `memsched-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets the workload up repeatedly for a second (reporting the median), runs one
//! traced verification pass with full traces and checks every output,
//! then repeats passes for `--seconds`. With `--trace 0` the passes are
//! untraced and the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` traced and untraced passes
//! alternate and the object carries the per-layer metrics. Every pass
//! must reproduce the verification pass's simulated results exactly.

use memsched_perfbench::alloc::CountingAlloc;
use memsched_perfbench::checks::{canonical, report_invariants, trace_facts, Expect, TraceFacts};
use memsched_perfbench::inputs::{Family, Plan, Workload};
use memsched_perfbench::pass::{run_pass, CellRun, Mode, Pass};
use memsched_perfbench::timing::HookStats;
use memsched_perfbench::{median, per_layer, END_TO_END};
use memsched_platform::{RunError, RunReport};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Set-up repeats at least this often and for at least this long, so
/// that a set-up of a few milliseconds is still a median of many;
/// `setup_s` is the median.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MIN: Duration = Duration::from_secs(1);
/// Fewest timed passes (or traced/untraced pairs) per run, so every
/// reported host time is a median of at least three.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: memsched-perfbench --workload <paper_fig05|engine_xl|serve_prefix> \
--seed <u64> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!(
                        "--seconds {value:?}: expected a number in (0, 3600]"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("memsched-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", bench(&args));
    ExitCode::SUCCESS
}

/// The verification pass's simulated results, which every later pass
/// must reproduce.
struct Reference {
    /// Per cell: the canonical report with the full trace's checksum,
    /// or the error.
    results: Vec<Result<RunReport, RunError>>,
    /// Per successful cell: what its full trace showed.
    facts: Vec<Option<TraceFacts>>,
}

fn bench(args: &Args) -> String {
    // Set-up, repeated; keep the last plan.
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut plan = None;
    let start = Instant::now();
    while setup_s.len() < SETUP_MIN_REPS || start.elapsed() < SETUP_MIN {
        drop(plan.take());
        let t = Instant::now();
        let p = Plan::build(args.workload, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        build_s.push(p.build_ns as f64 / 1e9);
        plan = Some(p);
    }
    let plan = plan.expect("set-up ran at least once");
    let expect: Vec<Expect> = plan.inputs.iter().map(Expect::of).collect();
    let mut problems: Vec<String> = Vec::new();

    // Verification pass: wrapped schedulers, full traces.
    let mut verify = run_pass(&plan, Mode::Verify);
    let reference = check_verify(&plan, &expect, &verify, &mut problems);
    for cell in &mut verify.cells {
        cell.trace = Vec::new();
    }
    let mut failed = failed_tasks(&plan, &verify);
    let mut passes = 1u64;
    print_cells(&plan, &reference, &verify);

    // Timed passes.
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    while plain.len() < MIN_PASSES || start.elapsed() < budget {
        let modes: &[Mode] = if args.trace {
            &[Mode::Timed, Mode::Plain]
        } else {
            &[Mode::Plain]
        };
        for &mode in modes {
            let pass = run_pass(&plan, mode);
            check_pass(&plan, &reference, &pass, &mut problems);
            failed += failed_tasks(&plan, &pass);
            passes += 1;
            eprintln!("pass {passes} {mode:?}: {:.3} s", pass.wall_ns as f64 / 1e9);
            match mode {
                Mode::Plain => plain.push(pass),
                _ => traced.push(pass),
            }
        }
    }

    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let mut metrics = if args.trace {
        layer_metrics(&plan, &reference, &traced, &plain, &build_s)
    } else {
        end_to_end_metrics(&plan, &reference, &plain, &setup_s)
    };
    for (name, value, unit) in &mut metrics {
        // `+ 0.0` turns an empty sum's -0 into 0.
        *value += 0.0;
        eprintln!("{name:>36} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        plan.tasks_per_pass() * passes,
        body.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Tasks a pass failed: every task of a cell that returned an error,
/// plus requests shed or expired by admission.
fn failed_tasks(plan: &Plan, pass: &Pass) -> u64 {
    plan.cells
        .iter()
        .zip(&pass.cells)
        .map(|(cell, run)| match &run.result {
            Err(_) => plan.inputs[cell.input].ts.num_tasks() as u64,
            Ok(r) => r
                .online
                .as_ref()
                .map_or(0, |o| o.tasks_shed + o.deadline_expired),
        })
        .sum()
}

fn cell_name(plan: &Plan, i: usize) -> String {
    let cell = &plan.cells[i];
    format!(
        "{} · {}{}",
        plan.inputs[cell.input].label,
        cell.family.key(),
        if cell.observed { " (observed)" } else { "" }
    )
}

fn check_verify(
    plan: &Plan,
    expect: &[Expect],
    pass: &Pass,
    problems: &mut Vec<String>,
) -> Reference {
    let mut results = Vec::new();
    let mut facts = Vec::new();
    for (i, (cell, run)) in plan.cells.iter().zip(&pass.cells).enumerate() {
        let input = &plan.inputs[cell.input];
        let name = cell_name(plan, i);
        match &run.result {
            Err(e) => {
                eprintln!("cell {name} failed: {e}");
                results.push(Err(e.clone()));
                facts.push(None);
            }
            Ok(r) => {
                for p in report_invariants(input, &expect[cell.input], r) {
                    problems.push(format!("{name}: {p}"));
                }
                let mut reference = canonical(r);
                match trace_facts(input, &run.trace) {
                    Ok(f) => {
                        if let Some(o) = &r.online {
                            if (o.p50_latency, o.p99_latency) != (f.p50_latency, f.p99_latency) {
                                problems.push(format!(
                                    "{name}: OnlineStats p50/p99 {}/{} ns, trace gives {}/{} ns",
                                    o.p50_latency, o.p99_latency, f.p50_latency, f.p99_latency
                                ));
                            }
                        }
                        reference.trace_checksum = Some(f.checksum);
                        facts.push(Some(f));
                    }
                    Err(e) => {
                        problems.push(format!("{name}: {e}"));
                        facts.push(None);
                    }
                }
                results.push(Ok(reference));
            }
        }
    }
    let reference = Reference { results, facts };
    check_cross_cell(plan, &reference, problems);
    check_pass_outputs(plan, pass, problems);
    reference
}

/// Checks that relate cells of one workload to each other.
fn check_cross_cell(plan: &Plan, reference: &Reference, problems: &mut Vec<String>) {
    if plan.workload != Workload::ServePrefix {
        return;
    }
    let find = |family: Family, observed: bool| {
        plan.cells
            .iter()
            .position(|c| c.family == family && c.observed == observed)
            .and_then(|i| reference.results[i].as_ref().ok())
    };
    if let (Some(router), Some(eager)) = (find(Family::Router, false), find(Family::Eager, false)) {
        if router.total_load_bytes >= eager.total_load_bytes {
            problems.push(format!(
                "Router moved {} B, not fewer than EAGER's {} B",
                router.total_load_bytes, eager.total_load_bytes
            ));
        }
    }
    if let (Some(plain), Some(observed)) = (find(Family::Router, false), find(Family::Router, true))
    {
        if plain != observed {
            problems
                .push("the observed Router cell's report differs from the unobserved one".into());
        }
    }
}

/// Checks on one pass's own outputs: the observed cell's export and
/// registry, and the figure's shape checks.
fn check_pass_outputs(plan: &Plan, pass: &Pass, problems: &mut Vec<String>) {
    for (i, run) in pass.cells.iter().enumerate() {
        let (Some(obs), Ok(r)) = (&run.obs, &run.result) else {
            continue;
        };
        let name = cell_name(plan, i);
        if let Err(e) = &obs.lint {
            problems.push(format!("{name}: Chrome export rejected: {e}"));
        }
        if (obs.loads, obs.evictions) != (r.total_loads, r.total_evictions) {
            problems.push(format!(
                "{name}: registry counts {} loads / {} evictions, report {} / {}",
                obs.loads, obs.evictions, r.total_loads, r.total_evictions
            ));
        }
    }
    for c in pass.shape.iter().filter(|c| !c.pass) {
        problems.push(format!(
            "fig05 shape check failed: {} ({})",
            c.claim, c.detail
        ));
    }
}

/// Every pass must reproduce the verification pass exactly.
fn check_pass(plan: &Plan, reference: &Reference, pass: &Pass, problems: &mut Vec<String>) {
    for (i, (want, run)) in reference.results.iter().zip(&pass.cells).enumerate() {
        let same = match (want, &run.result) {
            (Ok(want), Ok(got)) => *want == canonical(got),
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        if !same {
            problems.push(format!(
                "{}: result differs from the verification pass",
                cell_name(plan, i)
            ));
        }
    }
    check_pass_outputs(plan, pass, problems);
}

/// The cells whose results define the simulated metrics, with their
/// index: successful and not the observed duplicate.
fn measured_cells<'a>(
    plan: &'a Plan,
    reference: &'a Reference,
) -> impl Iterator<Item = (usize, &'a RunReport)> + 'a {
    plan.cells
        .iter()
        .zip(&reference.results)
        .enumerate()
        .filter(|(_, (cell, _))| !cell.observed)
        .filter_map(|(i, (_, r))| Some((i, r.as_ref().ok()?)))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// A cell's median and p99 task latency in ns: the admission loop's
/// statistics online, the full trace's completion times in batch.
fn latencies(reference: &Reference, i: usize, r: &RunReport) -> Option<(u64, u64)> {
    match &r.online {
        Some(o) => Some((o.p50_latency, o.p99_latency)),
        None => reference.facts[i]
            .as_ref()
            .map(|f| (f.p50_latency, f.p99_latency)),
    }
}

type Metric = (String, f64, &'static str);

fn end_to_end_metrics(
    plan: &Plan,
    reference: &Reference,
    plain: &[Pass],
    setup_s: &[f64],
) -> Vec<Metric> {
    let cells: Vec<(usize, &RunReport)> = measured_cells(plan, reference).collect();
    let flops: f64 = cells.iter().map(|(_, r)| r.total_flops).sum();
    let makespan: f64 = cells.iter().map(|(_, r)| r.makespan as f64).sum();
    let lat: Vec<(u64, u64)> = cells
        .iter()
        .filter_map(|&(i, r)| latencies(reference, i, r))
        .collect();
    // Host scheduling time is charged per pass, so this one varies.
    let with_sched: Vec<f64> = plain
        .iter()
        .map(|pass| {
            let (f, ms) = measured_runs(plan, pass).fold((0.0, 0.0), |(f, ms), r| {
                (f + r.total_flops, ms + r.makespan_with_sched() as f64)
            });
            ratio(f, ms)
        })
        .collect();
    let values = [
        median(
            &plain
                .iter()
                .map(|p| p.wall_ns as f64 / 1e9)
                .collect::<Vec<_>>(),
        ),
        median(setup_s),
        median(
            &plain
                .iter()
                .map(|p| p.peak_bytes as f64 / 1e6)
                .collect::<Vec<_>>(),
        ),
        cells
            .iter()
            .map(|(_, r)| r.total_load_bytes as f64)
            .sum::<f64>()
            / 1e6,
        ratio(flops, makespan),
        median(&with_sched),
        mean(&lat.iter().map(|l| l.0 as f64 / 1e6).collect::<Vec<_>>()),
        mean(&lat.iter().map(|l| l.1 as f64 / 1e6).collect::<Vec<_>>()),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect()
}

/// The successful, unobserved reports of one pass.
fn measured_runs<'a>(plan: &'a Plan, pass: &'a Pass) -> impl Iterator<Item = &'a RunReport> + 'a {
    plan.cells
        .iter()
        .zip(&pass.cells)
        .filter(|(cell, _)| !cell.observed)
        .filter_map(|(_, run)| run.result.as_ref().ok())
}

fn layer_metrics(
    plan: &Plan,
    reference: &Reference,
    traced: &[Pass],
    plain: &[Pass],
    build_s: &[f64],
) -> Vec<Metric> {
    let s = |ns: u64| ns as f64 / 1e9;
    // The traced pass with the median wall time; its layers add up to
    // its wall time exactly.
    let mut order: Vec<&Pass> = traced.iter().collect();
    order.sort_by_key(|p| p.wall_ns);
    let pass = order[order.len() / 2];

    let mut hooks = HookStats::default();
    for run in &pass.cells {
        hooks.add(&run.hooks);
    }
    let family_hooks = |family: Family| -> u64 {
        plan.cells
            .iter()
            .zip(&pass.cells)
            .filter(|(c, _)| c.family == family)
            .map(|(_, run)| run.hooks.total_ns())
            .sum()
    };
    let engine_part = |run: &CellRun| run.run_ns as f64 - run.hooks.total_ns() as f64;
    let observed = plan.cells.iter().position(|c| c.observed);
    let (obs, emit_ns) = match observed {
        Some(i) => {
            let twin = plan
                .cells
                .iter()
                .position(|c| {
                    !c.observed
                        && c.family == plan.cells[i].family
                        && c.input == plan.cells[i].input
                })
                .expect("the observed cell has an unobserved twin");
            let emit = engine_part(&pass.cells[i]) - engine_part(&pass.cells[twin]);
            (pass.cells[i].obs.clone(), emit)
        }
        None => (None, 0.0),
    };
    let obs_ns = |f: fn(&memsched_perfbench::pass::ObsRun) -> u64| obs.as_ref().map_or(0, f);
    let attributed = hooks.total_ns() as f64
        + emit_ns
        + (obs_ns(|o| o.ingest_ns)
            + obs_ns(|o| o.export_ns)
            + obs_ns(|o| o.lint_ns)
            + pass.experiments_ns) as f64;
    let engine_self_ns = pass.wall_ns as f64 - attributed;

    let cells: Vec<(usize, &RunReport)> = measured_cells(plan, reference).collect();
    let trace_events: u64 = reference.facts.iter().flatten().map(|f| f.events).sum();
    let residency_updates: u64 = reference
        .facts
        .iter()
        .flatten()
        .map(|f| f.residency_updates)
        .sum();
    let sum_u = |f: fn(&RunReport) -> u64| cells.iter().map(|(_, r)| f(r)).sum::<u64>();
    let hit: u64 = sum_u(|r| r.per_gpu.iter().map(|g| g.cache_hit_bytes).sum());
    let miss: u64 = sum_u(|r| r.per_gpu.iter().map(|g| g.cache_miss_bytes).sum());
    let stall: u64 = sum_u(|r| r.per_gpu.iter().map(|g| g.stall).sum());
    let lanes: u64 = sum_u(|r| r.per_gpu.iter().map(|g| g.busy + g.stall + g.idle).sum());
    let online: Vec<&RunReport> = cells
        .iter()
        .filter(|(_, r)| r.online.is_some())
        .map(|&(_, r)| r)
        .collect();
    let p99_queueing = mean(
        &online
            .iter()
            .filter_map(|r| r.online.as_ref())
            .map(|o| o.p99_queueing as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let deferred: u64 = online
        .iter()
        .filter_map(|r| r.online.as_ref())
        .map(|o| o.tasks_deferred)
        .sum();
    let median_wall = |passes: &[Pass]| {
        median(
            &passes
                .iter()
                .map(|p| p.wall_ns as f64 / 1e9)
                .collect::<Vec<_>>(),
        )
    };

    let mut values: Vec<f64> = vec![
        median(build_s),
        plan.inputs.iter().map(|i| i.ts.num_tasks() as f64).sum(),
        plan.inputs
            .iter()
            .map(|i| i.ts.working_set_bytes() as f64)
            .sum::<f64>()
            / 1e6,
        s(plan
            .cells
            .iter()
            .zip(&pass.cells)
            .filter(|(c, _)| c.family == Family::HmetisR)
            .map(|(_, run)| run.hooks.prepare_ns)
            .sum()),
        s(hooks.prepare_ns),
        s(hooks.pop_ns),
        hooks.pop_calls as f64,
        ratio(hooks.pop_some as f64, hooks.pop_calls as f64),
        s(hooks.victim_ns),
        hooks.victim_calls as f64,
        hooks.victim_none as f64,
        s(hooks.notify_ns),
        hooks.notify_calls as f64,
    ];
    for family in Family::ALL {
        let mine: Vec<(usize, &RunReport)> = cells
            .iter()
            .copied()
            .filter(|&(i, _)| plan.cells[i].family == family)
            .collect();
        values.push(s(family_hooks(family)));
        values.push(
            mine.iter()
                .map(|(_, r)| r.total_load_bytes as f64)
                .sum::<f64>()
                / 1e6,
        );
        values.push(mean(
            &mine
                .iter()
                .filter_map(|&(i, r)| latencies(reference, i, r))
                .map(|l| l.1 as f64 / 1e6)
                .collect::<Vec<_>>(),
        ));
    }
    values.extend([
        engine_self_ns / 1e9,
        trace_events as f64,
        ratio(engine_self_ns, trace_events as f64),
        residency_updates as f64,
        pass.cells.iter().map(|run| run.allocs as f64).sum(),
        sum_u(|r| r.total_loads) as f64,
        sum_u(|r| r.total_evictions) as f64,
        ratio(hit as f64, (hit + miss) as f64),
        ratio(stall as f64, lanes as f64),
        sum_u(|r| r.bus_busy_ns.iter().sum()) as f64 / 1e9,
        p99_queueing,
        deferred as f64,
        obs_ns(|o| o.events) as f64,
        emit_ns / 1e9,
        s(obs_ns(|o| o.ingest_ns)),
        s(obs_ns(|o| o.export_ns)),
        obs_ns(|o| o.export_bytes) as f64 / 1e6,
        s(obs_ns(|o| o.lint_ns)),
        obs_ns(|o| o.peak_bytes) as f64 / 1e6,
        s(pass.experiments_ns),
        s(pass.wall_ns),
        median_wall(traced) - median_wall(plain),
    ]);
    let names = per_layer();
    assert_eq!(
        names.len(),
        values.len(),
        "per-layer names and values out of step"
    );
    names
        .into_iter()
        .zip(values)
        .map(|((name, unit), v)| (name, v, unit))
        .collect()
}

/// One line per cell of the verification pass, on standard error.
fn print_cells(plan: &Plan, reference: &Reference, pass: &Pass) {
    for (i, run) in pass.cells.iter().enumerate() {
        let name = cell_name(plan, i);
        let updates = reference.facts[i]
            .as_ref()
            .map_or(0, |f| f.residency_updates);
        match &run.result {
            Ok(r) => eprintln!(
                "{name:<48} host {:>8.3} s  hooks {:>7.3} s  moved {:>9.0} MB  evictions {:>7}  \
                 residency updates {updates:>11}  makespan {:>9.3} ms",
                run.run_ns as f64 / 1e9,
                run.hooks.total_ns() as f64 / 1e9,
                r.transfers_mb(),
                r.total_evictions,
                r.makespan as f64 / 1e6
            ),
            Err(e) => eprintln!("{name:<48} FAILED: {e}"),
        }
    }
}
