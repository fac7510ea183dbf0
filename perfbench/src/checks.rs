//! Output checks. None of them compares against recorded output: each
//! recomputes what a correct run must satisfy from the inputs, the
//! trace, or a second run of the same cell.

use crate::inputs::{Input, Kind};
use memsched_model::{DataId, TaskId};
use memsched_platform::{trace_checksum, Nanos, RunReport, TraceEvent, V100_GFLOPS};
use memsched_workloads::constants::TILE_BYTES;
use memsched_workloads::prefix::PREFIX_FLOPS_PER_BYTE;

/// Facts about one input the checks compare runs against, computed from
/// the task set alone.
pub struct Expect {
    /// Flops the whole task set must execute, recomputed from the tile
    /// size (GEMM) or the path bytes (prefix requests).
    pub flops: f64,
    /// Bytes of the distinct data items the task set reads: a lower
    /// bound on what any run must move to the GPUs.
    pub distinct_input_bytes: u64,
}

impl Expect {
    /// Compute the expectations of `input`.
    pub fn of(input: &Input) -> Expect {
        let ts = &input.ts;
        // A 960×960 fp32 tile holds b² floats; one tile product costs 2·b³.
        let b = ((TILE_BYTES / 4) as f64).sqrt();
        let tile_product = 2.0 * b * b * b;
        let flops = ts
            .tasks()
            .map(|t| {
                let bytes = ts.task_footprint(t) as f64;
                match input.kind {
                    // Each input is a run of tiles along k; the task
                    // multiplies them pairwise.
                    Kind::Gemm => {
                        tile_product * bytes / ts.inputs(t).len() as f64 / TILE_BYTES as f64
                    }
                    Kind::Prefix => bytes * PREFIX_FLOPS_PER_BYTE,
                }
            })
            .sum();
        let mut read = vec![false; ts.num_data()];
        for t in ts.tasks() {
            for d in ts.input_ids(t) {
                read[d.index()] = true;
            }
        }
        let distinct_input_bytes = ts
            .data()
            .filter(|d| read[d.index()])
            .map(|d| ts.data_size(d))
            .sum();
        Expect {
            flops,
            distinct_input_bytes,
        }
    }
}

/// The report with every host-time field zeroed: what must repeat
/// exactly between two runs of one cell.
pub fn canonical(report: &RunReport) -> RunReport {
    let mut r = report.clone();
    r.prepare_wall = 0;
    r.sched_wall = 0;
    for g in &mut r.per_gpu {
        g.sched_wall = 0;
    }
    r
}

/// Invariants every successful run must satisfy. Returns one message
/// per violation.
pub fn report_invariants(input: &Input, expect: &Expect, r: &RunReport) -> Vec<String> {
    let mut bad = Vec::new();
    let m = input.ts.num_tasks();
    let done: usize = r.per_gpu.iter().map(|g| g.tasks).sum();
    if done != m {
        bad.push(format!("{} tasks completed, expected {m}", done));
    }
    if (r.total_flops - expect.flops).abs() > 1e-9 * expect.flops {
        bad.push(format!(
            "total_flops {} != {} recomputed from the inputs",
            r.total_flops, expect.flops
        ));
    }
    for (g, st) in r.per_gpu.iter().enumerate() {
        if st.busy + st.stall + st.idle != r.makespan {
            bad.push(format!(
                "GPU {g}: busy {} + stall {} + idle {} != makespan {}",
                st.busy, st.stall, st.idle, r.makespan
            ));
        }
    }
    if r.total_load_bytes < expect.distinct_input_bytes {
        bad.push(format!(
            "moved {} B, less than the {} B of distinct inputs",
            r.total_load_bytes, expect.distinct_input_bytes
        ));
    }
    let k = input.spec.num_gpus as f64;
    let floor_ns = expect.flops / (k * V100_GFLOPS);
    if (r.makespan as f64) < floor_ns * (1.0 - 1e-9) {
        bad.push(format!(
            "makespan {} ns beats the compute floor {floor_ns:.0} ns",
            r.makespan
        ));
    }
    if let Some(o) = &r.online {
        if o.tasks_shed != 0 || o.deadline_expired != 0 {
            bad.push(format!(
                "{} shed and {} expired under defer-only admission",
                o.tasks_shed, o.deadline_expired
            ));
        }
    }
    bad
}

/// Nearest-rank quantile of an ascending sample with the engine's rank
/// convention (`round((n − 1)·q)`); 0 when empty.
pub fn quantile(sorted: &[Nanos], q: f64) -> Nanos {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// What a full trace tells about a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceFacts {
    /// Events in the trace.
    pub events: u64,
    /// The trace's checksum (equals `RunReport::trace_checksum` of a
    /// `TraceMode::Checksum` run of the same cell).
    pub checksum: u64,
    /// Median task latency: completion minus arrival (arrival is 0 in
    /// a batch run).
    pub p50_latency: Nanos,
    /// 99th-percentile task latency.
    pub p99_latency: Nanos,
    /// Consumers of every datum loaded or evicted, summed: the entries
    /// the engine's missing-input cache rewrites, one per consumer on
    /// each residency change.
    pub residency_updates: u64,
}

/// Read latencies and the checksum off a full trace, checking that
/// every task finished exactly once.
pub fn trace_facts(input: &Input, trace: &[TraceEvent]) -> Result<TraceFacts, String> {
    let ts = &input.ts;
    let mut finished: Vec<Option<Nanos>> = vec![None; ts.num_tasks()];
    let mut residency_updates = 0;
    for ev in trace {
        match *ev {
            TraceEvent::TaskFinished { at, task, .. } => {
                let earlier = finished[task].replace(at);
                if earlier.is_some() {
                    return Err(format!("task {task} finished twice"));
                }
            }
            TraceEvent::LoadIssued { data, .. } | TraceEvent::Evicted { data, .. } => {
                residency_updates += ts.consumers(DataId(data as u32)).len() as u64;
            }
            _ => {}
        }
    }
    let mut latencies = Vec::with_capacity(finished.len());
    for (t, at) in finished.iter().enumerate() {
        let at = at.ok_or_else(|| format!("task {t} never finished"))?;
        latencies.push(at - ts.arrival(TaskId(t as u32)));
    }
    latencies.sort_unstable();
    Ok(TraceFacts {
        events: trace.len() as u64,
        checksum: trace_checksum(trace),
        p50_latency: quantile(&latencies, 0.50),
        p99_latency: quantile(&latencies, 0.99),
        residency_updates,
    })
}
