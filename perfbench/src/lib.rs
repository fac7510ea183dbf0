//! End-to-end and per-layer benchmark of the memsched simulator.
//!
//! Three workloads (see [`inputs::Workload`]) run on one thread. An
//! untraced run gives the end-to-end metrics; a traced run wraps every
//! scheduler in [`timing::Timed`] and splits the host time of a pass
//! into layers. See `README.md` for the metrics and what moves them.

pub mod alloc;
pub mod checks;
pub mod inputs;
pub mod pass;
pub mod timing;

/// End-to-end metrics: name and unit, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("sim_transfer_mb", "MB"),
    ("sim_gflops", "GFlop/s"),
    ("sim_gflops_with_sched", "GFlop/s"),
    ("sim_p50_latency_ms", "ms"),
    ("sim_p99_latency_ms", "ms"),
];

/// Per-layer metrics: name and unit, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed_head: &[(&str, &str)] = &[
        ("workloads.build_s", "s"),
        ("workloads.tasks", "count"),
        ("workloads.working_set_mb", "MB"),
        ("hypergraph.partition_s", "s"),
        ("schedulers.prepare_s", "s"),
        ("schedulers.pop_s", "s"),
        ("schedulers.pop_calls", "count"),
        ("schedulers.pop_yield", "ratio"),
        ("schedulers.victim_s", "s"),
        ("schedulers.victim_calls", "count"),
        ("schedulers.victim_fallbacks", "count"),
        ("schedulers.notify_s", "s"),
        ("schedulers.notify_calls", "count"),
    ];
    let fixed_tail: &[(&str, &str)] = &[
        ("platform.engine_self_s", "s"),
        ("platform.trace_events", "count"),
        ("platform.ns_per_event", "ns"),
        ("platform.residency_updates", "count"),
        ("platform.allocs", "count"),
        ("platform.loads", "count"),
        ("platform.evictions", "count"),
        ("platform.cache_hit_ratio", "ratio"),
        ("platform.gpu_stall_ratio", "ratio"),
        ("platform.bus_busy_s", "s"),
        ("platform.p99_queueing_ms", "ms"),
        ("platform.deferred", "count"),
        ("obs.events", "count"),
        ("obs.emit_s", "s"),
        ("obs.ingest_s", "s"),
        ("obs.export_s", "s"),
        ("obs.export_mb", "MB"),
        ("obs.lint_s", "s"),
        ("obs.peak_mb", "MB"),
        ("experiments.checks_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
    ];
    let mut out: Vec<(String, &'static str)> = fixed_head
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for family in inputs::Family::ALL {
        for (metric, unit) in [
            ("hooks_s", "s"),
            ("transfer_mb", "MB"),
            ("p99_latency_ms", "ms"),
        ] {
            out.push((format!("schedulers.{}.{metric}", family.key()), unit));
        }
    }
    out.extend(fixed_tail.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
