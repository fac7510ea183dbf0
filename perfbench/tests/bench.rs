//! The benchmark's own tests: the timing wrapper changes no decision,
//! the checks' recomputations agree with the engine, and the metric
//! names agree with `BENCHMARK.json`.

use memsched_experiments::prefix_route;
use memsched_perfbench::checks::{canonical, trace_facts, Expect};
use memsched_perfbench::inputs::{gemm_3d_shuffled_k, Family, Input, Kind};
use memsched_perfbench::timing::Timed;
use memsched_perfbench::{per_layer, END_TO_END};
use memsched_platform::{
    run_with_config, AdmissionConfig, PlatformSpec, RunConfig, RunError, RunReport, Scheduler,
    TraceEvent, TraceMode,
};
use memsched_schedulers::NamedScheduler;
use memsched_workloads::{gemm_2d, gemm_3d};

/// Every `NamedScheduler` variant. The match fails to compile when a
/// variant is added and not listed here.
fn every_named_scheduler() -> Vec<NamedScheduler> {
    use NamedScheduler as S;
    let all = vec![
        S::Eager,
        S::Dmda,
        S::Dmdar,
        S::HmetisR,
        S::Mhfp,
        S::MhfpPaperTiming,
        S::Darts,
        S::DartsLuf,
        S::DartsLuf3,
        S::DartsLufOpti,
        S::DartsLufOpti3,
        S::DartsLufThreshold(4),
        S::Router,
    ];
    for s in &all {
        match s {
            S::Eager
            | S::Dmda
            | S::Dmdar
            | S::HmetisR
            | S::Mhfp
            | S::MhfpPaperTiming
            | S::Darts
            | S::DartsLuf
            | S::DartsLuf3
            | S::DartsLufOpti
            | S::DartsLufOpti3
            | S::DartsLufThreshold(_)
            | S::Router => {}
        }
    }
    all
}

/// A small memory-starved batch input (evicts) and a small prefix
/// stream (online admission).
fn small_inputs() -> Vec<Input> {
    let stream = prefix_route::sweep_taskset(&prefix_route::SweepConfig {
        tasks: 400,
        rate_per_sec: 2_000.0,
        seed: 9,
    });
    let stream_spec = prefix_route::sweep_spec(&stream, 2.0);
    vec![
        Input {
            label: "gemm2d(12), 100 MB".into(),
            ts: gemm_2d(12),
            spec: PlatformSpec::v100(2).with_memory(100_000_000),
            online: false,
            kind: Kind::Gemm,
        },
        Input {
            label: "prefix stream".into(),
            ts: stream,
            spec: stream_spec,
            online: true,
            kind: Kind::Prefix,
        },
    ]
}

fn run_full(
    input: &Input,
    sched: &mut dyn Scheduler,
) -> Result<(RunReport, Vec<TraceEvent>), RunError> {
    let config = RunConfig {
        trace: TraceMode::Full,
        admission: input.online.then(AdmissionConfig::default),
        ..RunConfig::default()
    };
    run_with_config(&input.ts, &input.spec, sched, &config)
}

#[test]
fn timing_wrapper_is_transparent_for_every_named_scheduler() {
    for input in small_inputs() {
        for named in every_named_scheduler() {
            let plain = run_full(&input, named.build().as_mut());
            let mut timed = Timed::new(named.build());
            let wrapped = run_full(&input, &mut timed);
            match (plain, wrapped) {
                (Ok((a, ta)), Ok((b, tb))) => {
                    assert_eq!(canonical(&a), canonical(&b), "{named:?} on {}", input.label);
                    assert_eq!(ta, tb, "{named:?} on {}: traces differ", input.label);
                    assert!(timed.stats.pop_calls > 0, "{named:?}: no pops timed");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{named:?} on {}", input.label),
                (a, b) => panic!(
                    "{named:?} on {}: plain {:?}, wrapped {:?}",
                    input.label,
                    a.err(),
                    b.err()
                ),
            }
        }
    }
}

#[test]
fn trace_recomputed_latencies_equal_online_stats() {
    let input = small_inputs().pop().expect("the stream input");
    for family in [
        Family::Router,
        Family::Dmdar,
        Family::DartsLuf,
        Family::Eager,
    ] {
        let (report, trace) = run_full(&input, family.build(3).as_mut()).expect("stream runs");
        let online = report.online.expect("online run");
        let facts = trace_facts(&input, &trace).expect("every task finishes once");
        assert_eq!(
            (facts.p50_latency, facts.p99_latency),
            (online.p50_latency, online.p99_latency),
            "{family:?}"
        );
    }
}

#[test]
fn recomputed_flops_match_the_generators() {
    for input in small_inputs() {
        let expect = Expect::of(&input);
        let want = input.ts.total_flops();
        assert!(
            (expect.flops - want).abs() <= 1e-9 * want,
            "{}",
            input.label
        );
    }
    let gemm3d = Input {
        label: "gemm3d(5)".into(),
        ts: gemm_3d(5),
        spec: PlatformSpec::v100(2),
        online: false,
        kind: Kind::Gemm,
    };
    assert_eq!(Expect::of(&gemm3d).flops, gemm3d.ts.total_flops());
}

#[test]
fn shuffled_k_gemm_3d_reorders_the_same_tasks() {
    let n = 6;
    let pairs = |ts: &memsched_model::TaskSet| {
        let mut v: Vec<Vec<u32>> = ts.tasks().map(|t| ts.inputs(t).to_vec()).collect();
        v.sort();
        v
    };
    let natural = gemm_3d(n);
    let a = gemm_3d_shuffled_k(n, 1);
    assert_eq!(pairs(&natural), pairs(&a));
    assert_eq!(natural.total_flops(), a.total_flops());
    let order = |ts: &memsched_model::TaskSet| -> Vec<Vec<u32>> {
        ts.tasks().map(|t| ts.inputs(t).to_vec()).collect()
    };
    assert_eq!(
        order(&a),
        order(&gemm_3d_shuffled_k(n, 1)),
        "same seed, same order"
    );
    assert_ne!(
        order(&a),
        order(&gemm_3d_shuffled_k(n, 2)),
        "seeds draw different orders"
    );
}

/// Names and units of a metric list in `BENCHMARK.json`.
fn declared(doc: &serde_json::Value, key: &str) -> Vec<(String, String)> {
    let text = |v: &serde_json::Value, field: &str| -> String {
        v.field(field, key)
            .expect("field present")
            .as_str()
            .expect("a string")
            .to_string()
    };
    doc.field(key, "BENCHMARK.json")
        .expect("list present")
        .as_arr()
        .expect("an array")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = serde_json::parse_value(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared(&doc, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared(&doc, "per_layer"), layers);
}
