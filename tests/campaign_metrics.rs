//! End-to-end check of the observability layer's determinism contract:
//! the *deterministic counters* ([`RunCounters`]) of a campaign run are
//! byte-identical across worker counts and across shard + merge, every
//! run reports only its own events even while other runs share the
//! process, and the campaign report itself stays byte-identical to its
//! golden file — collecting metrics never perturbs a report.

use std::sync::Barrier;

use ftsched_campaign::prelude::*;
use ftsched_obs::Recorder;

fn root(path: &str) -> String {
    format!("{}/{path}", env!("CARGO_MANIFEST_DIR"))
}

fn exec(threads: usize, block_size: usize) -> ExecutorConfig {
    ExecutorConfig {
        threads,
        block_size,
        progress: false,
        heartbeat: false,
        design_cache: true,
    }
}

fn grid_spec() -> CampaignSpec {
    let path = root("examples/grid_sweep.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let spec: CampaignSpec = serde_json::from_str(&text).expect("grid_sweep spec parses");
    spec.validate().unwrap();
    spec
}

/// Runs `run` in a recorder of its own and returns its report plus the
/// metrics it recorded.
fn counted(run: impl FnOnce() -> CampaignReport) -> (CampaignReport, RunMetrics) {
    let recorder = Recorder::new();
    let _current = recorder.enter();
    let report = run();
    (report, recorder.snapshot())
}

#[test]
fn deterministic_counters_match_across_thread_counts_and_shard_merge() {
    let spec = grid_spec();
    let golden = std::fs::read_to_string(root("tests/golden/grid_sweep.json")).unwrap();

    let (sequential, seq) = counted(|| run_campaign(&spec, &exec(1, 32)).unwrap());
    let (threaded, thr) = counted(|| run_campaign(&spec, &exec(4, 8)).unwrap());
    let (seq_counters, thr_counters) = (seq.counters, thr.counters);

    // Two shards, each its own counters — exactly what two separate
    // `ftsched run --shard i/2 --metrics-json` processes would write.
    let shard = |index| ShardInfo { index, count: 2 };
    let (part0, m0) = counted(|| run_campaign_shard(&spec, &exec(2, 16), Some(shard(0))).unwrap());
    let (part1, m1) = counted(|| run_campaign_shard(&spec, &exec(2, 16), Some(shard(1))).unwrap());
    let merged = merge_reports(vec![part0, part1]).unwrap();
    let shard_counters = m0.counters.merged(&m1.counters);

    // The deterministic half is a pure function of the spec: identical
    // at any worker count, and additive across shards.
    assert_eq!(seq_counters, thr_counters, "1-thread vs 4-thread counters");
    assert_eq!(
        seq_counters, shard_counters,
        "unsharded vs shard-merged counters"
    );

    // Sanity on the event algebra itself: every trial is accounted for
    // by exactly one terminal status, and the simulator ran once per
    // accepted trial (caches memoise design stages, never simulation).
    let c = &seq_counters;
    let grid_trials = (spec.scenarios().len() * spec.trials_per_scenario) as u64;
    assert_eq!(c.trials_started, grid_trials);
    assert_eq!(c.trials_completed, c.trials_started);
    assert_eq!(
        c.trials_accepted
            + c.trials_generation_failed
            + c.trials_partition_failed
            + c.trials_design_rejected
            + c.trials_simulation_failed,
        c.trials_completed
    );
    assert_eq!(c.sim_runs, c.trials_accepted);
    assert_eq!(c.validate_runs, c.trials_accepted);

    // Observability never touches report bytes: all three runs still
    // reproduce the golden exactly.
    assert_eq!(sequential.to_json(), golden, "1-thread report vs golden");
    assert_eq!(threaded.to_json(), golden, "4-thread report vs golden");
    assert_eq!(merged.to_json(), golden, "shard-merged report vs golden");
}

#[test]
fn concurrent_shard_runs_each_report_the_counters_of_a_lone_run() {
    let spec = grid_spec();
    let shard = |index| Some(ShardInfo { index, count: 2 });
    // One worker per run, so even the scheduling-dependent tallies
    // (cache hit/miss splits, sweep builds) are fixed by the spec.
    let run = |index| run_campaign_shard(&spec, &exec(1, 16), shard(index)).unwrap();

    let alone: Vec<RunMetrics> = [0, 1].map(|index| counted(|| run(index)).1).into();
    let start = Barrier::new(2);
    let together: Vec<RunMetrics> = std::thread::scope(|scope| {
        let runs = [0, 1].map(|index| {
            let (run, start) = (&run, &start);
            scope.spawn(move || {
                counted(|| {
                    start.wait();
                    run(index)
                })
                .1
            })
        });
        runs.map(|r| r.join().unwrap()).into()
    });

    let tallies = |m: &RunMetrics| {
        let t = &m.timing;
        let caches = (t.generation_cache, t.partition_cache);
        (
            caches,
            t.design_stage_runs,
            t.sweep_builds,
            t.worker_trials.clone(),
        )
    };
    for (index, (lone, concurrent)) in alone.iter().zip(&together).enumerate() {
        assert_eq!(concurrent.counters, lone.counters, "shard {index}");
        assert_eq!(tallies(concurrent), tallies(lone), "shard {index}");
    }
    assert_eq!(
        alone[0].counters.merged(&alone[1].counters).trials_started,
        (spec.scenarios().len() * spec.trials_per_scenario) as u64
    );
}
