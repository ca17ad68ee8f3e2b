//! Each admission engine's summary counts its own cache traffic: two
//! engines replaying the same log at the same time each report exactly
//! the tallies of a replay done alone.

use std::sync::Barrier;

use ftsched_serve::{replay, AdmissionEngine, EngineConfig, ServeSummary};

fn request_log() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/serve_requests.jsonl"
    );
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Replays `log` on a fresh engine, one request per batch so the cache
/// traffic is deterministic, after `start` releases it.
fn replayed(log: &str, start: &Barrier) -> ServeSummary {
    let engine = AdmissionEngine::new(EngineConfig::default());
    start.wait();
    replay(&engine, log, &mut Vec::new(), 1).unwrap();
    engine.summary()
}

fn cache_tallies(s: &ServeSummary) -> [u64; 4] {
    [
        s.admission_cache_hits,
        s.admission_cache_misses,
        s.context_cache_hits,
        s.context_cache_misses,
    ]
}

#[test]
fn concurrent_engines_each_report_the_tallies_of_a_lone_replay() {
    let log = request_log();
    let lone = replayed(&log, &Barrier::new(1));
    assert_eq!(cache_tallies(&lone), [1, 7, 2, 5]);

    let start = Barrier::new(2);
    let concurrent: Vec<ServeSummary> = std::thread::scope(|scope| {
        let engines = [(); 2].map(|()| scope.spawn(|| replayed(&log, &start)));
        engines.map(|e| e.join().unwrap()).into()
    });
    for summary in &concurrent {
        assert_eq!(cache_tallies(summary), cache_tallies(&lone));
        assert_eq!(summary.requests, lone.requests);
    }
}
