//! Online admission control: drive the `ftsched serve` engine directly.
//!
//! Builds admission requests over the paper's 13-task application,
//! admits them through the [`ftsched::serve::AdmissionEngine`]'s hot
//! caches, flips the design goal over one platform configuration (a
//! context-cache hit) and prints the engine summary — the same loop
//! `ftsched serve` runs behind a unix socket or stdin/stdout framing.
//!
//! Run with:
//!
//! ```text
//! cargo run --example online_admission
//! ```

use ftsched::analysis::Algorithm;
use ftsched::design::partitioner::PartitionHeuristic;
use ftsched::design::DesignGoal;
use ftsched::serve::{AdmissionEngine, AdmissionRequest, EngineConfig, TaskRequest, Verdict};

fn paper_request(id: u64, goal: DesignGoal, total_overhead: f64) -> AdmissionRequest {
    let tasks = ftsched::task::examples::paper_taskset()
        .iter()
        .map(|t| TaskRequest {
            id: t.id.0,
            wcet: t.wcet,
            period: t.period,
            deadline: t.deadline,
            mode: t.mode,
        })
        .collect();
    AdmissionRequest {
        id,
        tasks,
        algorithm: Algorithm::EarliestDeadlineFirst,
        goal,
        total_overhead,
        // Worst-fit balances the channels; the greedy packings leave the
        // full paper set with no admissible overhead at all.
        heuristic: PartitionHeuristic::WorstFitDecreasing,
    }
}

fn describe(response: &ftsched::serve::AdmissionResponse) {
    match &response.verdict {
        Verdict::Admitted { design } => println!(
            "request {}: ADMITTED  period P = {:.3}, slack {:.3} ({:.1}% bandwidth)",
            response.id,
            design.period,
            design.slack,
            100.0 * design.slack_bandwidth,
        ),
        Verdict::Rejected { reason } => println!("request {}: REJECTED  {reason}", response.id),
        Verdict::Error { reason } => println!("request {}: ERROR     {reason}", response.id),
    }
}

fn main() {
    let engine = AdmissionEngine::new(EngineConfig::default());

    // A platform reconfiguration sequence: the same application under
    // both §4 design goals, a repeat (served from the admission cache),
    // and a greedy partitioning that does not fit.
    let queries = vec![
        paper_request(1, DesignGoal::MinimizeOverheadBandwidth, 0.02),
        paper_request(2, DesignGoal::MaximizeSlackBandwidth, 0.02),
        paper_request(3, DesignGoal::MinimizeOverheadBandwidth, 0.02),
        {
            let mut infeasible = paper_request(4, DesignGoal::MinimizeOverheadBandwidth, 0.02);
            infeasible.heuristic = PartitionHeuristic::FirstFitDecreasing;
            infeasible
        },
    ];

    // A batch is decided request by request; responses keep request
    // order.
    let batch: Vec<Result<AdmissionRequest, String>> = queries.into_iter().map(Ok).collect();
    for response in engine.admit_batch(&batch) {
        describe(&response);
    }

    let summary = engine.summary();
    println!(
        "\n{} requests: {} admitted, {} rejected, {} errors",
        summary.requests, summary.admitted, summary.rejected, summary.errors
    );
    println!(
        "admission cache {} hits / {} misses, context cache {} hits / {} misses",
        summary.admission_cache_hits,
        summary.admission_cache_misses,
        summary.context_cache_hits,
        summary.context_cache_misses
    );
    println!(
        "admission latency p50 {:.0} us, p95 {:.0} us, p99 {:.0} us",
        summary.latency_p50_us, summary.latency_p95_us, summary.latency_p99_us
    );
}
