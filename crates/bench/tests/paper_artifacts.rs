//! The paper's tables and figures, pinned byte for byte.
//!
//! Each binary below prints one artefact of the reproduction (Table 1,
//! Table 2(a)–(c), the Figure 2 timeline, the Figure 3 supply curves,
//! the Figure 4 feasible-period region and the supply-bound ablation).
//! Their whole standard output is checked against an exact-text golden
//! under `tests/golden/paper/`, so any change to the analysis, the
//! design searches or the formatting that moves a single printed digit
//! fails here. The goldens were generated before the slope-bounded
//! period searches replaced the eager grid sweep.

use std::process::Command;

fn golden(name: &str) -> String {
    let path = format!(
        "{}/../../tests/golden/paper/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn stdout_of(binary: &str) -> String {
    let output = Command::new(binary)
        .output()
        .unwrap_or_else(|e| panic!("run {binary}: {e}"));
    assert!(
        output.status.success(),
        "{binary} exited with {}",
        output.status
    );
    String::from_utf8(output.stdout).expect("artefacts are UTF-8")
}

#[test]
fn table1_matches_its_golden() {
    assert_eq!(stdout_of(env!("CARGO_BIN_EXE_table1")), golden("table1"));
}

#[test]
fn table2_matches_its_golden() {
    assert_eq!(stdout_of(env!("CARGO_BIN_EXE_table2")), golden("table2"));
}

#[test]
fn fig2_timeline_matches_its_golden() {
    assert_eq!(
        stdout_of(env!("CARGO_BIN_EXE_fig2_timeline")),
        golden("fig2_timeline")
    );
}

#[test]
fn fig3_supply_matches_its_golden() {
    assert_eq!(
        stdout_of(env!("CARGO_BIN_EXE_fig3_supply")),
        golden("fig3_supply")
    );
}

#[test]
fn fig4_region_matches_its_golden() {
    assert_eq!(
        stdout_of(env!("CARGO_BIN_EXE_fig4_region")),
        golden("fig4_region")
    );
}

#[test]
fn ablation_supply_bound_matches_its_golden() {
    assert_eq!(
        stdout_of(env!("CARGO_BIN_EXE_ablation_supply_bound")),
        golden("ablation_supply_bound")
    );
}
