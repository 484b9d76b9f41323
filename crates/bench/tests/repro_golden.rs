//! `repro` prints every paper table and figure deterministically; its whole
//! standard output is pinned byte for byte by `tests/golden/repro.txt` at
//! the workspace root, written by the build before rename adoptions carried
//! their view extents.

use std::process::Command;

#[test]
fn repro_output_matches_the_golden_byte_for_byte() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/repro.txt");
    let expected = std::fs::read_to_string(golden).expect("tests/golden/repro.txt");
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .output()
        .expect("run repro");
    assert!(run.status.success(), "repro exited with {}", run.status);
    let out = String::from_utf8(run.stdout).expect("repro prints UTF-8");
    assert!(
        out == expected,
        "repro output ({} lines) diverged from {golden} ({} lines); first differing line: {:?}",
        out.lines().count(),
        expected.lines().count(),
        out.lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
    );
}
