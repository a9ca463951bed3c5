//! The `report` binary's `--exp` filter, run as a user runs it.

use std::process::Command;

fn report(exp: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["--exp", exp])
        .output()
        .expect("run the report binary")
}

/// An id the binary does not know stops it with exit status 2 and one
/// line naming the id, before any experiment runs: `--exp e99` used to
/// print the header alone and exit 0, and `--exp e4,e13x` to drop
/// `e13x` and run `e4`.
#[test]
fn an_unknown_experiment_id_exits_2_naming_it() {
    for (exp, unknown) in [("e99", "\"e99\""), ("e4,e13x", "\"e13x\"")] {
        let out = report(exp);
        assert_eq!(out.status.code(), Some(2), "--exp {exp}");
        assert!(out.stdout.is_empty(), "--exp {exp} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "--exp {exp}: {stderr}");
        assert!(stderr.contains(unknown), "--exp {exp}: {stderr}");
    }
    let known = report("e4,e18");
    assert_eq!(known.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&known.stdout);
    assert!(stdout.contains("## E4") && stdout.contains("## E18"));
}
