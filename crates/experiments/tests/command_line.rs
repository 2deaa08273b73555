//! The `experiments` binary rejects a malformed command line with exit
//! code 2 before it builds the world or renders anything.

use std::process::Command;

/// Runs the binary; returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env("LPR_RESULTS_DIR", std::env::temp_dir().join("experiments-cli-never-written"))
        .output()
        .expect("spawn experiments");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn malformed_flags_exit_2_before_any_work() {
    for (args, message) in [
        (&["--cycles", "x"][..], "experiments: --cycles: `x`: "),
        (&["fig5", "--cycles", "x"][..], "experiments: --cycles: `x`: "),
        (&["--bogus"][..], "experiments: unknown flag --bogus"),
        (&["fig5", "--cycles"][..], "experiments: --cycles wants a value"),
        (&["fig5", "--trace-level", "loud"][..], "experiments: --trace-level: `loud`: "),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("[world]"), "{args:?} built the world: {stderr}");
    }
}
