//! Command-line input through the real binary: a duration the simulator
//! cannot represent is refused with the usage error, not run truncated,
//! and an unknown command or flag exits 1 before any work.

use std::process::Command;

fn simulate(duration: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ccdem"))
        .args(["simulate", "--app", "Facebook", "--duration", duration])
        .output()
        .expect("run ccdem simulate")
}

#[test]
fn durations_that_are_zero_or_overflow_microseconds_exit_1() {
    // 18 446 744 073 710 s is the first whole second past u64::MAX µs.
    for duration in ["0", "18446744073710", "18446744073709551615"] {
        let out = simulate(duration);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "--duration {duration}: {stderr}"
        );
        assert!(
            stderr.contains("--duration must be a positive number of seconds"),
            "--duration {duration}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "--duration {duration} printed a result"
        );
    }
}

#[test]
fn unknown_commands_and_flags_exit_1_with_empty_stdout() {
    let mut cases = vec![(vec!["bench"], "unknown command \"bench\"")];
    for command in [
        "catalog", "table", "simulate", "trace", "profile", "sweep", "report", "fleet", "lint",
    ] {
        cases.push((vec![command, "--bogus"], "unknown flag \"--bogus\""));
    }
    // `profile` prints its layer table to stdout; it writes no file.
    cases.push((vec!["profile", "--out", "x"], "unknown flag \"--out\""));
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ccdem"))
            .args(&args)
            .output()
            .expect("run ccdem");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
