//! Table-driven checks of a binary's command line: exit codes, where
//! usage goes, and that no input makes it panic.

use std::path::PathBuf;
use std::process::Command;

/// One invocation and the exit code it must produce.
pub struct Case<'a> {
    pub args: &'a [&'a str],
    pub code: i32,
}

pub const fn case<'a>(args: &'a [&'a str], code: i32) -> Case<'a> {
    Case { args, code }
}

/// A scratch directory for one test's files, unique per process.
pub fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("com-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run every case of `bin`: the exit code must match, stderr must never
/// report a panic, and `--help` must print the usage to stdout only.
pub fn check(bin: &str, cases: &[Case]) {
    let name = std::path::Path::new(bin)
        .file_stem()
        .unwrap()
        .to_string_lossy();
    for Case { args, code } in cases {
        let out = Command::new(bin).args(*args).output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let shown = format!("{name} {args:?}\nstdout: {stdout}\nstderr: {stderr}");
        assert_eq!(out.status.code(), Some(*code), "{shown}");
        assert!(!stderr.contains("panicked"), "{shown}");
        if args.contains(&"--help") {
            assert!(stdout.starts_with(&format!("usage: {name}")), "{shown}");
            assert!(stderr.is_empty(), "{shown}");
        } else if *code == 2 {
            assert!(!stderr.trim().is_empty(), "{shown}");
        }
    }
}
