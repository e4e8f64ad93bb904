//! The command lines of `simulate` and `repro`.

#[path = "common/cli.rs"]
mod cli;

use cli::{case, check, scratch};

#[test]
fn simulate_command_line() {
    let dir = scratch("simulate");
    let garbled = dir.join("garbled.json");
    std::fs::write(&garbled, "{ not json").unwrap();
    let garbled = garbled.to_str().unwrap();
    let unwritable = dir.join("missing-dir").join("out.json");
    let unwritable = unwritable.to_str().unwrap();
    check(
        env!("CARGO_BIN_EXE_simulate"),
        &[
            case(&["--help"], 0),
            case(&["--bogus"], 2),
            case(&["--algo"], 2),
            case(&["--seed", "x"], 2),
            case(&["--threads", "many"], 2),
            case(&["--metric", "chebyshev"], 2),
            case(&["--profile", "atlantis"], 2),
            case(&["--profile", "synthetic", "--config", garbled], 2),
            // simulate takes no --quick: name the table entry instead.
            case(&["--quick"], 2),
            case(&["--config", "/nonexistent/s.json"], 2),
            case(&["--config", garbled], 2),
            case(&["--workers-csv", "/nonexistent/w.csv"], 2),
            case(
                &[
                    "--workers-csv",
                    "/nonexistent/w.csv",
                    "--requests-csv",
                    "/nonexistent/r.csv",
                ],
                2,
            ),
            case(&["--algo", "nonesuch"], 2),
            case(
                &["--profile", "quick", "--algo", "tota", "--json", unwritable],
                1,
            ),
        ],
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn repro_command_line() {
    let help = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--help")
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&help.stdout).contains("table5x30"));
    // Each case would run a full-scale experiment first if the arguments
    // were not all checked up front.
    check(
        env!("CARGO_BIN_EXE_repro"),
        &[
            case(&["--help"], 0),
            case(&["table5", "--threds", "2"], 2),
            case(&["table5", "tabel6"], 2),
            case(&["all", "--out"], 2),
            case(&["table5", "--threads", "x"], 2),
            case(&["table5", "--threads", "-1"], 2),
        ],
    );
}
