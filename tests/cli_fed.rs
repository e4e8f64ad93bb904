//! The command line of `matchfed`.

#[path = "common/cli.rs"]
mod cli;

use cli::{case, check, scratch};

#[test]
fn matchfed_command_line() {
    let dir = scratch("matchfed");
    let unwritable = dir.join("missing-dir").join("fed.json");
    let unwritable = unwritable.to_str().unwrap();
    check(
        env!("CARGO_BIN_EXE_matchfed"),
        &[
            case(&["--help"], 0),
            case(&["--bogus"], 2),
            case(&["--matcher"], 2),
            case(&["--seed", "x"], 2),
            case(&["--deadline-ms", "soon"], 2),
            case(&["--frame", "xml"], 2),
            case(&["--quick", "--full-scale"], 2),
            // matchfed takes only --quick and --full-scale.
            case(&["--profile", "quick"], 2),
            case(&["--config", "s.json"], 2),
            case(&["--addr-a", "127.0.0.1:9"], 2),
            // The run succeeds; only the report cannot be written.
            case(&["--quick", "--json", unwritable], 1),
        ],
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
