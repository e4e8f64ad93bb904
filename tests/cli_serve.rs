//! The command lines of `matchd`, `matchload` and `matchreplay`.

#[path = "common/cli.rs"]
mod cli;

use cli::{case, check, scratch};

/// An address nothing listens on: every case below must fail before it
/// would connect.
const ADDR: &str = "127.0.0.1:9";

#[test]
fn matchd_command_line() {
    check(
        env!("CARGO_BIN_EXE_matchd"),
        &[
            case(&["--help"], 0),
            case(&["-h"], 0),
            case(&["--bogus"], 2),
            case(&["stray"], 2),
            case(&["--addr"], 2),
            case(&["--shards", "0"], 2),
            case(&["--shards", "two"], 2),
            case(&["--queue", "-1"], 2),
            case(&["--placement", "ring"], 2),
        ],
    );
}

#[test]
fn matchload_command_line() {
    let dir = scratch("matchload");
    let garbled = dir.join("garbled.json");
    std::fs::write(&garbled, "{ not json").unwrap();
    let garbled = garbled.to_str().unwrap();
    check(
        env!("CARGO_BIN_EXE_matchload"),
        &[
            case(&["--help"], 0),
            case(&["--addr", ADDR, "--help"], 0),
            case(&[], 2),
            case(&["--addr", ADDR, "--bogus"], 2),
            case(&["--addr", ADDR, "--matcher"], 2),
            case(&["--addr", ADDR, "--seed", "x"], 2),
            case(&["--addr", ADDR, "--seed", "-3"], 2),
            case(&["--addr", ADDR, "--window", "0"], 2),
            case(&["--addr", ADDR, "--sessions", "0"], 2),
            case(&["--addr", ADDR, "--connections", "0"], 2),
            case(&["--addr", ADDR, "--frame", "xml"], 2),
            case(&["--addr", ADDR, "--profile", "atlantis"], 2),
            case(&["--addr", ADDR, "--quick", "--full-scale"], 2),
            case(&["--addr", ADDR, "--profile", "xian-nov", "--quick"], 2),
            case(&["--addr", ADDR, "--config", "/nonexistent/s.json"], 2),
            case(&["--addr", ADDR, "--config", garbled], 2),
        ],
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn matchreplay_command_line() {
    let dir = scratch("matchreplay");
    let out = dir.join("out.jsonl");
    let out = out.to_str().unwrap();
    check(
        env!("CARGO_BIN_EXE_matchreplay"),
        &[
            case(&["--help"], 0),
            case(&[], 2),
            case(&["--bogus", "t.jsonl"], 2),
            case(&["--rate", "fast", "t.jsonl"], 2),
            case(&["--seed", "x", "--record", out], 2),
            case(&["--record", out, "t.jsonl"], 2),
            case(&["--record", out, "--quick", "--profile", "synthetic"], 2),
            case(&["--record", out, "--full-scale"], 2),
            case(&["--record", out, "--config", "/nonexistent/s.json"], 2),
            case(&["--strict", "/nonexistent/t.jsonl"], 1),
        ],
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
