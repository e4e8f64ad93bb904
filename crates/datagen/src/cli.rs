//! The command-line front end shared by the workspace binaries.
//!
//! Two parts:
//!
//! * [`Cli`] — a cursor over `argv`. `--help`/`-h` prints the binary's
//!   usage to stdout and exits 0; a usage error prints its message and
//!   the usage to stderr and exits 2. [`Cli::value`], [`Cli::parse`] and
//!   [`Cli::positive`] read a flag's value.
//! * [`ScenarioArg`] — the scenario selectors `--profile NAME`,
//!   `--config FILE`, `--quick` and `--full-scale`, resolved through the
//!   one name table `PROFILES`. A binary lists the selectors it
//!   accepts; giving two of them is a usage error.
//!
//! A binary's loop reads one flag at a time and dispatches on it:
//!
//! ```no_run
//! use com_datagen::cli::{Cli, ScenarioArg, PROFILE, QUICK};
//!
//! let mut cli = Cli::new("usage: tool [--quick | --profile NAME] [--seed N]");
//! let mut scenario = ScenarioArg::new(&[PROFILE, QUICK], "synthetic");
//! let mut seed = 42u64;
//! while let Some(flag) = cli.next() {
//!     match flag.as_str() {
//!         _ if scenario.read(&flag, &mut cli) => {}
//!         "--seed" => seed = cli.parse(&flag),
//!         _ => cli.unknown(&flag),
//!     }
//! }
//! let config = scenario.load();
//! # let _ = (config, seed);
//! ```

use std::fmt::Display;
use std::str::FromStr;

use crate::profiles::{chengdu_nov, chengdu_oct, synthetic, xian_nov};
use crate::{ScenarioConfig, SyntheticParams};

/// The scenario selector flags.
pub const PROFILE: &str = "--profile";
pub const CONFIG: &str = "--config";
pub const QUICK: &str = "--quick";
pub const FULL_SCALE: &str = "--full-scale";

fn synthetic_default() -> ScenarioConfig {
    synthetic(SyntheticParams::default())
}

/// The small synthetic scenario the smoke runs use.
fn quick() -> ScenarioConfig {
    synthetic(SyntheticParams {
        n_requests: 400,
        n_workers: 120,
        ..SyntheticParams::default()
    })
}

/// The full-scale synthetic city, 10× quick: the paper-scale serving run.
fn full_scale() -> ScenarioConfig {
    synthetic(SyntheticParams {
        n_requests: 4000,
        n_workers: 1200,
        ..SyntheticParams::default()
    })
}

/// A named scenario and the function that builds it.
type Profile = (&'static str, fn() -> ScenarioConfig);

/// Every scenario a binary can name: `--profile NAME` looks `NAME` up
/// here, and `--quick` / `--full-scale` select the entries of the same
/// name.
const PROFILES: &[Profile] = &[
    ("chengdu-oct", chengdu_oct),
    ("chengdu-nov", chengdu_nov),
    ("xian-nov", xian_nov),
    ("synthetic", synthetic_default),
    ("quick", quick),
    ("full-scale", full_scale),
];

fn find_profile(name: &str) -> Option<&'static Profile> {
    PROFILES.iter().find(|(n, _)| *n == name)
}

/// Print `msg` to stderr and exit with `code`: the one-line error of a
/// binary that cannot read its input (2) or write its output (1).
pub fn exit_with(code: i32, msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}

/// A cursor over a binary's arguments.
pub struct Cli {
    usage: &'static str,
    args: std::vec::IntoIter<String>,
}

impl Cli {
    /// The process arguments after the program name.
    pub fn new(usage: &'static str) -> Cli {
        Cli::from_args(usage, std::env::args().skip(1))
    }

    fn from_args(usage: &'static str, args: impl IntoIterator<Item = String>) -> Cli {
        Cli {
            usage,
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
        }
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        match self.args.next() {
            Some(value) => value,
            None => self.fail(format!("{flag} needs a value")),
        }
    }

    /// The value following `flag`, parsed.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> T
    where
        T::Err: Display,
    {
        let value = self.value(flag);
        parse_value(flag, &value).unwrap_or_else(|e| self.fail(e))
    }

    /// The value following `flag`, an integer of at least 1.
    pub fn positive(&mut self, flag: &str) -> usize {
        let value = self.value(flag);
        positive_value(flag, &value).unwrap_or_else(|e| self.fail(e))
    }

    /// A usage error: `msg` and the usage to stderr, exit 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("{msg}\n{}", self.usage);
        std::process::exit(2)
    }

    /// The usage error for a flag the binary does not take.
    pub fn unknown(&self, flag: &str) -> ! {
        self.fail(format!("unknown flag {flag}"))
    }
}

/// The arguments in order. `--help` or `-h` prints the usage to stdout
/// and exits 0.
impl Iterator for Cli {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let arg = self.args.next()?;
        if arg == "--help" || arg == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        Some(arg)
    }
}

fn parse_value<T: FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value
        .parse()
        .map_err(|e| format!("{flag}: cannot parse `{value}`: {e}"))
}

fn positive_value(flag: &str, value: &str) -> Result<usize, String> {
    match parse_value(flag, value)? {
        0 => Err(format!("{flag} must be a positive integer")),
        n => Ok(n),
    }
}

/// Where the scenario comes from.
enum Source {
    Profile(&'static Profile),
    File(String),
}

/// A binary's scenario selection: at most one of the selectors it
/// accepts, else its default profile.
pub struct ScenarioArg {
    accepts: &'static [&'static str],
    source: Source,
    /// The flag that chose `source`, once one has.
    selector: Option<String>,
}

impl ScenarioArg {
    /// `accepts` lists the selector flags the binary takes; `default`
    /// names the `PROFILES` entry used when none is given.
    pub fn new(accepts: &'static [&'static str], default: &str) -> ScenarioArg {
        let default = find_profile(default).expect("the default is a table entry");
        ScenarioArg {
            accepts,
            source: Source::Profile(default),
            selector: None,
        }
    }

    /// Read `flag` (and its value) if it is a selector this binary
    /// accepts; `false` leaves the cursor untouched. An unknown profile
    /// name or a second selector is a usage error.
    pub fn read(&mut self, flag: &str, cli: &mut Cli) -> bool {
        if !self.accepts.contains(&flag) {
            return false;
        }
        if let Some(first) = &self.selector {
            cli.fail(format!(
                "{flag} and {first} both select a scenario; give one"
            ));
        }
        let named = |cli: &Cli, name: &str| match find_profile(name) {
            Some(profile) => Source::Profile(profile),
            None => cli.fail(format!("unknown profile {name}")),
        };
        self.source = match flag {
            CONFIG => Source::File(cli.value(flag)),
            QUICK => named(cli, "quick"),
            FULL_SCALE => named(cli, "full-scale"),
            _ => {
                let name = cli.value(flag);
                named(cli, &name)
            }
        };
        self.selector = Some(flag.to_string());
        true
    }

    /// The selected `PROFILES` name, or `None` for a `--config` file.
    pub fn profile(&self) -> Option<&'static str> {
        match self.source {
            Source::Profile((name, _)) => Some(name),
            Source::File(_) => None,
        }
    }

    /// The selected scenario. An unreadable or unparseable `--config`
    /// file exits 2 with a one-line message.
    pub fn load(&self) -> ScenarioConfig {
        match &self.source {
            Source::Profile((_, build)) => build(),
            Source::File(path) => {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| exit_with(2, format!("cannot read {path}: {e}")));
                serde_json::from_str(&text)
                    .unwrap_or_else(|e| exit_with(2, format!("cannot parse {path}: {e}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    fn cli(args: &[&str]) -> Cli {
        Cli::from_args("usage: test", args.iter().map(|s| s.to_string()))
    }

    fn read_all(scenario: &mut ScenarioArg, args: &[&str]) -> Vec<String> {
        let mut cli = cli(args);
        let mut rest = Vec::new();
        while let Some(flag) = cli.next() {
            if !scenario.read(&flag, &mut cli) {
                rest.push(flag);
            }
        }
        rest
    }

    #[test]
    fn cursor_yields_flags_and_their_values() {
        let mut c = cli(&[
            "--addr",
            "127.0.0.1:0",
            "--seed",
            "7",
            "--window",
            "64",
            "x",
        ]);
        assert_eq!(c.next().as_deref(), Some("--addr"));
        assert_eq!(c.value("--addr"), "127.0.0.1:0");
        assert_eq!(c.next().as_deref(), Some("--seed"));
        assert_eq!(c.parse::<u64>("--seed"), 7);
        assert_eq!(c.next().as_deref(), Some("--window"));
        assert_eq!(c.positive("--window"), 64);
        assert_eq!(c.next().as_deref(), Some("x"));
        assert_eq!(c.next(), None);
    }

    #[test]
    fn value_checks_name_the_flag() {
        assert_eq!(parse_value::<f64>("--rate", "2.5"), Ok(2.5));
        let e = parse_value::<u64>("--seed", "abc").unwrap_err();
        assert!(e.starts_with("--seed: cannot parse `abc`"), "{e}");
        assert_eq!(
            positive_value("--shards", "0").unwrap_err(),
            "--shards must be a positive integer"
        );
        assert!(positive_value("--shards", "-1").is_err());
        assert_eq!(positive_value("--shards", "4"), Ok(4));
    }

    #[test]
    fn profile_table_names_are_unique_and_complete() {
        let names: Vec<&str> = PROFILES.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "chengdu-oct",
                "chengdu-nov",
                "xian-nov",
                "synthetic",
                "quick",
                "full-scale"
            ]
        );
        assert!(find_profile("chengdu-dec").is_none());
    }

    #[test]
    fn table_entries_match_the_profile_functions() {
        let same = |name: &str, config: ScenarioConfig| {
            let entry = find_profile(name).unwrap().1();
            assert_eq!(
                serde_json::to_string(&entry).unwrap(),
                serde_json::to_string(&config).unwrap(),
                "{name}"
            );
        };
        same("chengdu-oct", chengdu_oct());
        same("chengdu-nov", chengdu_nov());
        same("xian-nov", xian_nov());
        same("synthetic", synthetic(SyntheticParams::default()));
    }

    #[test]
    fn quick_and_full_scale_generate_the_historic_instances() {
        // The literals the binaries spelled out before the table existed.
        let literal = |n_requests, n_workers| {
            synthetic(SyntheticParams {
                n_requests,
                n_workers,
                ..SyntheticParams::default()
            })
        };
        for (name, config) in [
            ("quick", literal(400, 120)),
            ("full-scale", literal(4000, 1200)),
        ] {
            let entry = generate(&find_profile(name).unwrap().1());
            let expected = generate(&config);
            assert_eq!(entry.request_count(), expected.request_count(), "{name}");
            assert_eq!(entry.worker_count(), expected.worker_count(), "{name}");
            assert_eq!(
                format!("{:?}", entry.stream),
                format!("{:?}", expected.stream),
                "{name}"
            );
        }
    }

    #[test]
    fn scenario_defaults_and_selects() {
        let all = &[PROFILE, CONFIG, QUICK, FULL_SCALE];
        let mut s = ScenarioArg::new(all, "synthetic");
        assert_eq!(read_all(&mut s, &["--seed", "1"]), ["--seed", "1"]);
        assert_eq!(s.profile(), Some("synthetic"));

        let mut s = ScenarioArg::new(all, "synthetic");
        read_all(&mut s, &["--profile", "xian-nov"]);
        assert_eq!(s.profile(), Some("xian-nov"));

        let mut s = ScenarioArg::new(all, "synthetic");
        read_all(&mut s, &["--full-scale"]);
        assert_eq!(s.profile(), Some("full-scale"));

        let mut s = ScenarioArg::new(all, "synthetic");
        read_all(&mut s, &["--config", "scenario.json"]);
        assert_eq!(s.profile(), None);
    }

    #[test]
    fn selectors_a_binary_does_not_accept_pass_through() {
        let mut s = ScenarioArg::new(&[QUICK, FULL_SCALE], "quick");
        let rest = read_all(&mut s, &["--profile", "xian-nov", "--config", "f"]);
        assert_eq!(rest, ["--profile", "xian-nov", "--config", "f"]);
        assert_eq!(s.profile(), Some("quick"));
    }

    #[test]
    fn a_config_file_round_trips() {
        let dir = std::env::temp_dir().join(format!("com-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("xian.json");
        std::fs::write(&path, serde_json::to_string(&xian_nov()).unwrap()).unwrap();
        let mut s = ScenarioArg::new(&[CONFIG], "synthetic");
        read_all(&mut s, &["--config", path.to_str().unwrap()]);
        assert_eq!(
            serde_json::to_string(&s.load()).unwrap(),
            serde_json::to_string(&xian_nov()).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
