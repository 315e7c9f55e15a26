//! `alfnet-bench`: run one workload, the whole suite, or compare two suites.

use alfnet_bench::{runner, suite};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  alfnet-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>] [--root <dir>]
  alfnet-bench suite [--seed <n>] [--seconds <s>] [--reps <n>] [--root <dir>]
  alfnet-bench compare <a.json> <b.json> [--root <dir>]";

/// `--key value` pairs after the positional arguments.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<(Vec<String>, Flags), String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) => {
                    let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    flags.push((key.to_string(), v.clone()));
                }
                None => positional.push(a.clone()),
            }
        }
        Ok((positional, Flags(flags)))
    }

    fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.parse().map_err(|_| format!("--{key}: bad value {v:?}")))
            .transpose()
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.opt(key)?
            .ok_or_else(|| format!("--{key} is required\n{USAGE}"))
    }
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (positional, flags) = Flags::parse(&args)?;
    let root: PathBuf = flags.get("root", PathBuf::from("."))?;
    match positional.first().map(String::as_str) {
        None => {
            let out = runner::run(&runner::Args {
                workload: flags.require("workload")?,
                seed: flags.require("seed")?,
                seconds: flags.require("seconds")?,
                trace: flags.require::<u8>("trace")? != 0,
                scale: flags.get("scale", 1.0)?,
                root,
            })?;
            print!("{}", out.report);
            for p in &out.problems {
                eprintln!("FAILED CHECK: {p}");
            }
            println!("{}", out.json_line());
            Ok(out.correct)
        }
        Some("suite") => suite::run(&suite::Args {
            seed: flags.get("seed", 1990)?,
            seconds: flags.opt("seconds")?,
            reps: flags.get("reps", 3)?,
            root,
        }),
        Some("compare") if positional.len() == 3 => {
            suite::compare(&root, &positional[1], &positional[2])
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("alfnet-bench: {e}");
            ExitCode::from(2)
        }
    }
}
