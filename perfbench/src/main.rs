//! `perfbench --workload <paper|lookup|mixed_write> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints facts about the run (seed, sizes, toolchain, workload
//! properties) as one JSON line, then the result as the last line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. The
//! same two objects, and a traced run's spans, are written under `out/`
//! next to this crate.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use perfbench::gen::Sizes;
use perfbench::report::{number, result_line, string, END_TO_END, PER_LAYER};
use perfbench::{run, Config, Workload};

fn usage() -> String {
    "usage: perfbench --workload <paper|lookup|mixed_write> --seed <n> --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`\n{}", usage())),
        }
    }
    Ok(Config {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
        sizes: Sizes::FULL,
        plant_wrong_answer: false,
    })
}

/// First line of a command's output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&config);
    let table = if config.trace { PER_LAYER } else { END_TO_END };
    let metrics = outcome.metrics.to_json(table);

    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut info = vec![
        ("workload", string(config.workload.name())),
        ("seed", config.seed.to_string()),
        ("seconds", number(config.seconds)),
        ("trace", u8::from(config.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("rustc", string(&command_line("rustc", &["-V"]))),
        (
            "commit",
            string(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "error_share",
            number(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
    ];
    info.extend(outcome.info);
    let info = format!(
        "{{{}}}",
        info.iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let result = result_line(outcome.attempted, outcome.failed, &metrics);

    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        config.workload.name(),
        config.seed,
        u8::from(config.trace)
    );
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| {
            std::fs::write(
                out.join(format!("{stem}.json")),
                format!("{{\"info\": {info}, \"result\": {result}}}\n"),
            )
        })
        .and_then(|()| match &outcome.spans {
            Some(spans) => std::fs::write(out.join(format!("{stem}.spans.jsonl")), spans),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("could not write results under {}: {e}", out.display());
    }
    println!("{info}");
    println!("{result}");
    ExitCode::SUCCESS
}
