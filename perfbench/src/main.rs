//! Seeded end-to-end and per-layer benchmark of the EMOGI simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bfs-zerocopy --seed 1 --seconds 36 --trace 0
//! ```
//!
//! One run generates the workload's inputs from `--seed`, makes one
//! warm-up repetition, then for `--seconds` repeatedly sets the workload
//! up (generate, load) and times its whole query sequence. Simulated
//! metrics come from the engines' `RunStats` and the server's
//! `ServerStats` and must repeat bit for bit; host metrics are the
//! simulator's own time, scaled by a reference workload (`calib`). Every
//! output is checked against the CPU references outside the timed phase.
//! With `--trace 1` the run also makes one traced repetition and the
//! layer microbenchmarks, and reports per-layer metrics instead of
//! end-to-end ones. The last line of standard output is one JSON object.
//! See README.md beside this file.

#![forbid(unsafe_code)]
// Wall-clock timing is this package's job; the repository's clippy.toml
// forbids it only for the deterministic crates.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

mod calib;
mod metrics;
mod micro;
mod oracle;
mod trace;
mod workload;

use calib::{Lap, Meter};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Inputs, Sequence, Size, System, Workload};

const USAGE: &str =
    "usage: perfbench --workload <bfs-zerocopy|sweep-tiered|serve-mixed> --seed <n> --seconds <n> --trace <0|1>";

/// Repetitions made even when `--seconds` has run out.
const MIN_REPS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match num()? {
                    0 => false,
                    1 => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One set-up plus one timed sequence.
pub struct Rep {
    pub inputs: Inputs,
    pub sequence: Sequence,
    pub setup: Lap,
    pub digest: u64,
}

fn run_rep(workload: Workload, seed: u64, size: Size, tracer: &Tracer, meter: &mut Meter) -> Rep {
    let t = Instant::now();
    let inputs = tracer.span("graph.generate", None, || {
        Inputs::generate(workload, seed, size)
    });
    let mut system = System::load(&inputs, tracer);
    let setup = meter.lap(t);
    let sequence = tracer.span("bench.sequence", None, || {
        system.run(&inputs, tracer, meter)
    });
    drop(system);
    let digest = oracle::digest(&sequence);
    Rep {
        inputs,
        sequence,
        setup,
        digest,
    }
}

/// What a timed repetition keeps.
pub struct Timing {
    pub setup: Lap,
    pub host: Lap,
    pub digest: u64,
}

/// The repetitions of one untraced run.
pub struct Measured {
    /// The first repetition: a warm-up kept whole for the oracle, and
    /// for peak memory.
    pub first: Rep,
    /// The timed repetitions after it.
    pub timings: Vec<Timing>,
    /// Every reference run, in order.
    pub refs: Vec<f64>,
    /// `VmHWM` after the first repetition, MiB.
    pub peak_rss_mb: f64,
}

/// Run one warm-up repetition, then repeat set-up and sequence under a
/// reference [`Meter`] for `seconds` (at least [`MIN_REPS`] times).
/// Every repetition must reproduce the warm-up's digest.
pub fn measure(
    workload: Workload,
    seed: u64,
    size: Size,
    seconds: u64,
) -> Result<Measured, String> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let first = run_rep(workload, seed, size, &Tracer::off(), &mut Meter::off());
    // Peak memory of one set-up and sequence from a fresh process, before
    // the reference table exists.
    let peak_rss_mb = peak_rss_mb()?;
    let mut meter = Meter::on();
    let mut timings: Vec<Timing> = Vec::new();
    loop {
        let elapsed = start.elapsed();
        let per_rep = elapsed / (timings.len() as u32 + 1);
        if timings.len() >= MIN_REPS && elapsed + per_rep > budget {
            break;
        }
        let rep = run_rep(workload, seed, size, &Tracer::off(), &mut meter);
        timings.push(Timing {
            setup: rep.setup,
            host: rep.sequence.host,
            digest: rep.digest,
        });
    }
    Ok(Measured {
        first,
        timings,
        refs: meter.refs,
        peak_rss_mb,
    })
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let size = Size::BENCH;
    let Measured {
        first,
        timings,
        refs,
        peak_rss_mb,
    } = match measure(args.workload, args.seed, size, args.seconds) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let check = oracle::check(&first.inputs, &first.sequence);
    for note in &check.notes {
        eprintln!("perfbench: {note}");
    }
    let reps = 1 + timings.len() as u64;
    let diverged = timings.iter().filter(|t| t.digest != first.digest).count() as u64;
    if diverged > 0 {
        eprintln!(
            "perfbench: {diverged} of {reps} repetitions diverged from digest {:#018x}",
            first.digest
        );
    }
    let per_rep = check.attempted;
    let mut attempted = per_rep * reps;
    let mut failed = check.failed() * reps + per_rep * diverged;

    let host = metrics::HostTimes::of(&timings, &refs);
    let mut report = metrics::end_to_end(&first, &host, peak_rss_mb);
    if args.trace {
        let tracer = Tracer::on();
        let traced = run_rep(args.workload, args.seed, size, &tracer, &mut Meter::off());
        attempted += per_rep;
        if traced.digest != first.digest {
            eprintln!("perfbench: the traced repetition diverged from the untraced ones");
            failed += per_rep;
        }
        let spans = tracer.spans();
        let micro = micro::run(&first.inputs, args.seed);
        report = metrics::per_layer(&first, &traced, &spans, &micro, &host);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_json_lines(&spans)));
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("# spans: {} written to {}", spans.len(), path.display());
    }

    println!(
        "# workload {} seed {} reps {reps} digest {:#018x}",
        args.workload.name(),
        args.seed,
        first.digest
    );
    println!(
        "# queries {per_rep} per sequence, latency samples {}, failed_frac {}",
        metrics::latency_samples(&first.sequence).len(),
        failed as f64 / attempted as f64
    );
    let hosts: Vec<String> = timings
        .iter()
        .map(|t| format!("{:.4}/{:.4}", t.host.wall_s, t.host.scaled_s))
        .collect();
    println!(
        "# sequence wall/scaled s of each timed repetition: {}",
        hosts.join(" ")
    );
    let refs: Vec<String> = refs.iter().map(|r| format!("{r:.4}")).collect();
    println!("# reference runs: {}", refs.join(" "));
    for (name, value, unit) in report.iter() {
        println!("# {name} = {value} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        report.to_json()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(workload: Workload, seed: u64) -> u64 {
        let rep = run_rep(
            workload,
            seed,
            Size::SMALL,
            &Tracer::off(),
            &mut Meter::on(),
        );
        let check = oracle::check(&rep.inputs, &rep.sequence);
        assert_eq!(check.failed(), 0, "{:?}: {:?}", workload, check.notes);
        rep.digest
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for w in Workload::ALL {
            let a = digest_of(w, 11);
            assert_eq!(a, digest_of(w, 11), "{} is not deterministic", w.name());
            assert_ne!(
                a,
                digest_of(w, 12),
                "{}: the seed does not reach the inputs",
                w.name()
            );
        }
    }

    #[test]
    fn tracing_does_not_change_the_simulation() {
        let w = Workload::ServeMixed;
        let tracer = Tracer::on();
        let traced = run_rep(w, 5, Size::SMALL, &tracer, &mut Meter::off());
        assert_eq!(traced.digest, digest_of(w, 5));
        let spans = tracer.spans();
        let (submits, _) = trace::total(&spans, "serve.submit");
        assert_eq!(submits as usize, traced.sequence.queries.len());
    }

    #[test]
    fn args_parse_and_reject() {
        let ok = parse_args(
            [
                "--workload",
                "serve-mixed",
                "--seed",
                "3",
                "--seconds",
                "5",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .expect("valid arguments");
        assert_eq!(ok.workload, Workload::ServeMixed);
        assert!(ok.trace);
        for bad in [
            vec!["--workload", "nope", "--seed", "1", "--seconds", "1"],
            vec!["--seed", "1", "--seconds", "1"],
            vec![
                "--workload",
                "bfs-zerocopy",
                "--seed",
                "x",
                "--seconds",
                "1",
            ],
            vec![
                "--workload",
                "bfs-zerocopy",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
        ] {
            assert!(parse_args(bad.into_iter().map(String::from)).is_err());
        }
    }

    #[test]
    fn benchmark_json_lists_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            assert!(compact.contains(&format!("\"name\":\"{}\"", w.name())));
        }
    }
}
