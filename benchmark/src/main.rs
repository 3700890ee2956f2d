//! One benchmark for the whole stack.
//!
//! ```text
//! bench run --workload <name>|all [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! bench compare A.json B.json
//! bench spec                        # prints BENCHMARK.json
//! ```
//!
//! `run` prints every metric as `name value unit` and, as its last line,
//! one JSON object `{correct, attempted, failed, metrics}`; it also writes a
//! result file with a header under `benchmark/out/`. An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run reports the
//! per-layer metrics and writes its spans to
//! `benchmark/out/trace-<workload>.json`. See `benchmark/README.md`.

mod calib;
mod closed_loop;
mod gen;
mod inproc;
mod metrics;
mod probes;
mod report;
mod shard_mixed;
mod spec;
mod stats;
mod trace;

use std::io::BufWriter;
use std::process::ExitCode;
use std::time::Duration;

use closed_loop::Phase;
use report::{Report, RunInfo};
use spec::Sizes;
use trace::Tracer;

struct RunArgs {
    workload: String,
    info: RunInfo,
}

fn usage() -> String {
    let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: bench run --workload <{}|all> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]\n       bench compare A.json B.json\n       bench spec",
        names.join("|")
    )
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = spec::DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s}: out of range"));
                }
                seconds = Some(s);
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    trace = false;
                }
                Some("1") => {
                    it.next();
                    trace = true;
                }
                _ => trace = true,
            },
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && spec::sizes(&workload, 1).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    let default_seconds = if smoke {
        spec::SMOKE_SECONDS
    } else {
        spec::RUN_SECONDS
    };
    Ok(RunArgs {
        workload,
        info: RunInfo {
            seed,
            seconds: seconds.unwrap_or(default_seconds),
            trace,
            smoke,
        },
    })
}

fn lowest_tail(phases: &[&Phase]) -> f64 {
    phases
        .iter()
        .flat_map(|p| &p.windows)
        .map(|w| w.tail_q)
        .fold(0.99, f64::min)
}

fn window_secs(phase: &Phase) -> f64 {
    phase.windows.first().map_or(0.0, |w| w.secs)
}

fn write_spans(workload: &str, tracer: &Tracer) -> std::io::Result<()> {
    std::fs::create_dir_all(report::out_dir())?;
    let path = report::out_dir().join(format!("trace-{workload}.json"));
    let mut out = BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_json(&mut out)?;
    std::io::Write::flush(&mut out)?;
    eprintln!("{} spans -> {}", tracer.spans().len(), path.display());
    Ok(())
}

/// The isolated probes: the same for every workload, so one invocation
/// runs them once.
fn probes<'a>(info: &RunInfo, cache: &'a mut Option<Vec<(String, f64)>>) -> &'a [(String, f64)] {
    cache.get_or_insert_with(|| {
        let (keys, beside) = if info.smoke {
            (probes::PROBE_KEYS / spec::SMOKE_DIVISOR, 100)
        } else {
            (probes::PROBE_KEYS, 1000)
        };
        let scratch = report::out_dir();
        std::fs::create_dir_all(&scratch).expect("benchmark/out");
        probes::run(info.seed, keys, &scratch, Duration::from_millis(beside))
    })
}

fn run_workload(
    workload: &'static str,
    info: &RunInfo,
    probe_cache: &mut Option<Vec<(String, f64)>>,
) -> std::io::Result<Report> {
    let divisor = if info.smoke { spec::SMOKE_DIVISOR } else { 1 };
    // A traced run reports no `setup_s`, so it sets up once.
    let repeats = if info.trace || info.smoke {
        1
    } else {
        spec::SETUP_REPEATS
    };
    let mut tracer = info.trace.then(Tracer::new);
    let mut calib = calib::Calibrator::new();
    let sizes = spec::sizes(workload, divisor).expect("a workload of the spec");
    let report = match sizes {
        Sizes::InProc(cfg) => {
            let run = inproc::run(
                &cfg,
                info.seed,
                info.seconds,
                repeats,
                &mut calib,
                tracer.as_mut(),
            );
            let (get, scan) = (&run.get.phase, &run.scan.phase);
            let batches: u64 = run.rounds.iter().map(|r| r.window.ops).sum();
            let metrics = match &tracer {
                Some(t) => metrics::inproc_per_layer(&run, t, probes(info, probe_cache)),
                None => metrics::inproc_end_to_end(&run),
            };
            let traced = [run.traced_get.as_ref(), run.traced_scan.as_ref()];
            let all = [get, scan].into_iter().chain(traced.into_iter().flatten());
            Report {
                workload,
                metrics,
                attempted: batches
                    + all.clone().map(|p| p.attempted).sum::<u64>()
                    + run.reopen_checked,
                failed: run.rounds.iter().map(|r| r.failed).sum::<u64>()
                    + all.map(|p| p.failed).sum::<u64>()
                    + run.setup_failed
                    + run.round_mismatches
                    + run.reopen_failed,
                inputs_hash: run.inputs_hash,
                windows: vec![
                    ("put", run.rounds.len(), run.rounds[0].window.secs),
                    ("get", get.windows.len(), window_secs(get)),
                    ("scan", scan.windows.len(), window_secs(scan)),
                ],
                tail_q: lowest_tail(&[get, scan]),
            }
        }
        Sizes::Mixed(cfg) => {
            let run = shard_mixed::run(
                &cfg,
                info.seed,
                info.seconds,
                repeats,
                &mut calib,
                tracer.as_mut(),
            );
            let metrics = match &tracer {
                Some(t) => metrics::mixed_per_layer(&run, t, probes(info, probe_cache)),
                None => metrics::mixed_end_to_end(&run),
            };
            let traced = run.traced.as_ref();
            let traced = traced.map(|t| [&t.get, &t.wire_get, &t.wire_put, &t.wire_get_alone]);
            let all = [&run.get, &run.scan, &run.put, &run.get_beside];
            let all = all.into_iter().chain(traced.into_iter().flatten());
            Report {
                workload,
                metrics,
                attempted: all.clone().map(|p| p.attempted).sum::<u64>() + run.reopen_checked,
                failed: all.map(|p| p.failed).sum::<u64>() + run.setup_failed + run.reopen_failed,
                inputs_hash: run.inputs_hash,
                windows: vec![
                    ("get", run.get.windows.len(), window_secs(&run.get)),
                    ("scan", run.scan.windows.len(), window_secs(&run.scan)),
                    ("put", run.put.windows.len(), window_secs(&run.put)),
                ],
                // The writer's ~300 PUTs a window support no p99 and none
                // is reported for them end to end.
                tail_q: lowest_tail(&[&run.get, &run.scan]),
            }
        }
    };
    if let Some(t) = &tracer {
        write_spans(workload, t)?;
    }
    Ok(report)
}

fn run(args: &RunArgs) -> std::io::Result<bool> {
    let selected: Vec<&'static str> = spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload == "all" || args.workload == *name)
        .collect();
    // A smoke run exercises both modes of every workload it was asked for.
    let modes: &[bool] = if args.info.smoke {
        &[false, true]
    } else {
        &[args.info.trace]
    };
    let mut correct = true;
    for &trace in modes {
        let info = RunInfo { trace, ..args.info };
        let mut probe_cache = None;
        let mut reports = Vec::new();
        for &workload in &selected {
            let report = run_workload(workload, &info, &mut probe_cache)?;
            report::print(&report);
            correct &= report.correct();
            reports.push(report);
        }
        let path = report::write_result(&info, &args.workload, &reports)?;
        eprintln!("result -> {}", path.display());
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|a| {
            run(&a)
                .map_err(|e| format!("i/o: {e}"))
                .and_then(|correct| correct.then_some(()).ok_or("wrong results".into()))
        }),
        Some((cmd, [a, b])) if cmd == "compare" => report::compare(a, b).and_then(|regressed| {
            (regressed == 0)
                .then_some(())
                .ok_or(format!("{regressed} metric(s) regressed"))
        }),
        Some((cmd, [])) if cmd == "spec" => {
            let spec = serde_json::to_string_pretty(&spec::benchmark_json());
            println!("{}", spec.expect("a value tree always renders"));
            Ok(())
        }
        _ => Err(usage()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
