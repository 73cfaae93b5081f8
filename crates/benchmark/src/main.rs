//! `aomp-benchmark` — the repo benchmark declared in `BENCHMARK.json`.
//!
//! ```text
//! aomp-benchmark [run] [--workload W] [--seed N] [--seconds S]
//!                      [--trace 0|1 | --traced] [--smoke]
//! aomp-benchmark aa    [--runs N] [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! `--seconds` defaults to 20 (0.3 with `--smoke`), `--seed` to 1.
//! `run --workload W` measures one workload in this process and ends with
//! the result line; without `--workload` every workload runs in a fresh
//! child process (so the global weaver, the default runtime, the hot-team
//! cache and the `obs` gate never leak between workloads). `--trace 1`
//! runs the cost ledger and a traced pass set of *every* workload — each
//! in its own child — and reports the per-layer metrics; the named
//! workload gets the larger share of the time. `aa` runs the end-to-end
//! set several times on the same build and checks the differences
//! against the bounds in `BENCHMARK.json`. See `README.md` beside this
//! crate for what every metric means.

mod harness;
mod layers;
mod ledger;
mod report;
mod spans;
mod stats;
mod workloads;

use harness::{run_passes, Plan, Role};
use report::Report;
use spans::Spans;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{Cfg, Workload, WORKLOADS};

/// Variables the default runtime (or the serve fault plan) captures once
/// from the environment: a run with any of them set is not comparable.
const FORBIDDEN_ENV: [&str; 8] = [
    "AOMP_NUM_THREADS",
    "AOMP_NO_POOL",
    "AOMP_METRICS",
    "AOMP_TRACE",
    "AOMP_SCHEDULE",
    "AOMP_TASK_WORKERS",
    "AOMP_NR_REPLICAS",
    "AOMP_SERVE_FAULTS",
];

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// How long every measuring process first keeps `T` cores busy. On the
/// reference host a thread wake-up costs ~3 us after the machine has
/// idled and ~20 us once it has been saturated for a second or two, and
/// barrier-heavy kernels sustain whichever regime they start in (LUFact
/// reads 21 ms or 39 ms). The loaded regime is the one back-to-back runs
/// see, so every run is put into it before set-up.
const SETTLE: Duration = Duration::from_secs(2);
/// Share of a traced run's `--seconds` the named workload's passes get;
/// every other workload gets [`OTHER_SHARE`], each ledger row
/// [`LEDGER_ROW_SHARE`].
const TARGET_SHARE: f64 = 0.25;
const OTHER_SHARE: f64 = 0.1;
const LEDGER_ROW_SHARE: f64 = 0.0075;

#[derive(Debug, Clone)]
struct Args {
    aa: bool,
    workload: Option<String>,
    /// Internal: this process is one part (`ledger` or a workload) of a
    /// traced run and prints only its result line.
    part: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: aomp-benchmark [run] [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke]\n\
         \x20      aomp-benchmark aa [--runs N] [--seed N] [--seconds S] [--smoke]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.0).join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        aa: false,
        workload: None,
        part: None,
        seed: 1,
        seconds: f64::NAN,
        trace: false,
        smoke: false,
        runs: 2,
    };
    let mut words = std::env::args().skip(1).peekable();
    match words.peek().map(String::as_str) {
        Some("run") => {
            words.next();
        }
        Some("aa") => {
            args.aa = true;
            words.next();
        }
        _ => {}
    }
    while let Some(flag) = words.next() {
        let mut value = || words.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--part" => args.part = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--runs" => args.runs = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--traced" => args.trace = true,
            "--smoke" => args.smoke = true,
            _ => usage(),
        }
    }
    if args.seconds.is_nan() {
        // A smoke run is about names, not numbers: a fraction of a second.
        args.seconds = if args.smoke { 0.3 } else { 20.0 };
    }
    let known = |w: &String| WORKLOADS.iter().any(|k| k.0 == w);
    if !args.workload.iter().all(known) || args.seconds <= 0.0 || args.runs == 0 {
        usage();
    }
    args
}

/// Team size: `min(nproc, 4)`.
fn team_size() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// First line of `cmd`'s output, or "unknown".
fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn print_header(args: &Args) {
    println!(
        "aomp-benchmark: nproc={} T={} seed={} seconds={} smoke={} rustc=\"{}\" git={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        team_size(),
        args.seed,
        args.seconds,
        args.smoke,
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
    );
}

/// Saturate `t` cores for [`SETTLE`].
fn settle_host(t: usize) {
    let until = Instant::now() + SETTLE;
    std::thread::scope(|s| {
        for _ in 0..t {
            s.spawn(|| {
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            });
        }
    });
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where trace files go: under the build directory.
fn trace_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target
        .join("benchmark")
        .join(format!("trace-{workload}.json"))
}

/// Set up (several times when `setups > 1`), warm up, run the pass loop.
/// Untraced: the end-to-end metrics. Traced: the workload's layer rows,
/// raw counters for the attribution, and a trace file.
fn measure<W: Workload>(name: &str, cfg: &Cfg, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let mut setup = Vec::new();
    let setups = if traced || cfg.smoke { 1 } else { SETUPS };
    if !cfg.smoke {
        settle_host(cfg.t);
    }
    loop {
        let t0 = Instant::now();
        let inputs = W::generate(cfg);
        let mut kernels = W::kernels(&inputs, cfg);
        let warm_up = Plan {
            seconds: 0.0,
            min_passes: 1,
            traced: false,
        };
        let warm = run_passes(&mut kernels, warm_up, &mut Spans::default());
        setup.push(t0.elapsed().as_secs_f64());
        report.attempted += warm.attempted;
        report.failed += warm.failed;
        if setup.len() < setups {
            continue;
        }

        let plan = Plan {
            seconds,
            min_passes: 2,
            traced,
        };
        let mut spans = Spans::default();
        let outcome = run_passes(&mut kernels, plan, &mut spans);
        report.attempted += outcome.attempted;
        report.failed += outcome.failed;
        if !traced {
            report.put("solve_s", outcome.solve_s());
            report.put("speedup_vs_seq", outcome.ratio_vs(Role::Seq));
            report.put("overhead_vs_mt", outcome.ratio_vs(Role::Mt));
            report.put("setup_s", stats::median(&setup));
            report.put("peak_rss_mb", peak_rss_mb());
            print_rows(name, &outcome);
            return report;
        }

        for (i, row) in outcome.rows.iter().enumerate().filter(|(_, r)| r.export) {
            report.put(format!("{}_ms", row.label), outcome.median_secs(i) * 1e3);
        }
        let (ops, bad) = W::extras(
            &inputs,
            cfg,
            &outcome,
            seconds,
            &mut spans,
            &mut report.values,
        );
        report.attempted += ops;
        report.failed += bad;
        report.put("_solve_s", outcome.solve_s());
        report.put("_traced_solve_s", outcome.traced_solve_s());
        for c in aomp::obs::Counter::ALL {
            let per_pass = outcome.counter(c) as f64 / outcome.passes as f64;
            report.put(format!("_cnt.{}", c.name()), per_pass);
        }
        let path = trace_path(name);
        match spans.write_chrome_trace(&path) {
            Ok(()) => eprintln!("({} spans -> {})", spans.len(), path.display()),
            Err(e) => {
                eprintln!("trace export to {} failed: {e}", path.display());
                report.failed += 1;
            }
        }
        return report;
    }
}

/// Per-variant medians with quartiles and sample counts.
fn print_rows(name: &str, outcome: &harness::Outcome) {
    println!("-- {name}: {} passes --", outcome.passes);
    for row in &outcome.rows {
        let s = stats::Summary::of(&row.secs);
        let tail = s
            .tail
            .map_or(String::new(), |(p, v)| format!("  {p} {:.3}", v * 1e3));
        println!(
            "{:<32} median {:>10.3} ms  [p25 {:.3}  p75 {:.3}]  n={}{tail}",
            row.label,
            s.p50 * 1e3,
            s.p25 * 1e3,
            s.p75 * 1e3,
            s.n,
        );
    }
}

fn measure_named(name: &str, cfg: &Cfg, seconds: f64, traced: bool) -> Report {
    use workloads::{fine_grain, jgf_coarse, serve_mix, tasks_irregular};
    match name {
        "jgf_coarse" => measure::<jgf_coarse::JgfCoarse>(name, cfg, seconds, traced),
        "fine_grain" => measure::<fine_grain::FineGrain>(name, cfg, seconds, traced),
        "tasks_irregular" => measure::<tasks_irregular::TasksIrregular>(name, cfg, seconds, traced),
        "serve_mix" => measure::<serve_mix::ServeMix>(name, cfg, seconds, traced),
        _ => usage(),
    }
}

/// Re-run this binary with `extra` arguments; echo its output and parse
/// the result line it ends with.
fn child(args: &Args, extra: &[&str], seconds: f64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(extra)
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child {extra:?}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines.iter().filter(|l| !l.starts_with("aomp-benchmark:")) {
        println!("{line}");
    }
    let report = Report::from_line(last)
        .map_err(|e| format!("child {extra:?} ({}) printed no result: {e}", out.status))?;
    Ok(report)
}

/// The traced run: the ledger, then a traced pass set of every workload,
/// each in its own process; then the computed layer metrics.
fn traced_run(args: &Args) -> Result<Report, String> {
    let t = team_size();
    let ledger_seconds = args.seconds * LEDGER_ROW_SHARE;
    let ledger = child(args, &["--part", "ledger"], ledger_seconds)?;
    let mut all = ledger.clone();
    for (name, _) in WORKLOADS {
        let share = if args.workload.as_deref().is_none_or(|w| w == name) {
            TARGET_SHARE
        } else {
            OTHER_SHARE
        };
        let run = child(args, &["--part", name], args.seconds * share)?;
        all.attempted += run.attempted;
        all.failed += run.failed;
        all.put(
            format!("trace.{name}.overhead_ratio"),
            run.get("_traced_solve_s") / run.get("_solve_s"),
        );
        if name != "serve_mix" {
            layers::attribute(name, &run, &ledger, t, &mut all);
        }
        all.values.extend(
            run.values
                .iter()
                .filter(|(k, _)| !k.starts_with('_'))
                .map(|(k, v)| (k.clone(), *v)),
        );
    }
    if !args.smoke {
        all.put(
            "simcore.residual_geomean",
            layers::simcore_residual(&all, t),
        );
    } else {
        // Smoke inputs are not size A: the model has nothing to be
        // compared with, only the name is exercised.
        all.put("simcore.residual_geomean", 1.0);
    }
    Ok(all)
}

/// Finish a run: table, result line, exit code.
fn conclude(title: &str, report: &Report) -> ExitCode {
    report.print_table(title);
    println!("{}", report.to_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAILED: {} of {} operations failed validation (or a metric has no value)",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

/// `run` without `--workload`: every workload in a fresh child process.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let mut ok = true;
    for (name, why) in WORKLOADS {
        println!("== {name}: {why}");
        let report = child(args, &["--workload", name], args.seconds)?;
        report.print_table(&format!("{name}: end to end"));
        println!("{}", report.to_line());
        ok &= report.correct();
    }
    if args.trace {
        let report = traced_run(args)?;
        report.print_table("per layer");
        println!("{}", report.to_line());
        ok &= report.correct();
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: a workload reported failed operations");
        ExitCode::FAILURE
    })
}

/// A/A: run the end-to-end set `--runs` times on this build and compare
/// every later run with the first, per metric × workload, against the
/// bound `BENCHMARK.json` records for the metric.
fn aa(args: &Args) -> Result<ExitCode, String> {
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let declared = aomp_simcore::Json::parse(&declared)?;
    let metrics = declared
        .get("end_to_end")
        .and_then(|m| m.as_array())
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut bounds = Vec::new();
    for m in metrics {
        let higher = m.str_field("better")? == "higher";
        bounds.push((m.str_field("name")?, higher, m.f64_field("bound")?));
    }

    let mut breaches = 0;
    for (name, _) in WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..args.runs.max(2) {
            runs.push(child(args, &["--workload", name], args.seconds)?);
        }
        println!("== A/A {name}: {} runs", runs.len());
        for (metric, higher, bound) in &bounds {
            let base = runs[0].get(metric);
            // Positive = worse than the first run.
            let worst = runs[1..]
                .iter()
                .map(|r| (r.get(metric) - base) / base * if *higher { -1.0 } else { 1.0 })
                .fold(f64::NEG_INFINITY, f64::max);
            let breach = worst > *bound;
            breaches += usize::from(breach);
            println!(
                "{metric:<20} first {base:>14.6}  worst later run {:>+7.2}%  bound {:>5.1}%  {}",
                worst * 100.0,
                bound * 100.0,
                if breach { "BREACH" } else { "ok" },
            );
        }
        if runs.iter().any(|r| !r.correct()) {
            eprintln!("{name}: a run reported failed operations");
            breaches += 1;
        }
    }
    Ok(if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: {breaches} metric x workload pairs outside their bound");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "{var} is set: the default runtime captures it once, so this run would not be comparable. Unset it."
        );
        return ExitCode::FAILURE;
    }
    let cfg = Cfg {
        t: team_size(),
        seed: args.seed,
        smoke: args.smoke,
    };
    aomp::runtime::set_default_threads(cfg.t);

    // One part of a traced run: the result line only.
    if let Some(part) = &args.part {
        let report = if part == "ledger" {
            if !cfg.smoke {
                settle_host(cfg.t);
            }
            Report {
                attempted: 1,
                failed: 0,
                values: ledger::run(&cfg, args.seconds),
            }
        } else {
            measure_named(part, &cfg, args.seconds, true)
        };
        println!("{}", report.to_line());
        return ExitCode::SUCCESS;
    }

    print_header(&args);
    let outcome = if args.aa {
        aa(&args)
    } else {
        match &args.workload {
            None => run_all(&args),
            Some(w) if args.trace => {
                traced_run(&args).map(|r| conclude(&format!("{w}: per layer"), &r))
            }
            Some(w) => {
                let report = measure_named(w, &cfg, args.seconds, false);
                Ok(conclude(&format!("{w}: end to end"), &report))
            }
        }
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("FAILED: {e}");
        ExitCode::FAILURE
    })
}
