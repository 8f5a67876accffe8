//! The repository benchmark. One run measures one seeded workload:
//!
//! ```text
//! perfbench --workload <serve_query|serve_mc|explore_refine> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times the workload closed-loop for `--seconds`
//! and reports the end-to-end metrics; with `--trace 1` it runs the
//! per-layer battery on the same seed's inputs, then the same untraced
//! workload for half the time. Every answer is checked against
//! an oracle computed before timing starts. The last line of standard
//! output is the JSON result; README.md lists every metric.

mod explore;
mod gen;
mod layers;
mod measure;
mod serve;

use explore::Space;
use ipass_moe::Executor;
use ipass_serve::{parse_request, Request};
use measure::{ns, peak_rss_mb, Outcome, Timeline};
use serve::Deployment;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    ServeQuery,
    ServeMc,
    ExploreRefine,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve_query" => Some(Workload::ServeQuery),
            "serve_mc" => Some(Workload::ServeMc),
            "explore_refine" => Some(Workload::ExploreRefine),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The end-to-end metrics every workload reports, in BENCHMARK.json
/// order; `work_per_s` counts requests, Monte Carlo units or screened
/// points, so it differs from a fixed multiple of `ops_per_s` only on
/// `serve_mc`. A `#` note repeats the work rate under its per-workload name
/// with the error rate, the sample count and, where a window holds
/// enough samples (the serve workloads), the p99.
fn end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    timeline: &mut Timeline,
    work_name: &str,
    with_p99: bool,
) -> Result<(), String> {
    let s = timeline.summary();
    let p99 = match with_p99 {
        true => format!("p99_us {} us; ", s.p99_us),
        false => String::new(),
    };
    out.notes.push(format!(
        "# {} timed operations; {p99}{work_name} {} 1/s; error_rate {} ratio",
        s.count,
        s.work_per_s,
        out.failed as f64 / out.attempted.max(1) as f64,
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric("ops_per_s", s.ops_per_s, "1/s");
    out.metric("p50_us", s.p50_us, "us");
    out.metric("p95_us", s.p95_us, "us");
    out.metric("work_per_s", s.work_per_s, "1/s");
    out.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
    Ok(())
}

/// `serve_query` (one connection, analyze/patch mix) or `serve_mc` (two
/// connections, `mc` requests).
fn serve(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let conns = if workload == Workload::ServeMc { 2 } else { 1 };
    let (setup_s, mut dep) = Deployment::timed_boot(SETUP_REPS, conns)?;
    let registry = serve::registry()?;
    let lines = match workload {
        Workload::ServeMc => gen::mc_stream(&registry.names(), seed),
        _ => gen::query_stream(&serve::flow_slots(&registry), seed),
    };
    let refs = serve::references(&lines)?;
    // Work: requests on serve_query, Monte Carlo units on serve_mc.
    let work: Vec<u64> = lines
        .iter()
        .map(|line| match parse_request(line) {
            Ok(Request::Mc { units, .. }) => units,
            _ => 1,
        })
        .collect();
    let mut load = serve::closed_loop(&mut dep.clients, &lines, &refs, &work, seconds, usize::MAX);
    dep.stop();
    let mut out = Outcome {
        correct: load.failed == 0,
        attempted: load.attempted,
        failed: load.failed,
        ..Outcome::default()
    };
    let work_name = match workload {
        Workload::ServeMc => "mc_units_per_s",
        _ => "requests_per_s",
    };
    end_to_end(&mut out, setup_s, &mut load.timeline, work_name, true)?;
    Ok(out)
}

/// `explore_refine`: back-to-back `refine` calls on the parallel
/// executor, each checked against a serial reference digest.
fn explore_refine(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let grid = gen::explore_grid(seed);
    let (setup_s, space, explorer) = Space::timed_setup(&grid, serve::nproc(), SETUP_REPS)?;
    let serial = space.explorer(&grid, Executor::serial());
    let reference = explore::digest(&explore::refine(&serial, &grid, |c| space.build(c))?);
    let points = (grid.side * grid.side) as u64;

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    // One window: a run holds 500–1 200 refines, too few to cut up (and
    // too few above p99 to report it).
    let mut timeline = Timeline::new(seconds, seconds);
    let (mut attempted, mut failed) = (0, 0);
    let mut now = Instant::now();
    while now < deadline {
        attempted += 1;
        let sent = now;
        let refined = explore::refine(&explorer, &grid, |c| space.build(c));
        now = Instant::now();
        match refined {
            Ok(r) if explore::digest(&r) == reference => {
                timeline.record(now - start, now - sent, points);
            }
            _ => failed += 1,
        }
    }
    let mut out = Outcome {
        correct: failed == 0,
        attempted,
        failed,
        ..Outcome::default()
    };
    end_to_end(&mut out, setup_s, &mut timeline, "points_per_s", false)?;
    Ok(out)
}

fn run_workload(args: &Args, seconds: f64) -> Result<Outcome, String> {
    match args.workload {
        Workload::ExploreRefine => explore_refine(args.seed, seconds),
        w => serve(w, args.seed, seconds),
    }
}

/// The traced run: the per-layer battery, then the plain workload for
/// half the time. Every layer span is taken in the battery, so the
/// workload's throughput here against the untraced run's `ops_per_s`
/// shows whether running the battery first costs the timed workload
/// anything.
fn traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    layers::battery(args.seed, &mut out)?;
    let live = run_workload(args, args.seconds / 2.0)?;
    out.correct &= live.correct;
    out.attempted += live.attempted;
    out.failed += live.failed;
    out.notes.extend(live.notes.iter().cloned());
    out.metric("trace.ops_per_s", live.value("ops_per_s"), "1/s");
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let result = match args.trace {
        false => run_workload(&args, args.seconds),
        true => traced(&args),
    };
    match result {
        Ok(mut out) => {
            out.notes.push(format!(
                "# workload {:?} seed {} trace {} wall {:.2} s",
                args.workload,
                args.seed,
                args.trace,
                ns(started.elapsed()) / 1e9
            ));
            out.print();
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
