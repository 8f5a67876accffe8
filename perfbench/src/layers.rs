//! The traced run's per-layer battery. Each span is taken in this file
//! around one public call into a layer; nothing inside the program is
//! instrumented. Phases run fixed amounts of work (not a fixed time),
//! so the counter-derived figures repeat exactly for a given seed.

use crate::explore::{self, Space};
use crate::gen::{self, MC_STREAM_LEN, MC_UNIT_SET};
use crate::measure::{median, ns, Outcome};
use crate::serve::{self, Deployment};
use ipass_moe::{Executor, Flow, Probe, SimOptions};
use ipass_serve::derived_seed;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Passes over the `serve_query` stream for the replay and the wire
/// round-trips.
const PASSES: usize = 2;
/// Repetitions of the short in-process calls.
const REPS: usize = 21;

/// Run every layer phase on `seed`'s inputs, appending the per-layer
/// metrics to `out` and folding the checks into its counts.
pub fn battery(seed: u64, out: &mut Outcome) -> Result<(), String> {
    common(out)?;
    serve_layers(seed, out)?;
    mc_layers(seed, out)?;
    explore_layers(seed, out)
}

fn common(out: &mut Outcome) -> Result<(), String> {
    let mut flows_ms = Vec::with_capacity(REPS);
    let mut compile_us = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        let flows = ipass_gps::experiments::solution_flows().map_err(|e| e.to_string())?;
        flows_ms.push(start.elapsed().as_secs_f64() * 1e3);
        // A fresh `Flow` holds no compiled program yet.
        let mut total = 0.0;
        for (_, flow) in &flows {
            let fresh = Flow::new(flow.line().clone())
                .with_nre(flow.nre())
                .with_volume(flow.volume());
            let start = Instant::now();
            black_box(fresh.compiled().map_err(|e| e.to_string())?);
            total += ns(start.elapsed());
        }
        compile_us.push(total / flows.len() as f64 / 1e3);
    }
    out.metric("gps.solution_flows_ms", median(&flows_ms), "ms");
    out.metric("moe.compile_us", median(&compile_us), "us");

    let executor = Executor::new(serve::nproc());
    let items: Vec<usize> = (0..serve::nproc()).collect();
    let overhead_us: Vec<f64> = (0..50 * REPS)
        .map(|_| {
            let start = Instant::now();
            let mapped = executor.try_map(&items, |_, &x| Ok::<usize, ()>(black_box(x)));
            black_box(mapped.expect("an infallible map"));
            ns(start.elapsed()) / 1e3
        })
        .collect();
    out.metric("sim.try_map_overhead_us", median(&overhead_us), "us");
    Ok(())
}

fn serve_layers(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let registry = serve::registry()?;
    let lines = gen::query_stream(&serve::flow_slots(&registry), seed);
    let refs = serve::references(&lines)?;

    let replay = serve::replay(&lines, PASSES)?;
    out.attempted += replay.requests;
    out.failed += replay.mismatches;
    out.correct &= replay.mismatches == 0;
    out.metric("serve.parse_ns", median(&replay.parse), "ns");
    out.metric("serve.registry_ns", median(&replay.registry), "ns");
    out.metric("serve.handle_line_ns", median(&replay.handle_line), "ns");
    out.metric("serve.handle_self_ns", median(&replay.handle_self), "ns");
    out.metric("moe.analyze_ns", median(&replay.analyze), "ns");
    out.metric("moe.patch_analyze_ns", median(&replay.patch_analyze), "ns");
    out.metric("moe.table_ns", median(&replay.table), "ns");
    out.metric("report.to_json_ns", median(&replay.to_json), "ns");
    out.metric("report.render_ns", median(&replay.render), "ns");
    out.metric("report.render_share", replay.render_share, "ratio");

    // Wire phases on a fresh server: first the query stream over one
    // connection, alternating with the echo floor, then the `mc` stream
    // over two.
    let mut dep = Deployment::boot(2)?;
    let (mut roundtrip, mut echo) = (Vec::new(), Vec::new());
    for _ in 0..PASSES {
        let (times, failed) = serve::roundtrips(&mut dep.clients[0], &lines, &refs);
        roundtrip.extend(times);
        let (times, echo_failed) = serve::echo_floor(&lines, &refs)?;
        echo.extend(times);
        out.attempted += 2 * lines.len() as u64;
        out.failed += failed + echo_failed;
        out.correct &= failed + echo_failed == 0;
    }
    let after_query = serve::counters(&mut dep.clients[0])?;
    let mc_lines = gen::mc_stream(&registry.names(), seed);
    let mc_refs = serve::references(&mc_lines)?;
    let load = serve::closed_loop(
        &mut dep.clients,
        &mc_lines,
        &mc_refs,
        &vec![0; mc_lines.len()],
        3600.0,
        MC_STREAM_LEN / 2,
    );
    out.attempted += load.attempted;
    out.failed += load.failed;
    out.correct &= load.failed == 0;
    let after_mc = serve::counters(&mut dep.clients[0])?;
    dep.stop();

    let roundtrip_us = median(&roundtrip) / 1e3;
    let echo_us = median(&echo) / 1e3;
    out.metric("serve.roundtrip_us", roundtrip_us, "us");
    out.metric("serve.echo_floor_us", echo_us, "us");
    out.metric(
        "serve.handoff_us",
        roundtrip_us - median(&replay.handle_line) / 1e3 - echo_us,
        "us",
    );
    out.metric(
        "serve.batch_size_mean",
        (after_mc.batched_requests - after_query.batched_requests)
            / (after_mc.batches - after_query.batches),
        "count",
    );
    out.metric(
        "serve.cache_hit_rate",
        after_query.hits / (after_query.hits + after_query.misses),
        "ratio",
    );
    out.metric(
        "serve.bytes_out_per_req",
        after_query.bytes_out / after_query.responses,
        "bytes",
    );
    Ok(())
}

/// Lane-occupancy histogram, draws and units of probed runs over the
/// `serve_mc` unit-count set, at fixed seeds.
fn geometry(threads: usize) -> Result<([u64; 7], u64, u64), String> {
    let registry = serve::registry()?;
    let (mut lanes, mut draws, mut units) = ([0u64; 7], 0, 0);
    for count in MC_UNIT_SET {
        for name in registry.names() {
            let options = SimOptions::new(count)
                .with_seed(derived_seed(name, 0))
                .with_threads(threads)
                .with_probe(Probe::ON);
            let compiled = registry.compiled(name).map_err(|e| e.to_string())?;
            let summary = compiled
                .simulate_summary(&options)
                .map_err(|e| e.to_string())?;
            let stats = summary.stats.ok_or("a probed run returned no stats")?;
            for (a, b) in lanes.iter_mut().zip(stats.lanes) {
                *a += b;
            }
            draws += stats.draws;
            units += stats.units;
        }
    }
    Ok((lanes, draws, units))
}

fn mc_layers(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let registry = serve::registry()?;
    for count in MC_UNIT_SET {
        // The server's options: derived seed, one thread, probe on.
        let mut rng = gen::Rng::new(seed, count);
        let mut per_unit = Vec::new();
        for _ in 0..REPS {
            for name in registry.names() {
                let options = SimOptions::new(count)
                    .with_seed(derived_seed(name, rng.next_u64() >> 32))
                    .with_threads(1)
                    .with_probe(Probe::ON);
                let compiled = registry.compiled(name).map_err(|e| e.to_string())?;
                let start = Instant::now();
                black_box(
                    compiled
                        .simulate_summary(&options)
                        .map_err(|e| e.to_string())?,
                );
                per_unit.push(ns(start.elapsed()) / count as f64);
            }
        }
        out.metric(
            format!("moe.mc_ns_per_unit.{count}"),
            median(&per_unit),
            "ns",
        );
    }

    // Exact counts: the same at every thread count, run and seed.
    let serial = geometry(1)?;
    let parallel = geometry(serve::nproc().max(2))?;
    let same = serial == parallel;
    out.attempted += 1;
    out.failed += u64::from(!same);
    out.correct &= same;
    let (lanes, draws, units) = serial;
    out.metric(
        "moe.tail_unit_share",
        lanes[0] as f64 / lanes.iter().sum::<u64>() as f64,
        "ratio",
    );
    out.metric("moe.draws_per_unit", draws as f64 / units as f64, "count");
    Ok(())
}

fn explore_layers(seed: u64, out: &mut Outcome) -> Result<(), String> {
    // Serial, so refine − screen − builds is the confirmation's own time.
    let grid = gen::explore_grid(seed);
    let space = Space::new()?;
    let explorer = space.explorer(&grid, Executor::serial());
    let points = (grid.side * grid.side) as f64;
    let screen_ns = median(
        &(0..3)
            .map(|_| {
                let start = Instant::now();
                let screen = explorer.explore(&ipass_explore::SamplerSpec::Grid);
                let took = ns(start.elapsed());
                screen.map(|_| took).map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<f64>, String>>()?,
    );
    out.metric("explore.screen_ns_per_point", screen_ns / points, "ns");

    let (mut build_us, mut confirm_us) = (Vec::new(), Vec::new());
    let mut reference: Option<(Vec<u64>, usize, f64)> = None;
    for _ in 0..3 {
        let build_ns = AtomicU64::new(0);
        let start = Instant::now();
        let refined = explore::refine(&explorer, &grid, |coords| {
            let start = Instant::now();
            let flow = space.build(coords);
            build_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            flow
        })?;
        let refine_ns = ns(start.elapsed());
        let promoted = refined.promoted.len().max(1) as f64;
        let build_ns = build_ns.into_inner() as f64;
        build_us.push(build_ns / promoted / 1e3);
        confirm_us.push((refine_ns - screen_ns - build_ns) / promoted / 1e3);
        let useful = refined.confirmed_frontier().members().len() as f64 / promoted;
        let digest = explore::digest(&refined);
        out.attempted += 1;
        if reference.as_ref().is_some_and(|r| r.0 != digest) {
            out.failed += 1;
            out.correct = false;
        }
        reference.get_or_insert((digest, refined.promoted.len(), useful));
    }
    let (digest, promoted, useful) = reference.expect("three refines ran");
    out.metric("explore.build_us", median(&build_us), "us");
    out.metric("explore.confirm_us", median(&confirm_us), "us");
    out.metric("explore.promoted_frac", promoted as f64 / points, "ratio");
    out.metric("explore.useful_confirm_frac", useful, "ratio");

    // The parallel executor must reproduce the serial refine exactly.
    let parallel = space.explorer(&grid, Executor::new(serve::nproc()));
    let again = explore::refine(&parallel, &grid, |coords| space.build(coords))?;
    out.attempted += 1;
    let same = explore::digest(&again) == digest;
    out.failed += u64::from(!same);
    out.correct &= same;
    Ok(())
}
