//! The served path: an in-process `Server` over the four paper
//! solutions, driven closed-loop over persistent loopback connections,
//! plus the in-process replay that splits `Engine::handle_line` into
//! its layers and the std echo server that gives the host's round-trip
//! floor.

use crate::gen::FlowSlots;
use crate::measure::{median, ns, Timeline};
use ipass_report::json::{self, Json};
use ipass_report::Artifact;
use ipass_serve::{parse_request, Client, Engine, FlowRegistry, Request, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Worker threads the server and the explorer get: the host's cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The four paper solutions registered as `solution1`..`solution4`,
/// like `ipassd` does.
pub fn registry() -> Result<FlowRegistry, String> {
    let flows = ipass_gps::experiments::solution_flows().map_err(|e| e.to_string())?;
    let mut registry = FlowRegistry::new();
    for (index, (_, flow)) in flows.into_iter().enumerate() {
        registry.register(format!("solution{}", index + 1), flow);
    }
    Ok(registry)
}

/// Every registered flow's patchable slots.
pub fn flow_slots(registry: &FlowRegistry) -> Vec<FlowSlots> {
    registry
        .names()
        .into_iter()
        .map(|name| FlowSlots {
            name: name.to_owned(),
            slots: registry
                .compiled(name)
                .expect("registered solution flows compile")
                .slots()
                .map(|(slot, kind)| (slot.to_owned(), kind))
                .collect(),
        })
        .collect()
}

fn is_ok(response: &str) -> bool {
    response.starts_with(r#"{"ok":true"#)
}

/// A running server and its open connections.
#[derive(Debug)]
pub struct Deployment {
    /// The server under test.
    pub server: Server,
    /// Persistent connections; the first sent the first answers.
    pub clients: Vec<Client>,
}

impl Deployment {
    /// Build the flows, bind the server, open `conns` connections and
    /// get the first answer for every flow (compiling each into the
    /// registry cache).
    pub fn boot(conns: usize) -> Result<Deployment, String> {
        let registry = registry()?;
        let names: Vec<String> = registry.names().into_iter().map(str::to_owned).collect();
        let config = ServerConfig {
            threads: nproc(),
            ..ServerConfig::default()
        };
        let server = Server::start(registry, "127.0.0.1:0", config)
            .map_err(|e| format!("cannot bind a loopback server: {e}"))?;
        let clients = (0..conns)
            .map(|_| Client::connect(server.addr()).map_err(|e| e.to_string()))
            .collect::<Result<Vec<Client>, String>>()?;
        let mut dep = Deployment { server, clients };
        for name in &names {
            let line = format!(r#"{{"verb":"analyze","flow":"{name}"}}"#);
            let response = dep.clients[0].request(&line).map_err(|e| e.to_string())?;
            if !is_ok(&response) {
                dep.stop();
                return Err(format!("first answer for {name} failed: {response}"));
            }
        }
        Ok(dep)
    }

    /// Boot `reps` times and keep the last deployment; returns the
    /// median boot time in seconds.
    pub fn timed_boot(reps: usize, conns: usize) -> Result<(f64, Deployment), String> {
        let mut times = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            if let Some(previous) = last.take() {
                Deployment::stop(previous);
            }
            let start = Instant::now();
            last = Some(Deployment::boot(conns)?);
            times.push(start.elapsed().as_secs_f64());
        }
        Ok((median(&times), last.expect("reps >= 1")))
    }

    /// Close the connections, shut the server down and join its threads.
    pub fn stop(self) {
        drop(self.clients);
        self.server.join();
    }
}

/// The oracle: each request's response from a separate in-process
/// `Engine`, computed before timing starts. The workloads are chosen so
/// that no request fails, so an error response here is a setup error.
pub fn references(lines: &[String]) -> Result<Vec<String>, String> {
    let engine = Engine::new(registry()?);
    lines
        .iter()
        .map(|line| {
            let response = engine.handle_line(line);
            match is_ok(&response) {
                true => Ok(response),
                false => Err(format!(
                    "reference answer to {line} is an error: {response}"
                )),
            }
        })
        .collect()
}

/// Length of one `Timeline` window of the serve workloads, seconds.
const WINDOW_S: f64 = 1.0;

/// What one closed-loop phase did.
#[derive(Debug)]
pub struct Load {
    /// Round-trip times and work of the correct responses.
    pub timeline: Timeline,
    /// Requests sent.
    pub attempted: u64,
    /// I/O errors, error responses and responses unequal to the oracle.
    pub failed: u64,
}

/// Drive every client closed-loop: each sends its next request only
/// after the previous response arrived. Connection `c` of `n` walks the
/// stream at `c, c + n, c + 2n, …` (wrapping) until `seconds` pass or
/// it has sent `limit` requests. Every response is compared
/// byte-for-byte with `refs`; `work[i]` is credited for each correct
/// response to request `i`.
pub fn closed_loop(
    clients: &mut [Client],
    lines: &[String],
    refs: &[String],
    work: &[u64],
    seconds: f64,
    limit: usize,
) -> Load {
    let n = clients.len();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_conn: Vec<Load> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut load = Load {
                        timeline: Timeline::new(seconds, WINDOW_S),
                        attempted: 0,
                        failed: 0,
                    };
                    let mut i = c % lines.len();
                    let mut now = Instant::now();
                    while now < deadline && (load.attempted as usize) < limit {
                        load.attempted += 1;
                        let sent = now;
                        let response = client.request(&lines[i]);
                        now = Instant::now();
                        match response {
                            Ok(r) if r == refs[i] => {
                                load.timeline.record(now - start, now - sent, work[i]);
                            }
                            Ok(_) => load.failed += 1,
                            Err(_) => {
                                load.failed += 1;
                                break;
                            }
                        }
                        i = (i + n) % lines.len();
                    }
                    load
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut loads = per_conn.into_iter();
    let mut total = loads.next().expect("at least one connection");
    for load in loads {
        total.timeline.merge(load.timeline);
        total.attempted += load.attempted;
        total.failed += load.failed;
    }
    total
}

/// Per-request layer times of the in-process replay, ns.
#[derive(Debug, Default)]
pub struct Replay {
    /// `parse_request`.
    pub parse: Vec<f64>,
    /// `FlowRegistry::compiled`.
    pub registry: Vec<f64>,
    /// `CompiledFlow::analyze` (analyze requests).
    pub analyze: Vec<f64>,
    /// `CompiledFlow::patch` + `FlowPatch::apply` + `analyze` (patch
    /// requests), with the response's `writes` member they yield.
    pub patch_analyze: Vec<f64>,
    /// `CostReport::artifact_table`.
    pub table: Vec<f64>,
    /// `Artifact::to_json`.
    pub to_json: Vec<f64>,
    /// `Json::render_compact`.
    pub render: Vec<f64>,
    /// `Engine::handle_line` on the same request.
    pub handle_line: Vec<f64>,
    /// `handle_line` minus every replayed step, the response object's
    /// assembly included.
    pub handle_self: Vec<f64>,
    /// Σ(table + to_json + render) / Σ handle_line.
    pub render_share: f64,
    /// Requests replayed.
    pub requests: u64,
    /// Replays whose bytes differ from `handle_line`'s.
    pub mismatches: u64,
}

/// Replay `lines` in-process through the public calls `handle_line`
/// makes, in its order, timing each; then time `handle_line` itself on
/// the same request and check the replay produced the same bytes.
pub fn replay(lines: &[String], passes: usize) -> Result<Replay, String> {
    let engine = Engine::new(registry()?);
    let registry = registry()?;
    for line in lines {
        engine.handle_line(line);
    }
    let mut out = Replay::default();
    let (mut report_sum, mut handle_sum) = (0.0, 0.0);
    for _ in 0..passes {
        for line in lines {
            let t0 = Instant::now();
            let request = parse_request(line).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            // `extra` is built before the clock read that ends the engine
            // span, and the samples are pushed after the last one, so no
            // span holds the benchmark's own bookkeeping.
            let (verb, flow, extra, report, t2, t3) = match request {
                Request::Analyze { flow } => {
                    let compiled = registry.compiled(&flow).map_err(|e| e.to_string())?;
                    let t2 = Instant::now();
                    let report = compiled.analyze().map_err(|e| e.to_string())?;
                    ("analyze", flow, Vec::new(), report, t2, Instant::now())
                }
                Request::Patch {
                    flow,
                    directives,
                    volume,
                } => {
                    let compiled = registry.compiled(&flow).map_err(|e| e.to_string())?;
                    let t2 = Instant::now();
                    let mut patch = compiled.patch();
                    for directive in &directives {
                        patch.apply(directive).map_err(|e| e.to_string())?;
                    }
                    if let Some(v) = volume {
                        patch.set_volume(v);
                    }
                    let report = patch.analyze().map_err(|e| e.to_string())?;
                    let extra = vec![("writes", Json::Int(patch.writes() as i64))];
                    ("patch", flow, extra, report, t2, Instant::now())
                }
                other => {
                    return Err(format!(
                        "the replay covers analyze and patch, not {other:?}"
                    ))
                }
            };
            let table = report.artifact_table();
            let t4 = Instant::now();
            let report_json = Artifact::Table(table).to_json();
            let t5 = Instant::now();
            let mut members = vec![
                ("ok", Json::Bool(true)),
                ("verb", Json::str(verb)),
                ("flow", Json::str(flow)),
            ];
            members.extend(extra);
            members.push(("report", report_json));
            let response = Json::obj(members);
            let t6 = Instant::now();
            let bytes = response.render_compact();
            let t7 = Instant::now();
            let expected = engine.handle_line(line);
            let t8 = Instant::now();
            if bytes != expected {
                out.mismatches += 1;
            }
            // parse, registry, engine, table, to_json, response object,
            // render: every replayed step of `handle_line`.
            let parts = [
                t1 - t0,
                t2 - t1,
                t3 - t2,
                t4 - t3,
                t5 - t4,
                t6 - t5,
                t7 - t6,
            ];
            let handle = ns(t8 - t7);
            match verb {
                "analyze" => out.analyze.push(ns(parts[2])),
                _ => out.patch_analyze.push(ns(parts[2])),
            }
            out.parse.push(ns(parts[0]));
            out.registry.push(ns(parts[1]));
            out.table.push(ns(parts[3]));
            out.to_json.push(ns(parts[4]));
            out.render.push(ns(parts[6]));
            out.handle_line.push(handle);
            out.handle_self
                .push(handle - parts.iter().map(|&d| ns(d)).sum::<f64>());
            report_sum += ns(parts[3]) + ns(parts[4]) + ns(parts[6]);
            handle_sum += handle;
            out.requests += 1;
        }
    }
    out.render_share = report_sum / handle_sum;
    Ok(out)
}

/// Time `Client::request` over one connection for every line, ns;
/// counts responses unequal to `refs` as failures.
pub fn roundtrips(client: &mut Client, lines: &[String], refs: &[String]) -> (Vec<f64>, u64) {
    let mut times = Vec::with_capacity(lines.len());
    let mut failed = 0;
    for (line, expected) in lines.iter().zip(refs) {
        let start = Instant::now();
        match client.request(line) {
            Ok(r) if &r == expected => times.push(ns(start.elapsed())),
            _ => failed += 1,
        }
    }
    (times, failed)
}

/// The host's loopback floor: the same request and response bytes
/// through a std line-echo server that does no work (it answers request
/// `k` with the recorded response `k`), timed with the same `Client`.
pub fn echo_floor(lines: &[String], refs: &[String]) -> Result<(Vec<f64>, u64), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Connect before accepting, so no failure can leave a thread
    // blocked in `accept`.
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let server = scope.spawn(move || -> std::io::Result<()> {
            stream.set_nodelay(true)?;
            let mut writer = stream.try_clone()?;
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            for response in refs.iter().cycle() {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    break;
                }
                let mut bytes = Vec::with_capacity(response.len() + 1);
                bytes.extend_from_slice(response.as_bytes());
                bytes.push(b'\n');
                writer.write_all(&bytes)?;
            }
            Ok(())
        });
        let timed = roundtrips(&mut client, lines, refs);
        drop(client);
        server
            .join()
            .expect("echo server thread panicked")
            .map_err(|e| format!("echo server: {e}"))?;
        Ok(timed)
    })
}

/// The `stats` verb's serve and cache counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `responses_ok + responses_err`.
    pub responses: f64,
    /// `bytes_out`.
    pub bytes_out: f64,
    /// `batches`.
    pub batches: f64,
    /// `batched_requests`.
    pub batched_requests: f64,
    /// Compiled-program cache hits.
    pub hits: f64,
    /// Compiled-program cache misses.
    pub misses: f64,
}

/// Ask the server for its counters.
pub fn counters(client: &mut Client) -> Result<Counters, String> {
    let response = client
        .request(r#"{"verb":"stats"}"#)
        .map_err(|e| e.to_string())?;
    let missing = || format!("incomplete stats response: {response}");
    let serve = json::field_value(&response, "serve").ok_or_else(missing)?;
    let cache = json::field_value(&response, "cache").ok_or_else(missing)?;
    let get = |obj: &str, field: &str| json::number_field(obj, field).ok_or_else(missing);
    Ok(Counters {
        responses: get(serve, "responses_ok")? + get(serve, "responses_err")?,
        bytes_out: get(serve, "bytes_out")?,
        batches: get(serve, "batches")?,
        batched_requests: get(serve, "batched_requests")?,
        hits: get(cache, "hits")?,
        misses: get(cache, "misses")?,
    })
}
