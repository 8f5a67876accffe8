//! `ipassd` — the long-running serving daemon for compiled flows.
//!
//! Boots the four committed paper solutions into a
//! [`FlowRegistry`] and serves the
//! newline-delimited JSON protocol (verbs `list`, `analyze`, `patch`,
//! `mc`, `stats`, `shutdown`) on a TCP listener:
//!
//! ```text
//! ipassd                                # serve on 127.0.0.1:7171
//! ipassd --addr 127.0.0.1:9000         # serve elsewhere
//! ipassd --threads 4                   # at most 4 concurrent evaluations
//! ipassd --smoke                       # boot, self-test every verb, exit
//! echo '{"verb":"analyze","flow":"solution2"}' | nc 127.0.0.1 7171
//! ```
//!
//! All diagnostics go to stderr prefixed `info:`; anything else on
//! stderr is a bug (CI's serve-smoke step asserts exactly that).

use ipass_serve::{Client, FlowRegistry, Server, ServerConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: ipassd [--addr HOST:PORT] [--threads N] [--smoke]\n\
    \n\
    options:\n\
    \x20 --addr HOST:PORT   listen address (default 127.0.0.1:7171)\n\
    \x20 --threads N        concurrent evaluations (default 2)\n\
    \x20 --smoke            boot on an ephemeral port, run one query per verb\n\
    \x20                    plus one malformed request, then shut down\n";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = String::from("127.0.0.1:7171");
    let mut threads = 2usize;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                let Some(a) = it.next() else {
                    eprintln!("ipassd: --addr needs HOST:PORT\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                addr = a.clone();
            }
            "--threads" => {
                let Some(n) = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|n| *n > 0)
                else {
                    eprintln!("ipassd: --threads needs a positive integer\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                threads = n;
            }
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                eprint!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ipassd: unexpected argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let registry = match build_registry() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ipassd: building the flow registry failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if smoke {
        return smoke_test(registry, threads);
    }

    let config = ServerConfig {
        threads,
        ..ServerConfig::default()
    };
    let server = match Server::start(registry, &addr, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ipassd: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "info: ipassd serving on {} ({threads} concurrent evaluations)",
        server.addr()
    );
    eprintln!("info: send {{\"verb\":\"shutdown\"}} to stop");
    // Blocks until a client sends the shutdown verb; in-flight work is
    // drained before the listener threads join.
    server.wait();
    eprintln!("info: ipassd shut down cleanly");
    ExitCode::SUCCESS
}

/// The committed paper solutions under `ipass stats`-style short keys
/// (`solution1`..`solution4`), each announced on stderr with the
/// paper's descriptive label.
fn build_registry() -> Result<FlowRegistry, ipass_gps::experiments::ExperimentError> {
    let mut registry = FlowRegistry::new();
    for (index, (label, flow)) in ipass_gps::experiments::solution_flows()?
        .into_iter()
        .enumerate()
    {
        let key = format!("solution{}", index + 1);
        eprintln!("info: registered {key} — {label}");
        registry.register(&key, flow);
    }
    Ok(registry)
}

/// Boot on an ephemeral loopback port, drive one request per verb plus
/// one malformed line through a real client, check every answer, and
/// shut down cleanly. Exercises the same code path CI's serve-smoke
/// step gates on.
fn smoke_test(registry: FlowRegistry, threads: usize) -> ExitCode {
    let config = ServerConfig {
        threads,
        ..ServerConfig::default()
    };
    let server = match Server::start(registry, "127.0.0.1:0", config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ipassd: smoke bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("info: smoke server on {}", server.addr());
    let mut client = match Client::connect(server.addr()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ipassd: smoke connect failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // (request, must-contain fragment) — one per verb, plus the typed
    // error for a malformed line.
    let checks: &[(&str, &str)] = &[
        (
            r#"{"verb":"list"}"#,
            r#""flows":["solution1","solution2","solution3","solution4"]"#,
        ),
        (r#"{"verb":"analyze","flow":"solution2"}"#, r#""ok":true"#),
        (
            r#"{"verb":"patch","flow":"solution2","directives":[{"scale":"cost","slot":"functional test","factor":1.1}]}"#,
            r#""ok":true,"verb":"patch""#,
        ),
        (
            r#"{"verb":"mc","flow":"solution2","units":2000,"seed":42}"#,
            r#""ok":true,"verb":"mc""#,
        ),
        (r#"{"verb":"stats"}"#, r#""ok":true,"verb":"stats""#),
        ("definitely not json", r#""code":"malformed-json""#),
    ];
    for (request, fragment) in checks {
        let response = match client.request(request) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("ipassd: smoke request {request:?} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if !response.contains(fragment) {
            eprintln!("ipassd: smoke check failed: {request:?} answered {response}");
            return ExitCode::FAILURE;
        }
        eprintln!("info: smoke ok: {request}");
    }
    match client.request(r#"{"verb":"shutdown"}"#) {
        Ok(bye) if bye == r#"{"ok":true,"verb":"shutdown"}"# => {}
        Ok(bye) => {
            eprintln!("ipassd: smoke shutdown answered {bye}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("ipassd: smoke shutdown failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    server.wait();
    eprintln!(
        "info: smoke passed — all verbs answered, typed error on malformed input, clean shutdown"
    );
    ExitCode::SUCCESS
}
