//! Golden wire transcripts: byte-pinned request/response pairs for
//! every verb (and the error-response shape), recorded over a real
//! connection against the reference `demo` flow. The protocol cannot
//! drift silently: any change to the encoding, the error codes, the
//! artifact JSON layout or the seed-derivation rule shows up as a
//! transcript diff.
//!
//! Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test -p ipass-serve --test golden_wire`.

use ipass_serve::{testflow, Client, FlowRegistry, Server, ServerConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} (run with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "wire transcript drifted from {} (regenerate deliberately with UPDATE_GOLDEN=1)",
        path.display()
    );
}

/// Run `requests` serially on one fresh server/connection and render
/// the `> request` / `< response` transcript.
fn transcript(requests: &[&str]) -> String {
    let mut registry = FlowRegistry::new();
    registry.register("demo", testflow::demo_flow());
    let server = Server::start(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut out = String::new();
    for req in requests {
        let resp = client.request(req).unwrap();
        writeln!(out, "> {req}").unwrap();
        writeln!(out, "< {resp}").unwrap();
    }
    server.shutdown();
    server.join();
    out
}

#[test]
fn golden_wire_verbs() {
    // One transcript per query verb; `shutdown` is pinned separately
    // (it ends the conversation).
    check("list.txt", &transcript(&[r#"{"verb":"list"}"#]));
    check(
        "analyze.txt",
        &transcript(&[r#"{"verb":"analyze","flow":"demo"}"#]),
    );
    check(
        "patch.txt",
        &transcript(&[
            r#"{"verb":"patch","flow":"demo","directives":[{"set":"cost","slot":"c","value":12.5},{"set":"yield","slot":"p","value":0.8}]}"#,
            r#"{"verb":"patch","flow":"demo","directives":[{"scale":"cost","slot":"a/die","factor":2}],"volume":50000}"#,
        ]),
    );
    check(
        "mc.txt",
        &transcript(&[
            r#"{"verb":"mc","flow":"demo","units":2000,"seed":42}"#,
            r#"{"verb":"mc","flow":"demo","units":2000}"#,
        ]),
    );
}

#[test]
fn golden_wire_stats() {
    // The stats counters are deterministic for a serial, single-client
    // history on a fresh server: two analyzes (one cache miss, one
    // hit) then stats. `batches` and `batched_requests` both count
    // evaluated requests, because every request is dispatched alone.
    check(
        "stats.txt",
        &transcript(&[
            r#"{"verb":"analyze","flow":"demo"}"#,
            r#"{"verb":"analyze","flow":"demo"}"#,
            r#"{"verb":"stats"}"#,
        ]),
    );
}

#[test]
fn golden_wire_errors() {
    check(
        "errors.txt",
        &transcript(&[
            "not json at all",
            r#"{"no":"verb"}"#,
            r#"{"verb":"frobnicate"}"#,
            r#"{"verb":"analyze"}"#,
            r#"{"verb":"analyze","flow":"ghost"}"#,
            r#"{"verb":"mc","flow":"demo","units":0}"#,
            r#"{"verb":"patch","flow":"demo","directives":[{"set":"cost","slot":"ghost","value":1}]}"#,
        ]),
    );
}

#[test]
fn golden_wire_shutdown() {
    let mut registry = FlowRegistry::new();
    registry.register("demo", testflow::demo_flow());
    let server = Server::start(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let req = r#"{"verb":"shutdown"}"#;
    let resp = client.request(req).unwrap();
    server.wait();
    check("shutdown.txt", &format!("> {req}\n< {resp}\n"));
}
