//! Protocol fuzz/robustness battery: every malformed input in the
//! corpus must yield a *typed* error response and leave the server
//! serving — never a panic, a hang, or a silently closed connection.

use ipass_report::json;
use ipass_serve::{testflow, Client, ErrorCode, FlowRegistry, Server, ServerConfig};
use std::time::Duration;

fn server() -> Server {
    let mut registry = FlowRegistry::new();
    registry.register("demo", testflow::demo_flow());
    Server::start(registry, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback")
}

fn error_code(response: &str) -> String {
    assert_eq!(
        json::string_field(response, "ok"),
        Some("false"),
        "expected an error response, got {response}"
    );
    let err = json::field_value(response, "error").expect("error member");
    json::string_field(err, "code")
        .expect("code member")
        .to_owned()
}

/// The server is still alive iff a well-formed request round-trips.
fn assert_still_serving(client: &mut Client) {
    let resp = client
        .request(r#"{"verb":"list"}"#)
        .expect("server must keep serving after a malformed request");
    assert_eq!(resp, r#"{"ok":true,"verb":"list","flows":["demo"]}"#);
}

#[test]
fn malformed_corpus_yields_typed_errors_and_the_server_survives() {
    // (input line, expected error code) — the seeded corpus of the
    // ISSUE: truncated JSON, unknown verbs, missing/bad fields,
    // unknown flows. Every entry runs on the SAME connection, which
    // must stay usable throughout.
    let corpus: &[(&str, ErrorCode)] = &[
        ("hello world", ErrorCode::MalformedJson),
        ("[1,2,3]", ErrorCode::MalformedJson),
        ("42", ErrorCode::MalformedJson),
        ("{}", ErrorCode::MissingField),
        (r#"{"verb":"frobnicate"}"#, ErrorCode::UnknownVerb),
        (r#"{"verb":17}"#, ErrorCode::UnknownVerb),
        (r#"{"verb":"analyze"}"#, ErrorCode::MissingField),
        (
            r#"{"verb":"analyze","flow":"ghost"}"#,
            ErrorCode::UnknownFlow,
        ),
        (r#"{"verb":"analyze","flow":""}"#, ErrorCode::BadField),
        (r#"{"verb":"mc","flow":"demo"}"#, ErrorCode::MissingField),
        (
            r#"{"verb":"mc","flow":"demo","units":0}"#,
            ErrorCode::BadField,
        ),
        (
            r#"{"verb":"mc","flow":"demo","units":10000000000}"#,
            ErrorCode::BadField,
        ),
        (
            r#"{"verb":"mc","flow":"demo","units":"many"}"#,
            ErrorCode::BadField,
        ),
        (
            r#"{"verb":"mc","flow":"demo","units":100,"seed":-1}"#,
            ErrorCode::BadField,
        ),
        (r#"{"verb":"patch","flow":"demo"}"#, ErrorCode::MissingField),
        (
            r#"{"verb":"patch","flow":"demo","directives":[]}"#,
            ErrorCode::BadField,
        ),
        (
            r#"{"verb":"patch","flow":"demo","directives":[{"slot":"c"}]}"#,
            ErrorCode::MissingField,
        ),
        (
            r#"{"verb":"patch","flow":"demo","directives":[{"set":"yield","slot":"p","value":1.5}]}"#,
            ErrorCode::BadField,
        ),
        (
            r#"{"verb":"patch","flow":"demo","directives":[{"set":"cost","slot":"ghost","value":1}]}"#,
            ErrorCode::EngineError,
        ),
        // Two finite scale factors whose product overflows the slot's
        // cost: a typed engine error, not a panic in the walk.
        (
            r#"{"verb":"patch","flow":"demo","directives":[{"scale":"cost","slot":"c","factor":1e308},{"scale":"cost","slot":"c","factor":1e308}]}"#,
            ErrorCode::EngineError,
        ),
        // Truncated JSON: the tolerant scanner still fails typed-ly.
        // (A string truncated only at its closing quote, like
        // `"flow":"demo`, is *recovered* by design — see the separate
        // truncated-flow test.)
        (r#"{"verb":"analyze","flo"#, ErrorCode::MissingField),
        (r#"{"verb"#, ErrorCode::MissingField),
        ("{", ErrorCode::MissingField),
    ];
    let server = server();
    let mut client = Client::connect(server.addr()).unwrap();
    for (input, expected) in corpus {
        let resp = client
            .request(input)
            .expect("a typed response, not a close");
        assert_eq!(
            error_code(&resp),
            expected.as_str(),
            "input {input:?} answered {resp}"
        );
        assert_still_serving(&mut client);
    }
    server.shutdown();
    server.join();
}

#[test]
fn truncated_flow_string_resolves_or_errors_but_never_hangs() {
    // A truncated string value swallows the rest of the line; whatever
    // the scanner resolves, the answer must be typed and prompt.
    let server = server();
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = client.request(r#"{"verb":"analyze","flow":"de"#).unwrap();
    assert_eq!(json::string_field(&resp, "ok"), Some("false"));
    assert_still_serving(&mut client);
    server.shutdown();
    server.join();
}

#[test]
fn oversized_line_is_refused_and_the_connection_keeps_serving() {
    let config = ServerConfig {
        max_request_bytes: 1024,
        ..ServerConfig::default()
    };
    let mut registry = FlowRegistry::new();
    registry.register("demo", testflow::demo_flow());
    let server = Server::start(registry, "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // One giant junk line (sent in pieces, to also exercise the
    // over-budget-before-newline path), then a valid request.
    let junk = vec![b'a'; 8 * 1024];
    for piece in junk.chunks(3000) {
        client.send_raw(piece).unwrap();
    }
    client.send_raw(b"\n").unwrap();
    let resp = client.read_line().unwrap();
    assert_eq!(error_code(&resp), "oversized-request");
    assert_still_serving(&mut client);

    // An oversized line that fits no newline for a while must be
    // answered as soon as the budget is blown, not after the newline.
    client.send_raw(&vec![b'b'; 4 * 1024]).unwrap();
    let resp = client.read_line().unwrap();
    assert_eq!(error_code(&resp), "oversized-request");
    client.send_raw(b"ccc\n").unwrap(); // the tail, discarded silently
    assert_still_serving(&mut client);
    server.shutdown();
    server.join();
}

#[test]
fn non_utf8_bytes_get_a_typed_error() {
    let server = server();
    let mut client = Client::connect(server.addr()).unwrap();
    client.send_raw(b"\xff\xfe{\"verb\":\"list\"}\n").unwrap();
    let resp = client.read_line().unwrap();
    assert_eq!(error_code(&resp), "invalid-utf8");
    assert_still_serving(&mut client);
    server.shutdown();
    server.join();
}

#[test]
fn interleaved_partial_writes_frame_correctly() {
    let server = server();
    let mut client = Client::connect(server.addr()).unwrap();
    // Half a request, a pause, the rest: the newline is the frame, so
    // the response must be the same as for a single write.
    client.send_raw(br#"{"verb":"ana"#).unwrap();
    std::thread::sleep(Duration::from_millis(120));
    client.send_raw(b"lyze\",\"flow\":\"demo\"}\n").unwrap();
    let split = client.read_line().unwrap();
    let whole = client
        .request(r#"{"verb":"analyze","flow":"demo"}"#)
        .unwrap();
    assert_eq!(split, whole);
    // Two requests in one write: two responses, in order.
    client
        .send_raw(b"{\"verb\":\"list\"}\n{\"verb\":\"stats\"}\n")
        .unwrap();
    let first = client.read_line().unwrap();
    let second = client.read_line().unwrap();
    assert_eq!(first, r#"{"ok":true,"verb":"list","flows":["demo"]}"#);
    assert_eq!(json::string_field(&second, "verb"), Some("stats"));
    server.shutdown();
    server.join();
}

#[test]
fn blank_lines_are_ignored_not_answered() {
    let server = server();
    let mut client = Client::connect(server.addr()).unwrap();
    client.send_raw(b"\n\r\n").unwrap();
    let resp = client.request(r#"{"verb":"list"}"#).unwrap();
    assert_eq!(resp, r#"{"ok":true,"verb":"list","flows":["demo"]}"#);
    server.shutdown();
    server.join();
}

#[test]
fn idle_connections_time_out_with_a_typed_error_then_close() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let mut registry = FlowRegistry::new();
    registry.register("demo", testflow::demo_flow());
    let server = Server::start(registry, "127.0.0.1:0", config).unwrap();
    let mut idle = Client::connect(server.addr()).unwrap();
    let resp = idle.read_line().expect("timeout notice before close");
    assert_eq!(error_code(&resp), "timeout");
    assert!(idle.is_closed(), "connection must close after the notice");
    // The *server* is still serving fresh connections.
    let mut fresh = Client::connect(server.addr()).unwrap();
    assert_still_serving(&mut fresh);
    server.shutdown();
    server.join();
}

#[test]
fn a_zero_idle_timeout_is_refused_at_start() {
    // Sockets reject a zero timeout, so such a server would close every
    // connection without an answer; it must not start at all.
    let config = ServerConfig {
        idle_timeout: Duration::ZERO,
        ..ServerConfig::default()
    };
    let mut registry = FlowRegistry::new();
    registry.register("demo", testflow::demo_flow());
    let err = Server::start(registry, "127.0.0.1:0", config)
        .expect_err("a zero idle timeout must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

#[test]
fn a_peer_that_never_reads_cannot_block_join() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let mut registry = FlowRegistry::new();
    registry.register("demo", testflow::demo_flow());
    let server = Server::start(registry, "127.0.0.1:0", config).unwrap();
    let mut flooder = Client::connect(server.addr()).unwrap();
    std::thread::spawn(move || {
        let line = b"{\"verb\":\"analyze\",\"flow\":\"demo\"}\n";
        while flooder.send_raw(line).is_ok() {}
    });
    // Wait until the answers stop flowing: both socket buffers are full
    // and the connection thread is stuck writing to a peer that never
    // reads.
    let mut last = server.run_stats().serve.bytes_out;
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = server.run_stats().serve.bytes_out;
        if now > 0 && now == last {
            break;
        }
        last = now;
    }
    server.shutdown();
    let (joined, done) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = joined.send(());
    });
    done.recv_timeout(Duration::from_secs(10))
        .expect("join must not wait on a peer that never reads");
}

#[test]
fn a_dead_client_does_not_take_the_server_down() {
    let server = server();
    {
        let mut doomed = Client::connect(server.addr()).unwrap();
        doomed
            .send_raw(br#"{"verb":"analyze","flow":"demo"}"#)
            .unwrap();
        // Drop mid-request without the newline: the connection closes
        // from our side with a partial frame outstanding.
    }
    let mut fresh = Client::connect(server.addr()).unwrap();
    assert_still_serving(&mut fresh);
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_drains_in_flight_work() {
    let server = server();
    let addr = server.addr();
    let mut worker = Client::connect(addr).unwrap();
    let mut killer = Client::connect(addr).unwrap();
    // Queue real work and the shutdown concurrently; the worker's
    // response must still arrive complete and well-formed.
    worker
        .send_raw(b"{\"verb\":\"mc\",\"flow\":\"demo\",\"units\":200000,\"seed\":9}\n")
        .unwrap();
    // Give the worker's connection thread time to pick the request up,
    // so the shutdown latch finds it genuinely in flight.
    std::thread::sleep(Duration::from_millis(150));
    let bye = killer.request(r#"{"verb":"shutdown"}"#).unwrap();
    assert_eq!(bye, r#"{"ok":true,"verb":"shutdown"}"#);
    let resp = worker.read_line().expect("in-flight work must be answered");
    assert_eq!(json::string_field(&resp, "ok"), Some("true"), "{resp}");
    assert_eq!(json::string_field(&resp, "verb"), Some("mc"));
    server.wait();
}
