//! End-to-end tests of `qbss serve`: the binary is started on an
//! ephemeral port, driven over real TCP, and shut down with a real
//! SIGTERM. Covers the scrape contract (parseable, byte-stable
//! Prometheus exposition), the typed-error status mapping for corrupted
//! instances from the fault catalog, and the drain-on-signal exit code.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qbss_core::model::{QJob, QbssInstance};
use qbss_instances::corrupt::{Corruptor, Mutation};
use qbss_instances::io;

/// A running `qbss serve`. Dropping it kills and reaps the process, so
/// a test that fails before its drain leaves no server behind;
/// [`wait_exit`] takes the process out to check a clean drain.
struct Server(Option<Child>);

impl Server {
    fn id(&self) -> u32 {
        self.0.as_ref().expect("the server is still running").id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Starts `qbss serve` on an ephemeral port and returns the server plus
/// the bound address parsed from the stderr banner.
fn start_server(extra: &[&str]) -> (Server, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_qbss"));
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .args(extra)
        .env_remove("QBSS_LOG")
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("server spawns");
    let stderr = child.stderr.take().expect("stderr piped");
    let server = Server(Some(child));
    let mut reader = BufReader::new(stderr);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("stderr banner");
    let addr = banner
        .split("listening on ")
        .nth(1)
        .unwrap_or_else(|| panic!("no address in banner: {banner}"))
        .split_whitespace()
        .next()
        .expect("address token")
        .to_string();
    // Keep draining stderr so the server can never block on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = reader.read_to_string(&mut sink);
    });
    (server, addr)
}

/// One HTTP/1.1 request over a fresh connection; returns status,
/// header block, and body.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header block");
    let status: u16 = head
        .split_ascii_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, head.to_string(), body.to_string())
}

/// Polls `/readyz` until the server answers 200.
fn wait_ready(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let req = format!("GET /readyz HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
            if stream.write_all(req.as_bytes()).is_ok() {
                let mut raw = String::new();
                if stream.read_to_string(&mut raw).is_ok() && raw.starts_with("HTTP/1.1 200") {
                    return;
                }
            }
        }
        assert!(Instant::now() < deadline, "server never became ready on {addr}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn sigterm(server: &Server) {
    let status = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill -TERM failed");
}

fn wait_exit(mut server: Server) -> Option<i32> {
    let mut child = server.0.take().expect("the server is still running");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status.code();
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("server did not exit after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A minimal structural check of the Prometheus text format: every
/// line is a `# TYPE`/`# HELP` comment or `name[{labels}] value` with
/// a sanitized metric name and a parseable value.
fn assert_prometheus_parseable(text: &str) {
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line: {line}"));
        let name = name_part.split('{').next().expect("metric name");
        assert!(
            !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "unsanitized metric name in: {line}"
        );
        assert!(
            value.parse::<f64>().is_ok() || ["NaN", "+Inf", "-Inf"].contains(&value),
            "unparseable value in: {line}"
        );
    }
}

/// Serializes without validating — `io::to_json` (rightly) refuses
/// model-invalid instances, but the test needs corrupted bytes on the
/// wire to prove the server answers 422 instead of panicking.
fn instance_json_unchecked(inst: &QbssInstance) -> String {
    let jobs: Vec<String> = inst
        .jobs
        .iter()
        .map(|j| {
            format!(
                "{{\"id\": {}, \"release\": {}, \"deadline\": {}, \"query_load\": {}, \
                 \"upper_bound\": {}, \"exact\": {}}}",
                j.id,
                j.release,
                j.deadline,
                j.query_load,
                j.upper_bound,
                j.reveal_exact()
            )
        })
        .collect();
    format!("{{\"jobs\": [{}]}}", jobs.join(", "))
}

fn valid_instance_json() -> String {
    let inst = QbssInstance::new(vec![
        QJob::new(0, 0.0, 2.0, 0.2, 2.0, 0.3),
        QJob::new(1, 0.0, 3.0, 0.1, 1.5, 1.0),
    ]);
    io::to_json(&inst).expect("serializes")
}

#[test]
fn serve_scrapes_evaluates_and_drains() {
    let (child, addr) = start_server(&[]);
    wait_ready(&addr);

    // The index lists the endpoints.
    let (status, _, body) = http(&addr, "GET", "/", "");
    assert_eq!(status, 200);
    assert!(body.contains("/metrics"), "{body}");

    // Two idle scrapes are byte-identical and structurally Prometheus.
    let (s1, head1, scrape1) = http(&addr, "GET", "/metrics", "");
    let (s2, _, scrape2) = http(&addr, "GET", "/metrics", "");
    assert_eq!((s1, s2), (200, 200));
    assert!(head1.contains("text/plain; version=0.0.4"), "{head1}");
    assert_eq!(scrape1, scrape2, "idle scrapes must be byte-identical");
    assert_prometheus_parseable(&scrape1);

    // Health probes answer JSON and do not perturb the registry.
    let (status, _, health) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(health.contains("\"status\": \"ok\""), "{health}");
    // The build fingerprint pins the probe to the binary: version from
    // the crate, git state best-effort (may be "unknown" off-repo).
    assert!(
        health.contains("\"build\": {\"version\": \"") && health.contains("\"git\": \""),
        "{health}"
    );
    let (_, _, scrape3) = http(&addr, "GET", "/metrics", "");
    assert_eq!(scrape1, scrape3, "probes must leave /metrics byte-stable");

    // A valid instance evaluates end to end.
    let (status, _, body) = http(&addr, "POST", "/evaluate?alg=avrq&alpha=3", &valid_instance_json());
    assert_eq!(status, 200, "{body}");
    for field in ["request_id", "algorithm", "energy", "max_speed", "outcome"] {
        assert!(body.contains(field), "missing `{field}` in {body}");
    }

    // `?explain=1` adds per-job decision attribution to the response;
    // the factors are present and the blame job named.
    let (status, _, body) =
        http(&addr, "POST", "/evaluate?alg=avrq&alpha=3&explain=1", &valid_instance_json());
    assert_eq!(status, 200, "{body}");
    for field in ["query_loss", "split_loss", "sched_loss", "blame_job", "\"jobs\""] {
        assert!(body.contains(field), "missing `{field}` in {body}");
    }
    // Without the flag the attribution slot is explicit null (stable
    // response shape), and a multi-machine explain is rejected up
    // front — attribution has no single-machine optimum to factor
    // against.
    let (status, _, body) = http(&addr, "POST", "/evaluate?alg=avrq", &valid_instance_json());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"attribution\": null"), "{body}");
    let (status, _, body) =
        http(&addr, "POST", "/evaluate?alg=avrq-m:2&explain=1", &valid_instance_json());
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("single-machine"), "{body}");

    // A corrupted instance from the fault catalog maps onto the typed
    // 4xx taxonomy instead of panicking the worker.
    let base = QbssInstance::new(vec![
        QJob::new(0, 0.0, 2.0, 0.2, 2.0, 0.3),
        QJob::new(1, 0.0, 3.0, 0.1, 1.5, 1.0),
    ]);
    let mut corruptor = Corruptor::new(7);
    let corrupted = corruptor.apply(&base, Mutation::InvertedWindow).expect("applicable");
    let bad_json = instance_json_unchecked(&corrupted.instance);
    let (status, _, body) = http(&addr, "POST", "/evaluate", &bad_json);
    assert_eq!(status, 422, "model-invalid instance is 422: {body}");
    assert!(body.contains("\"kind\": \"model\""), "{body}");

    // Not-JSON is the client's syntax problem (400), unknown paths 404,
    // wrong methods 405.
    let (status, _, body) = http(&addr, "POST", "/evaluate", "{not json");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\": \"syntax\""), "{body}");
    let (status, _, _) = http(&addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _, _) = http(&addr, "POST", "/metrics", "");
    assert_eq!(status, 405);

    // A sweep body runs on the engine and returns the aggregate.
    let (status, _, body) =
        http(&addr, "POST", "/sweep", r#"{"count": 2, "n": 5, "alg": "avrq", "alpha": 2.5}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("avrq"), "{body}");
    let (status, _, body) = http(&addr, "POST", "/sweep", r#"{"alg": "yds"}"#);
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("\"kind\": \"spec\""), "{body}");

    // The work endpoints (and only they) moved the registry, each
    // with a per-endpoint latency family next to the aggregate.
    let (_, _, scrape4) = http(&addr, "GET", "/metrics", "");
    assert!(scrape4.contains("serve_requests"), "{scrape4}");
    assert!(scrape4.contains("serve_request_dur_us_bucket"), "{scrape4}");
    assert!(scrape4.contains("serve_request_dur_us_evaluate_bucket"), "{scrape4}");
    assert!(scrape4.contains("serve_request_dur_us_sweep_bucket"), "{scrape4}");
    assert_prometheus_parseable(&scrape4);

    // The ring kept the request spans: /tracez renders them as HTML.
    let (status, head, body) = http(&addr, "GET", "/tracez", "");
    assert_eq!(status, 200);
    assert!(head.contains("text/html"), "{head}");
    assert!(body.contains("serve.request"), "{body}");
    let (status, _, jsonl) = http(&addr, "GET", "/tracez?format=jsonl", "");
    assert_eq!(status, 200);
    assert!(jsonl.lines().any(|l| l.contains("serve.request")), "{jsonl}");

    // ?target= narrows the stream to a dot-prefix without rewriting
    // the record bytes; a prefix nothing matches leaves at most the
    // (untimed, untargeted) metrics snapshots; a bad ?min_us is 400.
    let (status, _, filtered) =
        http(&addr, "GET", "/tracez?format=jsonl&target=serve.request", "");
    assert_eq!(status, 200);
    assert!(filtered.lines().any(|l| l.contains("serve.request")), "{filtered}");
    assert!(
        filtered.lines().all(|l| l.contains("serve.request") || l.contains("\"t\": \"metrics\"")),
        "{filtered}"
    );
    let (status, _, none) = http(&addr, "GET", "/tracez?format=jsonl&target=no.such", "");
    assert_eq!(status, 200);
    assert!(none.lines().all(|l| l.contains("\"t\": \"metrics\"")), "{none}");
    let (status, _, _) = http(&addr, "GET", "/tracez?min_us=soon", "");
    assert_eq!(status, 400);

    // /profilez folds the ring's spans into a flamegraph — and, being
    // a probe, leaves /metrics byte-stable.
    let (status, head, flame) = http(&addr, "GET", "/profilez", "");
    assert_eq!(status, 200);
    assert!(head.contains("text/html"), "{head}");
    assert!(flame.contains("serve.request"), "{flame}");
    let (status, _, folded) = http(&addr, "GET", "/profilez?format=folded", "");
    assert_eq!(status, 200);
    assert!(folded.lines().any(|l| l.starts_with("serve.request ")), "{folded}");
    let (_, _, scrape5) = http(&addr, "GET", "/metrics", "");
    assert_eq!(scrape4, scrape5, "/profilez and /tracez must not move the registry");

    // SIGTERM drains and exits 0 — the contract scripts rely on.
    sigterm(&child);
    assert_eq!(wait_exit(child), Some(0), "signalled drain must exit 0");
}

/// Every counter in the canonical [`qbss_core::WORK_COUNTERS`] catalog
/// must surface in the `/metrics` exposition once its code path has
/// run — the catalog is the source of truth, so a counter added to a
/// solver without a catalog entry (or vice versa) fails here.
#[test]
fn work_counters_surface_in_the_metrics_exposition() {
    let (child, addr) = start_server(&[]);
    wait_ready(&addr);

    // One evaluate per solver family: AVR/BKP/OA cover their stream
    // counters, any single-machine ratio computes OPT (YDS + cache),
    // and the multi-machine OAQ(m) plan runs Frank–Wolfe.
    for alg in ["avrq", "bkpq", "oaq", "oaq-m:2:4"] {
        let (status, _, body) =
            http(&addr, "POST", &format!("/evaluate?alg={alg}&alpha=3"), &valid_instance_json());
        assert_eq!(status, 200, "evaluate {alg}: {body}");
    }

    // A sweep with two algorithms on the same instances: the second
    // cell answers its OPT lookups from the shared cache
    // (`cache.opt_energy.hits`).
    let (status, _, body) = http(
        &addr,
        "POST",
        "/sweep",
        r#"{"count": 1, "n": 5, "alg": ["avrq", "oaq"], "alpha": 3}"#,
    );
    assert_eq!(status, 200, "{body}");

    // A multi-machine sweep on staggered windows certifies OPT with
    // Frank–Wolfe steps that reach the line search (`fw.line_evals`);
    // the two-job evaluate above converges before it.
    let (status, _, body) = http(
        &addr,
        "POST",
        "/sweep",
        r#"{"count": 1, "n": 8, "family": "online", "alg": "avrq-m", "m": 2, "alpha": 3}"#,
    );
    assert_eq!(status, 200, "{body}");

    // A streaming session drives the incremental engine (`solver.*`).
    let (status, _, body) = http(&addr, "POST", "/session?alg=avrq&alpha=3", "");
    assert_eq!(status, 200, "{body}");
    let id: u64 = body
        .split("\"session\": ")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no session id in {body}"));
    let job = "{\"id\": 0, \"release\": 0.0, \"deadline\": 2.0, \"query_load\": 0.2, \
               \"upper_bound\": 2.0, \"exact\": 0.3}";
    let (status, _, body) = http(&addr, "POST", &format!("/session/{id}/arrive"), job);
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = http(&addr, "POST", &format!("/session/{id}/advance?t=1.0"), "");
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = http(&addr, "POST", &format!("/session/{id}/finish"), "");
    assert_eq!(status, 200, "{body}");

    // The scrape lists every catalogued work counter with a positive
    // count — enumerated from the catalog, not a hand-rolled list.
    let (status, _, scrape) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for (name, _) in qbss_core::WORK_COUNTERS {
        let pname = qbss_telemetry::expo::sanitize_name(name);
        let value: u64 = scrape
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{pname} ")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("work counter `{name}` missing from /metrics:\n{scrape}"));
        assert!(value > 0, "work counter `{name}` never fired ({pname} = 0)");
    }

    sigterm(&child);
    assert_eq!(wait_exit(child), Some(0));
}

/// A 422 names the offending value's JSON type and quotes at most a
/// short excerpt of it, so a 200,000-byte value gets a small reply.
#[test]
fn sweep_spec_errors_stay_small_whatever_the_value() {
    let (child, addr) = start_server(&[]);
    wait_ready(&addr);
    let long = "a".repeat(200_000);
    for body in [
        format!(r#"{{"n": "{long}"}}"#),
        format!(r#"{{"family": "{long}"}}"#),
        format!(r#"{{"alg": "{long}"}}"#),
        format!(r#"{{"alg": {{"{long}": 1}}}}"#),
        format!(r#"{{"alpha": ["{long}"]}}"#),
        format!(r#"{{"{long}": 1}}"#),
    ] {
        let (status, _, reply) = http(&addr, "POST", "/sweep", &body);
        assert_eq!(status, 422, "{}", &reply[..reply.len().min(200)]);
        assert!(reply.len() < 1024, "{}-byte 422 for {}…", reply.len(), &body[..12]);
        assert!(reply.contains("\"kind\": \"spec\""), "{reply}");
    }
    sigterm(&child);
    assert_eq!(wait_exit(child), Some(0));
}

/// Sends raw bytes (not necessarily valid HTTP) and returns whatever
/// came back — empty on a clean server-side close.
fn raw(addr: &str, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.write_all(bytes);
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

fn status_of(response: &str) -> Option<u16> {
    response.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// The HTTP-layer chaos gate: every malformed or adversarial byte
/// stream must get a typed 4xx or a clean close — never a panic, never
/// a hang — and the server must stay ready afterwards.
#[test]
fn chaos_gate_malformed_requests_never_kill_the_server() {
    // Tight timeouts so the deliberately-stalled cases resolve fast.
    let (child, addr) =
        start_server(&["--request-timeout-ms", "2000", "--io-timeout-ms", "500"]);
    wait_ready(&addr);

    // Truncated request line, then EOF: 400 or clean close.
    let resp = raw(&addr, b"GET /nope");
    assert!(
        resp.is_empty() || status_of(&resp).is_some_and(|s| (400..500).contains(&s)),
        "truncated request line: {resp}"
    );

    // A header block past the 64 KB cap: typed 400, not an OOM spiral.
    let mut huge = b"GET / HTTP/1.1\r\n".to_vec();
    for _ in 0..3000 {
        huge.extend_from_slice(b"X-Garbage: aaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    // The server answers 400 and closes with our bytes still in
    // flight; depending on RST timing the client sees the 400 or an
    // empty/partial read. Either is a clean rejection.
    let resp = raw(&addr, &huge);
    assert!(
        resp.is_empty() || status_of(&resp) == Some(400),
        "huge header should be cleanly rejected: {resp}"
    );

    // Byte-by-byte split writes of a *valid* request still parse (the
    // reader must tolerate arbitrary fragmentation).
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let req =
            format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
        for b in req.as_bytes() {
            stream.write_all(&[*b]).expect("split write");
            stream.flush().expect("flush");
        }
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        assert_eq!(status_of(&out), Some(200), "split writes: {out}");
    }

    // Premature close mid-body: Content-Length promises more bytes than
    // ever arrive — the worker must not wait forever (EOF → 400, or the
    // response is simply lost on the closed socket; either way no hang).
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let req = format!(
            "POST /evaluate HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 100000\r\n\r\n{{\"jobs\""
        );
        stream.write_all(req.as_bytes()).expect("send partial");
        drop(stream);
    }

    // A POST with no Content-Length is refused up front with a typed 411.
    let resp = raw(
        &addr,
        format!("POST /evaluate HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    );
    assert_eq!(status_of(&resp), Some(411), "missing Content-Length: {resp}");
    assert!(resp.contains("length_required"), "{resp}");

    // Garbage Content-Length: typed 400 before any body read.
    let resp = raw(
        &addr,
        format!("POST /evaluate HTTP/1.1\r\nHost: {addr}\r\nContent-Length: banana\r\n\r\n")
            .as_bytes(),
    );
    assert_eq!(status_of(&resp), Some(400), "garbage Content-Length: {resp}");

    // A Content-Length over the 8 MB cap: typed 413, distinct from 400,
    // decided before the server reads a single body byte.
    let resp = raw(
        &addr,
        format!(
            "POST /evaluate HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 999999999\r\n\
             Connection: close\r\n\r\n"
        )
        .as_bytes(),
    );
    assert_eq!(status_of(&resp), Some(413), "oversized body: {resp}");
    assert!(resp.contains("payload_too_large"), "{resp}");

    // Pipelined garbage after a valid request: the server answers the
    // first request and closes (Connection: close), never panicking on
    // the trailing bytes.
    let resp = raw(
        &addr,
        format!(
            "GET /healthz HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n\
             \x00\x01\x02NOT HTTP AT ALL\r\n\r\n"
        )
        .as_bytes(),
    );
    assert_eq!(status_of(&resp), Some(200), "pipelined garbage: {resp}");

    // Nesting far past the JSON reader's depth cap is a typed 400 on
    // every JSON endpoint, not a stack overflow (which would abort the
    // whole process, past any `catch_unwind`).
    let nested = "[".repeat(20_000);
    let (status, _, body) = http(&addr, "POST", "/sweep", &nested);
    assert_eq!(status, 400, "nested /sweep body: {body}");
    assert!(body.contains("\"kind\": \"syntax\""), "{body}");
    let (status, _, body) =
        http(&addr, "POST", "/evaluate", &format!("{{\"jobs\": [], \"x\": {nested}"));
    assert_eq!(status, 400, "nested /evaluate body: {body}");
    assert!(body.contains("\"kind\": \"syntax\""), "{body}");
    let (status, _, body) = http(&addr, "POST", "/session?alg=oaq&alpha=3", "");
    assert_eq!(status, 200, "{body}");
    let session = json_num(&body, "session") as u64;
    let (status, _, body) = http(&addr, "POST", &format!("/session/{session}/arrive"), &nested);
    assert_eq!(status, 400, "nested arrive body: {body}");
    assert!(body.contains("\"kind\": \"syntax\""), "{body}");

    // A 1 MiB string is read in linear time: the unknown sweep key
    // answers its 422 well inside the 2 s request deadline.
    let long = format!("{{\"x\": \"{}\"}}", "a".repeat(1 << 20));
    let (status, _, body) = http(&addr, "POST", "/sweep", &long);
    assert_eq!(status, 422, "1 MiB string in a /sweep body: {body}");
    assert!(body.contains("unknown key `x`"), "{body}");

    // After all of that: still alive, still ready, still serving work.
    let (status, _, _) = http(&addr, "GET", "/readyz", "");
    assert_eq!(status, 200, "server must stay ready after the chaos gate");
    let (status, _, body) = http(&addr, "POST", "/evaluate?alg=avrq", &valid_instance_json());
    assert_eq!(status, 200, "work still serves after chaos: {body}");

    sigterm(&child);
    assert_eq!(wait_exit(child), Some(0));
}

/// A slowloris client trickling header bytes is evicted by the request
/// deadline instead of parking a worker indefinitely, and the server
/// keeps serving everyone else meanwhile.
#[test]
fn slowloris_clients_are_evicted_by_the_deadline() {
    let (child, addr) =
        start_server(&["--request-timeout-ms", "600", "--io-timeout-ms", "300"]);
    wait_ready(&addr);

    // Trickle one header byte every 100 ms from a would-be slowloris;
    // the per-request wall clock (600 ms) must cut it off even though
    // each individual byte beats the 300 ms inactivity timeout.
    let loris_addr = addr.clone();
    let started = Instant::now();
    let loris = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(&loris_addr).expect("connect");
        let drip = b"GET / HTTP/1.1\r\nX-Slow: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
        for chunk in drip.iter() {
            if stream.write_all(&[*chunk]).is_err() {
                break; // server hung up on us — exactly the point
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        out
    });

    // While the slowloris drips, normal requests keep flowing — the
    // worker pool is not starved by the slow client.
    for _ in 0..3 {
        let (status, _, _) = http(&addr, "GET", "/readyz", "");
        assert_eq!(status, 200, "server must serve others during a slowloris");
        std::thread::sleep(Duration::from_millis(100));
    }

    let resp = loris.join().expect("loris thread");
    let elapsed = started.elapsed();
    // Evicted: either a typed 408 or a bare close, well before the
    // trickle would have finished on its own (~6 s for 60 bytes).
    assert!(
        resp.is_empty() || status_of(&resp) == Some(408),
        "slowloris should see 408 or a close: {resp}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "slowloris must be evicted by the deadline, took {elapsed:?}"
    );
    if let Some(408) = status_of(&resp) {
        assert!(resp.contains("\"kind\": \"timeout\""), "{resp}");
    }

    sigterm(&child);
    assert_eq!(wait_exit(child), Some(0));
}

/// Admission control sheds over-budget work with a typed 429 carrying
/// `Retry-After`, surfaces the shed in /metrics and /healthz, and the
/// server never answers a connection-level 5xx for it.
#[test]
fn over_budget_sweeps_are_shed_with_typed_429s() {
    // Budget of 20 cells: the first (idle-server) sweep is admitted
    // regardless, so park one big sweep and race a second one into it.
    let (child, addr) = start_server(&["--budget", "20", "--workers", "4"]);
    wait_ready(&addr);

    // 1000 × 9 × 2 = 18000 cells: far over budget, admitted only via
    // the idle-server rule, and long-running enough (most of a second
    // in a release build) to hold the budget while the cheap probes
    // below race into it.
    let big = r#"{"count": 1000, "n": 12, "alg": "all", "alpha": [2, 3]}"#;
    let big_cost = 18_000.0;
    let probe = r#"{"count": 2, "n": 5, "alg": "avrq", "alpha": 2.5}"#;
    let bg_addr = addr.clone();
    let parked = std::thread::spawn(move || http(&bg_addr, "POST", "/sweep", big));
    // Wait until /healthz shows the big sweep holding the budget, then
    // offer more work: while it runs, in-flight cost exceeds the
    // budget, so *any* probe sheds.
    let deadline = Instant::now() + Duration::from_secs(60);
    while in_flight_cost(&addr) < big_cost {
        assert!(Instant::now() < deadline, "the big sweep never showed up in /healthz");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut saw_429 = false;
    let mut retry_after = false;
    for _ in 0..20 {
        let (status, head, body) = http(&addr, "POST", "/sweep", probe);
        assert!(status == 200 || status == 429, "only 200/429 expected, got {status}: {body}");
        if status == 429 {
            saw_429 = true;
            retry_after |= head.to_ascii_lowercase().contains("retry-after:");
            assert!(body.contains("\"kind\": \"overloaded\""), "{body}");
            break;
        }
        // Readiness must hold while the server sheds.
        let (ready, _, _) = http(&addr, "GET", "/readyz", "");
        assert_eq!(ready, 200, "/readyz must stay 200 under load");
    }
    let (status, _, _) = parked.join().expect("parked sweep");
    assert_eq!(status, 200, "the admitted sweep completes");
    assert!(saw_429, "a concurrent over-budget sweep must be shed");
    assert!(retry_after, "429 responses must carry Retry-After");

    // The shed is visible on both surfaces.
    let (_, _, metrics) = http(&addr, "GET", "/metrics", "");
    assert!(metrics.contains("serve_shed"), "{metrics}");
    let (_, _, health) = http(&addr, "GET", "/healthz", "");
    assert!(health.contains("\"shed\": "), "{health}");
    assert!(health.contains("\"budget\": "), "{health}");

    sigterm(&child);
    assert_eq!(wait_exit(child), Some(0));
}

/// The admission cost in flight, as `/healthz` reports it.
fn in_flight_cost(addr: &str) -> f64 {
    let (status, _, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    qbss_telemetry::json_parse(&body)
        .unwrap_or_else(|e| panic!("unparseable /healthz ({e}): {body}"))
        .get("budget")
        .and_then(|b| b.get("in_flight_cost"))
        .and_then(qbss_telemetry::JsonValue::as_f64)
        .unwrap_or_else(|| panic!("no budget.in_flight_cost in {body}"))
}

/// Extracts a top-level number field from a JSON response body.
fn json_num(body: &str, field: &str) -> f64 {
    qbss_telemetry::json_parse(body)
        .unwrap_or_else(|e| panic!("unparseable body ({e}): {body}"))
        .get(field)
        .and_then(qbss_telemetry::JsonValue::as_f64)
        .unwrap_or_else(|| panic!("no `{field}` in {body}"))
}

/// The streaming-session lifecycle over real TCP: open → arrive →
/// advance → finish, with the finish bit-identical to `/evaluate` on
/// the same jobs, and the typed-error taxonomy on every wrong turn.
#[test]
fn streaming_sessions_run_end_to_end_and_match_evaluate() {
    let (child, addr) = start_server(&[]);
    wait_ready(&addr);

    let job0 = r#"{"id": 0, "release": 0.0, "deadline": 2.0, "query_load": 0.2,
                   "upper_bound": 2.0, "exact": 0.3}"#;
    let job1 = r#"{"id": 1, "release": 0.0, "deadline": 3.0, "query_load": 0.1,
                   "upper_bound": 1.5, "exact": 1.0}"#;

    // Open a session and walk the lifecycle.
    let (status, _, body) = http(&addr, "POST", "/session?alg=oaq&alpha=3", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"algorithm\": \"oaq\""), "{body}");
    let id = json_num(&body, "session") as u64;

    let (status, _, body) = http(&addr, "POST", &format!("/session/{id}/arrive"), job0);
    assert_eq!(status, 200, "{body}");
    assert!(
        json_num(&body, "speed_after") > json_num(&body, "speed_before"),
        "an arrival raises the live speed: {body}"
    );
    let (status, _, body) = http(&addr, "POST", &format!("/session/{id}/arrive"), job1);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_num(&body, "jobs"), 2.0, "{body}");

    // A rejected event leaves the session open and unchanged: the
    // duplicate id answers 422 and the session still finishes below.
    let (status, _, body) = http(&addr, "POST", &format!("/session/{id}/arrive"), job1);
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("\"kind\": \"stream\""), "{body}");
    // Syntactic garbage is the 400 class, distinct from stream errors.
    let (status, _, body) = http(&addr, "POST", &format!("/session/{id}/arrive"), "{not json");
    assert_eq!(status, 400, "{body}");

    let (status, _, body) = http(&addr, "POST", &format!("/session/{id}/advance?t=1.0"), "");
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = http(&addr, "POST", &format!("/session/{id}/advance"), "");
    assert_eq!(status, 400, "advance without ?t= is bad input: {body}");

    let (status, _, finished) = http(&addr, "POST", &format!("/session/{id}/finish"), "");
    assert_eq!(status, 200, "{finished}");
    assert!(finished.contains("\"outcome\""), "{finished}");

    // The streamed outcome is bit-identical to the batch endpoint fed
    // the same jobs.
    let (status, _, batch) = http(&addr, "POST", "/evaluate?alg=oaq&alpha=3", &valid_instance_json());
    assert_eq!(status, 200, "{batch}");
    assert_eq!(
        json_num(&finished, "energy").to_bits(),
        json_num(&batch, "energy").to_bits(),
        "stream vs batch energy:\n{finished}\n{batch}"
    );
    assert_eq!(
        json_num(&finished, "max_speed").to_bits(),
        json_num(&batch, "max_speed").to_bits()
    );

    // Finishing consumed the session; everything after it is 404.
    let (status, _, _) = http(&addr, "POST", &format!("/session/{id}/finish"), "");
    assert_eq!(status, 404);
    let (status, _, _) = http(&addr, "POST", "/session/99999/arrive", job0);
    assert_eq!(status, 404);
    let (status, _, _) = http(&addr, "POST", &format!("/session/{id}/frobnicate"), "");
    assert_eq!(status, 404);
    let (status, _, _) = http(&addr, "GET", "/session", "");
    assert_eq!(status, 405, "session endpoints are POST-only");
    // Batch-only algorithms and bad exponents are rejected at open.
    let (status, _, body) = http(&addr, "POST", "/session?alg=crcd", "");
    assert_eq!(status, 422, "{body}");
    let (status, _, body) = http(&addr, "POST", "/session?alg=nope", "");
    assert_eq!(status, 400, "{body}");

    // The open/reaped counts surface on /healthz.
    let (_, _, health) = http(&addr, "GET", "/healthz", "");
    assert!(health.contains("\"sessions\": "), "{health}");

    sigterm(&child);
    assert_eq!(wait_exit(child), Some(0));
}

/// A test that fails between `start_server` and its drain leaves no
/// `qbss serve` running: the guard kills and reaps it while unwinding.
#[test]
fn a_panicking_test_leaves_no_server_behind() {
    let mut pid = None;
    let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let (server, addr) = start_server(&[]);
        pid = Some(server.id());
        wait_ready(&addr);
        panic!("a failing assertion while the server runs");
    }));
    assert!(failed.is_err());
    let pid = pid.expect("the server started").to_string();
    let alive = Command::new("kill")
        .args(["-0", &pid])
        .stderr(Stdio::null())
        .status()
        .expect("kill runs");
    assert!(!alive.success(), "qbss serve {pid} outlived the failed test");
}

/// SIGTERM with a session mid-stream: the drain discards the open
/// session and the process still exits 0.
#[test]
fn sigterm_with_an_open_session_still_drains_cleanly() {
    let (child, addr) = start_server(&[]);
    wait_ready(&addr);

    let (status, _, body) = http(&addr, "POST", "/session?alg=avrq", "");
    assert_eq!(status, 200, "{body}");
    let id = json_num(&body, "session") as u64;
    let job = r#"{"id": 0, "release": 0.0, "deadline": 2.0, "query_load": 0.2,
                  "upper_bound": 2.0, "exact": 0.3}"#;
    let (status, _, _) = http(&addr, "POST", &format!("/session/{id}/arrive"), job);
    assert_eq!(status, 200);

    sigterm(&child);
    assert_eq!(wait_exit(child), Some(0), "drain with an open session must exit 0");
}

#[test]
fn sigterm_during_an_inflight_sweep_still_drains_cleanly() {
    let (child, addr) = start_server(&[]);
    wait_ready(&addr);

    // Park a non-trivial sweep on a worker, then signal while it runs.
    let sweep_addr = addr.clone();
    let inflight = std::thread::spawn(move || {
        http(
            &sweep_addr,
            "POST",
            "/sweep",
            r#"{"count": 30, "n": 14, "alg": "all", "alpha": [2, 3]}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(150));
    sigterm(&child);

    // The in-flight request completes (drain, not abort) …
    let (status, _, body) = inflight.join().expect("sweep thread");
    assert_eq!(status, 200, "in-flight work must drain: {body}");
    // … and the process still exits 0.
    assert_eq!(wait_exit(child), Some(0));
}

/// The accept loop wakes on a connection, not on its tick. With a 2 s
/// tick, ten sequential requests, each on a fresh connection as the
/// server closes them, finish in well under one tick; and SIGTERM still
/// ends the wait and drains.
#[test]
fn connections_wake_the_accept_loop_before_its_tick() {
    let (child, addr) = start_server(&["--accept-tick-ms", "2000"]);
    wait_ready(&addr);

    let started = Instant::now();
    let (status, _, _) = http(&addr, "GET", "/readyz", "");
    assert_eq!(status, 200);
    let (status, _, body) = http(&addr, "POST", "/session?alg=oaq&alpha=3", "");
    assert_eq!(status, 200, "{body}");
    let id = json_num(&body, "session") as u64;
    for k in 0..7 {
        let job = format!(
            "{{\"id\": {k}, \"release\": {k}, \"deadline\": {}, \"query_load\": 0.2, \
             \"upper_bound\": 2.0, \"exact\": 0.3}}",
            k + 3
        );
        let (status, _, body) = http(&addr, "POST", &format!("/session/{id}/arrive"), &job);
        assert_eq!(status, 200, "{body}");
    }
    let (status, _, body) = http(&addr, "POST", &format!("/session/{id}/finish"), "");
    assert_eq!(status, 200, "{body}");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "ten requests took {elapsed:?}: connections waited for the 2 s tick"
    );

    let signalled = Instant::now();
    sigterm(&child);
    assert_eq!(wait_exit(child), Some(0), "signalled drain must exit 0");
    // Linux hands a process-wide signal to the main thread, which runs
    // the accept loop and blocks no signal, so the signal interrupts
    // its `poll` and the drain starts at once. Elsewhere the loop sees
    // the flag within a tick.
    if cfg!(target_os = "linux") {
        let drained = signalled.elapsed();
        assert!(
            drained < Duration::from_secs(1),
            "drain took {drained:?}: SIGTERM did not end the accept wait"
        );
    }
}

/// Reaping runs once per tick even when every wake of the accept loop
/// is a connection: a session nobody touches is reaped past the request
/// deadline while probes arrive faster than the tick.
#[test]
fn idle_sessions_are_reaped_while_traffic_keeps_the_loop_busy() {
    let (child, addr) = start_server(&["--request-timeout-ms", "300", "--accept-tick-ms", "50"]);
    wait_ready(&addr);

    let (status, _, body) = http(&addr, "POST", "/session?alg=avrq", "");
    assert_eq!(status, 200, "{body}");
    let until = Instant::now() + Duration::from_secs(1);
    while Instant::now() < until {
        let (status, _, _) = http(&addr, "GET", "/readyz", "");
        assert_eq!(status, 200);
        std::thread::sleep(Duration::from_millis(10));
    }

    let (status, _, health) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{health}");
    let parsed = qbss_telemetry::json_parse(&health)
        .unwrap_or_else(|e| panic!("unparseable /healthz ({e}): {health}"));
    let count = |field: &str| {
        parsed
            .get("sessions")
            .and_then(|s| s.get(field))
            .and_then(qbss_telemetry::JsonValue::as_f64)
            .unwrap_or_else(|| panic!("no sessions.{field} in {health}"))
    };
    assert!(count("reaped") >= 1.0, "the idle session was never reaped: {health}");
    assert_eq!(count("open"), 0.0, "{health}");

    sigterm(&child);
    assert_eq!(wait_exit(child), Some(0));
}
