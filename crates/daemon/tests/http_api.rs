//! End-to-end HTTP API test: a `serve --listen` daemon is driven purely
//! through `ftsimd --remote <addr>` — submit, jobs, status, streamed
//! results, report and stop all travel over the socket. The client
//! processes run in an empty scratch directory that must stay empty:
//! remote verbs touch no state directory at all.

use ftsim::harness::{from_csv_tolerant, to_csv};
use ftsim_daemon::JobSpec;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One family, four cells — the CI smoke grid.
const SPEC: &str = r#"
name = "http-e2e"
workloads = ["gcc"]
models = ["SS-2"]
fault_rates = [0.0, 5000.0]
seeds = [3, 4]
budgets = [2000]
oracle = "final"
checkpointing = true
"#;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftsimd-http-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs a remote ftsimd verb from inside `cwd` (kept empty to prove the
/// client needs no filesystem state), returning (exit_ok, stdout).
fn remote(cwd: &Path, addr: &str, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ftsimd"))
        .args(args)
        .args(["--remote", addr])
        .current_dir(cwd)
        .output()
        .expect("spawn ftsimd");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

fn remote_ok(cwd: &Path, addr: &str, args: &[&str]) -> String {
    let (ok, stdout) = remote(cwd, addr, args);
    assert!(ok, "ftsimd --remote {args:?} failed");
    stdout
}

/// Runs an ftsimd verb against a local state directory (`local` is
/// `["--state", DIR]`), asserting success, and returns its stdout.
fn local_ok(args: &[&str], local: [&str; 2]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ftsimd"))
        .args(args)
        .args(local)
        .output()
        .expect("spawn ftsimd");
    assert!(out.status.success(), "ftsimd {args:?} {local:?} failed");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// One raw HTTP exchange, returning the response status.
fn http(addr: &str, method: &str, path: &str, body: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("daemon still accepting");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    reply.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn all_verbs_work_over_http_with_no_client_filesystem_state() {
    let state = tmp("state");
    let scratch = tmp("scratch");
    let spec_path = state.join("job.toml");
    std::fs::write(&spec_path, SPEC).unwrap();

    // Serve with the HTTP API on an ephemeral port; the bound address
    // is advertised in <state>/http.addr.
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_ftsimd"))
        .args(["serve", "--state", state.to_str().unwrap()])
        .args(["--listen", "127.0.0.1:0"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serving daemon");
    let addr_path = state.join("http.addr");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&addr_path) {
            break addr.trim().to_string();
        }
        assert!(
            Instant::now() < deadline,
            "daemon never advertised http.addr"
        );
        std::thread::sleep(Duration::from_millis(25));
    };

    // submit — the server validates the spec; the client only reads it.
    let job_id = remote_ok(&scratch, &addr, &["submit", spec_path.to_str().unwrap()])
        .trim()
        .to_string();
    assert!(job_id.ends_with("-http-e2e"), "unexpected id `{job_id}`");
    // Re-submitting attaches instead of duplicating — over HTTP too.
    let again = remote_ok(&scratch, &addr, &["submit", spec_path.to_str().unwrap()]);
    assert_eq!(again.trim(), job_id);

    // jobs and status see it.
    let listing = remote_ok(&scratch, &addr, &["jobs"]);
    assert!(listing.contains(&job_id), "jobs listing:\n{listing}");
    let status = remote_ok(&scratch, &addr, &["status", &job_id]);
    assert!(status.contains("cells:"), "remote status:\n{status}");
    let (ok, _) = remote(&scratch, &addr, &["status", "0099-no-such-job"]);
    assert!(!ok, "a bad job id must fail loudly");

    // results --watch streams rows over the socket until the job is
    // done (the daemon is executing it concurrently).
    let watched = remote_ok(
        &scratch,
        &addr,
        &["results", &job_id, "--watch", "--interval", "100"],
    );
    let (rows, _) = from_csv_tolerant(&watched);
    assert_eq!(rows.len(), 4, "watch streamed the full grid:\n{watched}");

    // results — byte-identical to the one-shot grid.
    let expected = {
        let records = JobSpec::parse(SPEC)
            .unwrap()
            .to_experiment()
            .unwrap()
            .run()
            .unwrap();
        to_csv(&records)
    };
    let from_remote = remote_ok(&scratch, &addr, &["results", &job_id]);
    assert_eq!(from_remote, expected, "remote results differ from one-shot");
    let json = remote_ok(&scratch, &addr, &["results", &job_id, "--json"]);
    assert!(json.trim_start().starts_with('['), "json results:\n{json}");

    // report — text and JSON renderings of the analysis layer.
    let report = remote_ok(&scratch, &addr, &["report", &job_id]);
    assert!(report.contains("outcome"), "text report:\n{report}");
    let report_json = remote_ok(&scratch, &addr, &["report", &job_id, "--json"]);
    assert!(
        report_json.contains("\"outcomes\""),
        "json report:\n{report_json}"
    );

    // One verb layer: the same verbs run in process against the state
    // directory print the same bytes.
    let local = ["--state", state.to_str().unwrap()];
    for args in [
        vec!["jobs"],
        vec!["status"],
        vec!["status", &job_id],
        vec!["results", &job_id],
        vec!["results", &job_id, "--json"],
        vec!["results", &job_id, "--watch", "--interval", "100"],
        vec!["report", &job_id],
        vec!["report", &job_id, "--json"],
        vec!["report", &job_id, "--watch", "--interval", "100"],
    ] {
        assert_eq!(
            local_ok(&args, local),
            remote_ok(&scratch, &addr, &args),
            "{args:?} differs between --state and --remote"
        );
    }

    // GC drops the done job's cells.csv once results.csv seals it; a
    // remote watch still ends with every record, backfilled from the
    // canonical read.
    local_ok(&["gc"], local);
    assert!(!state.join("jobs").join(&job_id).join("cells.csv").exists());
    let watched = remote_ok(
        &scratch,
        &addr,
        &["results", &job_id, "--watch", "--interval", "100"],
    );
    let (rows, _) = from_csv_tolerant(&watched);
    assert_eq!(rows.len(), 4, "watch backfilled after gc:\n{watched}");

    // A ~40 KB spec nested 40,000 arrays deep is a 400, and the daemon
    // keeps serving: the parser caps nesting instead of overflowing the
    // connection thread's stack.
    let deep = format!("{{\"name\":{}", "[".repeat(40_000));
    assert_eq!(http(&addr, "POST", "/jobs", &deep), 400);
    assert_eq!(http(&addr, "GET", "/healthz", ""), 200);

    // stop <job> pauses the job; stop shuts the daemon down.
    remote_ok(&scratch, &addr, &["stop", &job_id]);
    assert!(
        state.join("jobs").join(&job_id).join("stop").exists(),
        "per-job stop sentinel written server-side"
    );
    remote_ok(&scratch, &addr, &["stop"]);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match daemon.try_wait().expect("poll daemon") {
            Some(exit) => {
                assert!(exit.success(), "remote stop exits the daemon cleanly");
                break;
            }
            None => {
                assert!(Instant::now() < deadline, "daemon ignored remote stop");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }

    // The client processes ran with no state directory: their scratch
    // working directory is exactly as empty as it started.
    let leftovers: Vec<_> = std::fs::read_dir(&scratch)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(
        leftovers.is_empty(),
        "remote verbs touched the filesystem: {leftovers:?}"
    );

    std::fs::remove_dir_all(&state).ok();
    std::fs::remove_dir_all(&scratch).ok();
}
