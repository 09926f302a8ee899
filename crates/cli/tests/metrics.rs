//! Live metrics endpoint integration: the no-socket-when-disabled
//! guarantee, and snapshot consistency while a trainer mutates the
//! registry concurrently.
//!
//! Both phases live in one test because the first asserts a
//! process-global zero (`live_server_count`) that the second violates on
//! purpose — running them in parallel threads would race. For the same
//! reason every test here that starts an exporter holds [`EXPORTER`].

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use univsa::{TrainOptions, UniVsaConfig, UniVsaTrainer};

/// Serialises the tests that start an exporter: the process-global
/// `live_server_count` must only ever see one test's server.
static EXPORTER: Mutex<()> = Mutex::new(());

/// Takes [`EXPORTER`]; a sibling test that panicked while holding it has
/// already shut its server down (the guard drops after the server).
fn exporter_lock() -> MutexGuard<'static, ()> {
    EXPORTER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Minimal blocking HTTP GET, returning the response body.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("header separator");
    assert!(head.contains(" 200 "), "{head}");
    body.to_string()
}

#[test]
fn disabled_means_no_socket_and_live_endpoint_stays_consistent_under_fit() {
    let _exporter = exporter_lock();
    // phase 1 — UNIVSA_METRICS_ADDR unset: no exporter is created, no
    // thread spawned, no socket opened
    assert!(
        std::env::var(univsa_telemetry::METRICS_ENV_VAR).is_err(),
        "this test requires {} to be unset",
        univsa_telemetry::METRICS_ENV_VAR
    );
    assert!(univsa_telemetry::exporter_from_env().unwrap().is_none());
    assert_eq!(univsa_telemetry::live_server_count(), 0);

    // phase 2 — a live endpoint serving while a trainer writes spans and
    // counters into the same registry from another thread
    let server = univsa_telemetry::start_exporter("127.0.0.1:0").unwrap();
    assert_eq!(univsa_telemetry::live_server_count(), 1);
    let addr = server.local_addr();

    let done = Arc::new(AtomicBool::new(false));
    let writer_done = Arc::clone(&done);
    let writer = std::thread::spawn(move || {
        let task = univsa_data::tasks::by_name("bci3v", 7).expect("built-in task");
        let (d_h, d_l, d_k, o, theta) =
            univsa_data::tasks::paper_config_tuple("BCI-III-V").expect("paper config");
        let cfg = UniVsaConfig::for_task(&task.spec)
            .d_h(d_h)
            .d_l(d_l)
            .d_k(d_k)
            .out_channels(o)
            .voters(theta)
            .build()
            .expect("config");
        let trainer = UniVsaTrainer::new(
            cfg,
            TrainOptions {
                epochs: 1,
                ..TrainOptions::default()
            },
        );
        trainer.fit(&task.train, 7).expect("fit");
        writer_done.store(true, Ordering::SeqCst);
    });

    // poll /metrics the whole time the writer runs (and once after):
    // every exposition must be internally consistent — each span's +Inf
    // bucket equals its _count, because the snapshot is taken under one
    // registry lock — and totals must never go backwards
    let mut last_total = 0.0f64;
    let mut final_poll_done = false;
    while !final_poll_done {
        if done.load(Ordering::SeqCst) {
            final_poll_done = true;
        }
        let body = http_get(addr, "/metrics");
        let samples = univsa_telemetry::prometheus::parse_text(&body).expect("valid exposition");
        let mut total = 0.0f64;
        for count in samples
            .iter()
            .filter(|s| s.name == "univsa_latency_ns_count")
        {
            let span = count.label("span").expect("span label");
            let inf = samples
                .iter()
                .find(|s| {
                    s.name == "univsa_latency_ns_bucket"
                        && s.label("span") == Some(span)
                        && s.label("le") == Some("+Inf")
                })
                .unwrap_or_else(|| panic!("no +Inf bucket for span {span:?}"));
            assert_eq!(
                inf.value, count.value,
                "span {span:?}: +Inf bucket diverged from _count mid-run"
            );
            total += count.value;
        }
        assert!(
            total >= last_total,
            "span totals went backwards: {total} < {last_total}"
        );
        last_total = total;
        std::thread::sleep(Duration::from_millis(10));
    }
    writer.join().expect("writer thread");
    assert!(last_total > 0.0, "no spans ever reached the endpoint");

    server.shutdown();
    assert_eq!(univsa_telemetry::live_server_count(), 0);
}

/// A `Write` sink a test can watch from another thread.
#[derive(Clone, Default)]
struct SharedSink(Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn top_losing_a_live_endpoint_mid_poll_is_a_typed_connection_lost() {
    let _exporter = exporter_lock();
    let server = univsa_telemetry::start_exporter("127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    let sink = SharedSink::default();
    let mut top_out = sink.clone();
    let top = std::thread::spawn(move || {
        let err = univsa_cli::run(
            univsa_cli::Command::Top {
                addr,
                interval_ms: 10,
                refreshes: None,
            },
            &mut top_out,
        )
        .expect_err("top must fail once the endpoint goes away");
        let connection_lost = matches!(
            err.downcast_ref::<univsa::UniVsaError>(),
            Some(univsa::UniVsaError::ConnectionLost(_))
        );
        (connection_lost, err.to_string())
    });

    // wait until top has rendered at least one frame, so the poll that
    // fails is a *subsequent* one, then pull the endpoint out from under it
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while sink.0.lock().unwrap().is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "top never rendered a frame"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();

    let (connection_lost, message) = top.join().expect("top thread");
    assert!(connection_lost, "wrong error type: {message}");
    assert!(message.contains("connection lost"), "{message}");
    assert!(message.contains("frame"), "{message}");
}
