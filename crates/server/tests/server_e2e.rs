//! End-to-end tests over real TCP: a server on an ephemeral port, real
//! clients, hostile bytes, quota isolation, and checkpoint/recovery.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qsketch_core::codec::SketchSerialize;
use qsketch_core::flatwire::SketchView;
use qsketch_core::sketch::{MergeableSketch, SketchFactory};
use qsketch_kll::KllSketch;
use qsketch_server::client::{Client, ClientError};
use qsketch_server::config::{Serve, SketchSpec, SERVER_SKETCH_SEED};
use qsketch_server::protocol::{ErrorCode, RequestView, Response, MAX_FRAME};
use qsketch_server::server::{spawn_core, Server, ServerCore};
use qsketch_streamsim::checkpoint::CheckpointConfig;
use qsketch_streamsim::keyed_engine::{KeyedEngineConfig, TenantQuota};

fn kll_factory() -> impl Fn() -> KllSketch + Clone + Send {
    || KllSketch::with_seed(200, SERVER_SKETCH_SEED)
}

fn start(config: KeyedEngineConfig, recover: bool) -> (Server, Arc<ServerCore<KllSketch>>) {
    let core = Arc::new(spawn_core(config, kll_factory(), recover).unwrap());
    let server = Server::start("127.0.0.1:0", Arc::clone(&core)).unwrap();
    (server, core)
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qsketch-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn full_session_over_tcp() {
    let (server, _core) = start(KeyedEngineConfig::new(2), false);
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.hello().unwrap(), qsketch_server::protocol::PROTOCOL_VERSION);
    client.ping().unwrap();

    let values: Vec<f64> = (1..=5_000).map(f64::from).collect();
    assert_eq!(client.ingest("acme", "api.latency", &values).unwrap(), 5_000);
    assert_eq!(client.ingest("acme", "db.latency", &values).unwrap(), 5_000);
    client.flush().unwrap();

    let (estimates, count) = client.query("acme", "api.latency", &[0.5, 0.99]).unwrap();
    assert_eq!(count, 5_000);
    assert!((estimates[0] - 2_500.0).abs() <= 100.0, "{estimates:?}");

    let (grid, count) = client.cdf("acme", "api.latency", 20).unwrap();
    assert_eq!(count, 5_000);
    assert_eq!(grid.len(), 20);
    assert!(grid.windows(2).all(|w| w[0].1 <= w[1].1));

    let (_, merged_count, merged_keys) =
        client.merged_query("acme", "", &[0.5]).unwrap();
    assert_eq!(merged_count, 10_000);
    assert_eq!(merged_keys, 2);

    let stats = client.stats().unwrap();
    assert_eq!(stats.events, 10_000);
    assert_eq!(stats.keys, 2);

    // A second concurrent connection sees the same data.
    let mut other = Client::connect(&addr).unwrap();
    let (_, count) = other.query("acme", "db.latency", &[0.5]).unwrap();
    assert_eq!(count, 5_000);

    drop(server); // Drop = request_shutdown + join.
}

#[test]
fn shutdown_op_stops_the_server() {
    let (server, _core) = start(KeyedEngineConfig::new(1), false);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.ingest("t", "k", &[1.0, 2.0]).unwrap();
    client.shutdown().unwrap();
    server.join();
    // New connections are refused or die immediately.
    let refused = match Client::connect_timeout(&addr, Duration::from_millis(500)) {
        Err(_) => true,
        Ok(mut c) => c.ping().is_err(),
    };
    assert!(refused, "server still answering after shutdown");
}

#[test]
fn hostile_bytes_get_typed_errors_and_do_not_kill_the_server() {
    let (server, _core) = start(KeyedEngineConfig::new(1), false);
    let addr = server.local_addr();

    // 1. A syntactically valid frame holding garbage: BadRequest, and
    //    the same connection keeps working afterwards.
    let mut raw = TcpStream::connect(addr).unwrap();
    let garbage = [0xDEu8, 0xAD, 0xBE, 0xEF, 0x00];
    raw.write_all(&(garbage.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&garbage).unwrap();
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    raw.read_exact(&mut payload).unwrap();
    match Response::decode(&payload).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("{other:?}"),
    }
    let ping = RequestView::Ping.encode();
    raw.write_all(&(ping.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&ping).unwrap();
    raw.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    raw.read_exact(&mut payload).unwrap();
    assert_eq!(Response::decode(&payload).unwrap(), Response::Pong);

    // 2. An oversized frame header: error response, then disconnect —
    //    but the server survives.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&((MAX_FRAME as u32) + 1).to_le_bytes()).unwrap();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).unwrap(); // server answers then closes
    assert!(buf.len() > 4, "expected an error frame before close");

    // 3. A truncated frame (client dies mid-frame): server just drops it.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&100u32.to_le_bytes()).unwrap();
    raw.write_all(&[1, 2, 3]).unwrap();
    drop(raw);

    // The server is still healthy.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    drop(server);
}

#[test]
fn noisy_tenant_is_rejected_while_quiet_tenant_stays_fast() {
    let mut config = KeyedEngineConfig::new(2);
    config
        .quotas
        .push(("noisy".into(), TenantQuota::per_sec(5_000.0)));
    let (server, _core) = start(config, false);
    let addr = server.local_addr().to_string();

    let mut noisy = Client::connect(&addr).unwrap();
    let mut quiet = Client::connect(&addr).unwrap();

    // The noisy tenant tries to push 100k values instantly; its quota
    // (5k/s, 5k burst) rejects most batches with a retry hint.
    let batch = vec![1.0f64; 1_000];
    let mut rejected = 0u32;
    let mut retry_hint = 0u64;
    for _ in 0..100 {
        match noisy.ingest("noisy", "spam", &batch) {
            Ok(_) => {}
            Err(ClientError::Server {
                code: ErrorCode::QuotaExceeded,
                retry_after_ms,
                ..
            }) => {
                rejected += 1;
                retry_hint = retry_hint.max(retry_after_ms);
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(rejected >= 90, "only {rejected}/100 rejected");
    assert!(retry_hint > 0);

    // Meanwhile the quiet tenant's ingests all succeed, and stay fast:
    // rejection happens before the queues, so the noisy tenant cannot
    // inflate the quiet tenant's ingest latency.
    let mut worst = Duration::ZERO;
    for i in 0..200 {
        let start = Instant::now();
        quiet.ingest("quiet", "k", &[f64::from(i)]).unwrap();
        worst = worst.max(start.elapsed());
    }
    assert!(
        worst < Duration::from_millis(250),
        "quiet tenant p100 ingest latency {worst:?}"
    );
    quiet.flush().unwrap();
    let (_, count) = quiet.query("quiet", "k", &[0.5]).unwrap();
    assert_eq!(count, 200);

    let stats = quiet.stats().unwrap();
    assert_eq!(stats.quota_rejected, u64::from(rejected));
    assert_eq!(stats.rejected_by_tenant, vec![("noisy".to_string(), u64::from(rejected))]);
    drop(server);
}

/// One checkpoint → kill → recover round trip, served with the factory
/// the binary mints for `--sketch` (the spec text names the temp dir).
struct RecoverRoundTrip(&'static str);

impl Serve for RecoverRoundTrip {
    type Output = ();

    fn serve<S, F>(self, factory: F)
    where
        S: MergeableSketch + SketchSerialize + SketchView + Clone + Send + Sync + 'static,
        F: SketchFactory<Sketch = S> + Clone + Send + 'static,
    {
        let spec = self.0;
        let dir = tmp_dir(&format!("recover-{}", spec.replace([':', '.'], "-")));
        let mut config = KeyedEngineConfig::new(3);
        config.checkpoint = Some(CheckpointConfig::new(&dir, 1 << 20));
        let start = |recover| {
            let core = spawn_core(config.clone(), factory.clone(), recover).unwrap();
            Server::start("127.0.0.1:0", Arc::new(core)).unwrap()
        };

        // First life: ingest, checkpoint, remember bit-exact answers.
        let server = start(false);
        let mut client = Client::connect(server.local_addr()).unwrap();
        for key in ["a", "b", "c", "d"] {
            let values: Vec<f64> = (0..3_000)
                .map(|i| ((i * 2_654_435_761_u64 % 100_000) as f64) / 7.0)
                .collect();
            client.ingest("acme", key, &values).unwrap();
        }
        client.checkpoint().unwrap();
        let qs = [0.01, 0.25, 0.5, 0.75, 0.99, 1.0];
        let mut expected = Vec::new();
        for key in ["a", "b", "c", "d"] {
            let (values, count) = client.query("acme", key, &qs).unwrap();
            assert_eq!(count, 3_000, "{spec}");
            expected.push(values.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
        let (merged, count, merged_keys) = client.merged_query("acme", "", &[0.5]).unwrap();
        assert_eq!((count, merged_keys), (12_000, 4), "{spec}");
        client.shutdown().unwrap();
        server.join();

        // Second life: recover from the checkpoints, same answers, bit for
        // bit — including the merged query.
        let server = start(true);
        let mut client = Client::connect(server.local_addr()).unwrap();
        for (i, key) in ["a", "b", "c", "d"].iter().enumerate() {
            let (values, count) = client.query("acme", key, &qs).unwrap();
            assert_eq!(count, 3_000, "{spec} key {key}");
            let got: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expected[i], "{spec} key {key}");
        }
        let (got, count, merged_keys) = client.merged_query("acme", "", &[0.5]).unwrap();
        assert_eq!((count, merged_keys), (12_000, 4), "{spec}");
        assert_eq!(got[0].to_bits(), merged[0].to_bits(), "{spec} merged");

        // And the recovered server keeps accepting new data.
        client.ingest("acme", "a", &[1.0]).unwrap();
        client.flush().unwrap();
        let (_, count) = client.query("acme", "a", &[0.5]).unwrap();
        assert_eq!(count, 3_001, "{spec}");
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn checkpoint_recover_answers_bit_identically() {
    for spec in ["req", "kll:200", "udds", "dds", "moments"] {
        let parsed: SketchSpec = spec.parse().unwrap();
        parsed.serve(RecoverRoundTrip(spec)).unwrap();
    }
}
