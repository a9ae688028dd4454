//! Acceptance tests for the layered server: binary frame negotiation,
//! shard-count invariance, cache persistence across restarts, the
//! connection limit, and compressed orderings — all over real loopback
//! sockets.

use se_service::json::Json;
use se_service::proto::{MatrixFormat, MatrixSource, OrderRequest};
use se_service::{serve, Client, Config, FrameMode};
use sparsemat::io::write_chaco_string;
use sparsemat::pattern::SymmetricPattern;
use std::io::{BufRead, BufReader, Write};

fn chaco_request(g: &SymmetricPattern, alg: se_order::Algorithm) -> OrderRequest {
    OrderRequest {
        alg,
        source: MatrixSource::Inline {
            format: MatrixFormat::Chaco,
            payload: write_chaco_string(g),
        },
        timeout_ms: None,
        include_perm: true,
        threads: None,
        compressed: false,
        trace: false,
        id: None,
        progress: false,
        hop: false,
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("se-frames-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The central guarantee: bit-identical responses over NDJSON and binary
/// framing, computed and cache hit alike, with every permutation equal to
/// the in-process library's on the same graph. Each mode gets its own
/// server so both see the computed response first and the hit second.
#[test]
fn binary_and_ndjson_responses_are_bit_identical() {
    let nd_server = serve(Config::default()).expect("bind");
    let bi_server = serve(Config::default()).expect("bind");

    let mut ndjson = Client::connect(nd_server.local_addr()).unwrap();
    let mut binary = Client::connect(bi_server.local_addr()).unwrap();
    assert_eq!(binary.hello(FrameMode::Binary).unwrap(), FrameMode::Binary);
    assert_eq!(binary.frame_mode(), FrameMode::Binary);

    for g in [meshgen::grid2d(11, 9), meshgen::annulus_tri(8, 30, 0xF00)] {
        for alg in [se_order::Algorithm::Rcm, se_order::Algorithm::Spectral] {
            let reference = se_order::order(&g, alg).unwrap();
            for hit in [false, true] {
                let a = ndjson.order(chaco_request(&g, alg)).unwrap();
                let b = binary.order(chaco_request(&g, alg)).unwrap();
                assert_eq!(a.cache_hit, hit, "{alg:?}: ndjson cache_hit");
                assert_eq!(b.cache_hit, hit, "{alg:?}: binary cache_hit");
                assert_eq!(
                    a.perm.as_ref().unwrap().order(),
                    reference.perm.order(),
                    "{alg:?} hit={hit}: the service must return the library's permutation"
                );
                assert_eq!(
                    a.perm.as_ref().unwrap().order(),
                    b.perm.as_ref().unwrap().order(),
                    "{alg:?} hit={hit}: permutations must be bit-identical across frame modes"
                );
                assert_eq!(a.stats, reference.stats);
                assert_eq!(a.stats, b.stats);
                assert_eq!((&a.alg, a.n, a.nnz), (&b.alg, b.n, b.nnz));
                assert_eq!(a.compression_ratio, b.compression_ratio);
                assert_eq!(a.degraded, None);
                assert_eq!(b.degraded, None);
            }
        }
    }

    // Batches carry one frame per ok slot, in order.
    let reqs: Vec<OrderRequest> = (4..8)
        .map(|i| chaco_request(&meshgen::grid2d(i, 5), se_order::Algorithm::Rcm))
        .collect();
    let nd = ndjson.order_batch(reqs.clone()).unwrap();
    let bi = binary.order_batch(reqs).unwrap();
    assert_eq!(nd.len(), bi.len());
    for (a, b) in nd.iter().zip(&bi) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(
            a.perm.as_ref().unwrap().order(),
            b.perm.as_ref().unwrap().order()
        );
    }

    for server in [nd_server, bi_server] {
        Client::connect(server.local_addr())
            .unwrap()
            .shutdown()
            .unwrap();
        server.join();
    }
}

/// Looks under the client abstraction: after HELLO the response line really
/// does carry a `perm_frame` marker (no JSON perm array) and the bytes that
/// follow are a valid frame.
#[test]
fn binary_mode_puts_a_frame_marker_on_the_wire() {
    let handle = serve(Config::default()).expect("bind");
    let addr = handle.local_addr();
    let g = meshgen::grid2d(7, 7);

    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    writeln!(writer, r#"{{"cmd":"HELLO","frames":"binary"}}"#).unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""hello":true"#), "got: {line}");

    let req = se_service::proto::encode_request(&se_service::proto::Request::Order(chaco_request(
        &g,
        se_order::Algorithm::Rcm,
    )));
    writeln!(writer, "{req}").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""perm_frame":true"#), "got: {line}");
    assert!(!line.contains(r#""perm":["#), "got: {line}");
    let perm = se_service::frame::read_perm_frame(&mut reader).expect("a valid frame follows");
    assert_eq!(perm.len(), g.n());

    let mut control = Client::connect(addr).unwrap();
    control.shutdown().unwrap();
    handle.join();
}

/// Shard count is an implementation detail: 1, 2 and 8 shards must produce
/// identical responses (and all serve the repeat request from cache).
#[test]
fn responses_are_invariant_across_shard_counts() {
    let g = meshgen::annulus_tri(6, 30, 0xACE);
    let mut baseline: Option<(Vec<usize>, sparsemat::envelope::EnvelopeStats)> = None;
    for shards in [1usize, 2, 8] {
        let handle = serve(Config {
            cache_shards: shards,
            ..Config::default()
        })
        .expect("bind");
        let mut client = Client::connect(handle.local_addr()).unwrap();
        let first = client
            .order(chaco_request(&g, se_order::Algorithm::Spectral))
            .unwrap();
        let second = client
            .order(chaco_request(&g, se_order::Algorithm::Spectral))
            .unwrap();
        assert!(!first.cache_hit);
        assert!(second.cache_hit, "{shards} shards: repeat must hit");
        assert_eq!(second.perm, first.perm);
        let perm = first.perm.as_ref().unwrap().order().to_vec();
        match &baseline {
            None => baseline = Some((perm, first.stats)),
            Some((p, s)) => {
                assert_eq!(&perm, p, "{shards} shards changed the permutation");
                assert_eq!(&first.stats, s);
            }
        }
        client.shutdown().unwrap();
        handle.join();
    }
}

/// Restart test: a server with a cache directory computes once; a brand-new
/// server over the same directory serves the same request as a hit without
/// recomputing — asserted via STATS (one hit, zero misses).
#[test]
fn persisted_cache_survives_a_restart() {
    let dir = temp_dir("restart");
    let g = meshgen::grid2d(13, 8);
    let req = || chaco_request(&g, se_order::Algorithm::Rcm);
    let cfg = || Config {
        cache_dir: Some(dir.clone()),
        ..Config::default()
    };

    let first = {
        let handle = serve(cfg()).expect("bind");
        let mut client = Client::connect(handle.local_addr()).unwrap();
        let r = client.order(req()).unwrap();
        assert!(!r.cache_hit);
        client.shutdown().unwrap();
        handle.join();
        r
    };
    assert!(
        std::fs::read_dir(&dir).unwrap().count() >= 1,
        "the insert must spill to disk"
    );

    // A fresh process (modeled by a fresh server) over the same directory.
    let handle = serve(cfg()).expect("bind");
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let again = client.order(req()).unwrap();
    assert!(again.cache_hit, "the reloaded cache must serve the hit");
    assert_eq!(again.perm, first.perm);
    assert_eq!(again.stats, first.stats);

    let stats = client.stats().unwrap();
    assert_eq!(stats.get("cache_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("cache_misses").and_then(Json::as_u64), Some(0));
    let cache = stats.get("cache").expect("cache object");
    assert_eq!(cache.get("persistent"), Some(&Json::Bool(true)));
    let shard_hits: u64 = match cache.get("shards") {
        Some(Json::Arr(shards)) => shards
            .iter()
            .filter_map(|s| s.get("hits").and_then(Json::as_u64))
            .sum(),
        other => panic!("expected a shards array, got {other:?}"),
    };
    assert_eq!(shard_hits, 1);

    client.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Connections beyond `max_conns` get one retriable `server busy` line;
/// capacity freed by a disconnect is reusable.
#[test]
fn connection_limit_rejects_excess_clients() {
    let handle = serve(Config {
        max_conns: 2,
        ..Config::default()
    })
    .expect("bind");
    let addr = handle.local_addr();

    let mut a = Client::connect(addr).unwrap();
    let b = Client::connect(addr).unwrap();
    // Make sure both connections are actually registered before the third.
    a.stats().unwrap();

    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match se_service::proto::decode_response(line.trim()).unwrap() {
        se_service::proto::Response::Error(e) => {
            assert!(e.retriable, "busy must be retriable: {}", e.error);
            assert!(e.error.contains("busy"), "got: {}", e.error);
        }
        other => panic!("expected the busy error, got {other:?}"),
    }
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "the server closes a rejected connection"
    );

    let stats = a.stats().unwrap();
    assert_eq!(stats.get("busy_rejections").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("connections").and_then(Json::as_u64), Some(2));

    // Freeing a slot admits a new client.
    drop(b);
    std::thread::sleep(std::time::Duration::from_millis(100));
    let mut c = Client::connect(addr).unwrap();
    c.stats().unwrap();

    a.shutdown().unwrap();
    handle.join();
}

/// `"compressed":true` routes through supervariable compression: the ratio
/// comes back, the result matches the library facade bit-for-bit, and the
/// compressed/uncompressed results occupy distinct cache entries.
#[test]
fn compressed_orders_report_ratio_and_cache_separately() {
    let handle = serve(Config::default()).expect("bind");
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // A 3-DOF structural pattern: compression finds ratio 3.
    let base = meshgen::grid2d(9, 6);
    let g = meshgen::block_expand(&base, 3);
    let mut req = chaco_request(&g, se_order::Algorithm::Rcm);
    req.compressed = true;

    let compressed = client.order(req.clone()).unwrap();
    assert!(!compressed.cache_hit);
    let ratio = compressed.compression_ratio.expect("ratio must be present");
    assert!((ratio - 3.0).abs() < 1e-9, "ratio {ratio}");
    let (expect, expect_ratio) = se_order::order_compressed(&g, se_order::Algorithm::Rcm).unwrap();
    assert_eq!(
        compressed.perm.as_ref().unwrap().order(),
        expect.perm.order()
    );
    assert_eq!(compressed.stats, expect.stats);
    assert_eq!(ratio, expect_ratio);

    // The plain ordering is a different cache key, and reports no ratio.
    let plain = client
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert!(
        !plain.cache_hit,
        "compressed and plain must not share a key"
    );
    assert_eq!(plain.compression_ratio, None);

    // Repeating the compressed request hits its own entry, ratio intact.
    let again = client.order(req).unwrap();
    assert!(again.cache_hit);
    assert_eq!(again.compression_ratio, Some(ratio));
    assert_eq!(again.perm, compressed.perm);

    client.shutdown().unwrap();
    handle.join();
}
