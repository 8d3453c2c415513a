//! Loopback transport parity: a `ShardedIndex` probed over in-process
//! `ShardNode`s (real TCP, real wire frames) must be bitwise identical
//! to the same composite probed in-process — ids and distance bit
//! patterns — across families, metrics, and shard counts. The wire
//! carries distances as `f32::to_bits`, so any divergence is a protocol
//! bug, not float noise.

use dial_ann::{
    spawn_loopback, AnnIndex, HnswParams, IndexSpec, IvfParams, Knob, Metric, PqParams,
    RemoteShard, ShardHandle, ShardTransport, ShardedIndex, TransportError,
};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn random_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    // Deterministic low-discrepancy filler: parity tests need fixed
    // inputs, not statistical ones.
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..n * dim)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        })
        .collect()
}

/// Ship a freshly built composite to one loopback node per shard.
fn over_loopback(
    spec: &IndexSpec,
    shards: usize,
    data: &[f32],
    dim: usize,
    metric: Metric,
) -> ShardedIndex {
    let endpoints: Vec<Vec<String>> =
        (0..shards).map(|_| vec![spawn_loopback().expect("loopback node").to_string()]).collect();
    ShardedIndex::build(spec, shards, data, dim, metric).ship(&endpoints).expect("ship shards")
}

fn bitwise_eq(a: &[dial_ann::Hit], b: &[dial_ann::Hit], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: hit count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.id, y.id, "{ctx}: id at rank {i}");
        assert_eq!(x.distance.to_bits(), y.distance.to_bits(), "{ctx}: distance bits at rank {i}");
    }
}

#[test]
fn loopback_matches_local_across_families_metrics_and_shard_counts() {
    let dim = 8;
    let data = random_data(120, dim, 7);
    let specs: Vec<(&str, IndexSpec)> = vec![
        ("flat", IndexSpec::Flat),
        ("ivf", IndexSpec::IvfFlat(IvfParams { nlist: 6, nprobe: 3, ..Default::default() })),
        ("pq", IndexSpec::Pq(PqParams { m: 4, nbits: 4, seed: 0 })),
        ("hnsw", IndexSpec::Hnsw(HnswParams::default())),
    ];
    for metric in [Metric::L2, Metric::Cosine] {
        for (name, spec) in &specs {
            for shards in [1usize, 3] {
                let local = ShardedIndex::build(spec, shards, &data, dim, metric);
                let remote = over_loopback(spec, shards, &data, dim, metric);
                assert_eq!(remote.len(), local.len());
                let ctx = format!("{name}/{metric:?}/shards={shards}");
                for qi in [0usize, 17, 119] {
                    let q = &data[qi * dim..(qi + 1) * dim];
                    bitwise_eq(
                        &remote.try_search(q, 9).expect("remote search"),
                        &local.search(q, 9),
                        &format!("{ctx} qi={qi}"),
                    );
                }
                let lb = remote.try_search_batch(&data[0..7 * dim], 5).expect("remote batch");
                let ll = local.search_batch(&data[0..7 * dim], 5);
                for (qi, (r, l)) in lb.iter().zip(&ll).enumerate() {
                    bitwise_eq(r, l, &format!("{ctx} batch qi={qi}"));
                }
            }
        }
    }
}

#[test]
fn loopback_add_batch_keeps_round_robin_parity() {
    let dim = 5;
    let base = random_data(31, dim, 11);
    let extra = random_data(12, dim, 12);
    for shards in [2usize, 4] {
        let mut local = ShardedIndex::build(&IndexSpec::Flat, shards, &base, dim, Metric::L2);
        let mut remote = over_loopback(&IndexSpec::Flat, shards, &base, dim, Metric::L2);
        local.add_batch(&extra);
        remote.try_add_batch(&extra).expect("remote add_batch");
        assert_eq!(remote.len(), 43);
        for qi in [0usize, 30, 42] {
            let mut all = base.clone();
            all.extend_from_slice(&extra);
            let q = &all[qi * dim..(qi + 1) * dim];
            bitwise_eq(
                &remote.try_search(q, 8).expect("remote search"),
                &local.search(q, 8),
                &format!("shards={shards} qi={qi}"),
            );
        }
    }
}

#[test]
fn loopback_knob_retunes_propagate_to_every_node() {
    let dim = 6;
    let data = random_data(96, dim, 13);
    let ivf = IndexSpec::IvfFlat(IvfParams { nlist: 8, nprobe: 2, ..Default::default() });
    let mut local = ShardedIndex::build(&ivf, 3, &data, dim, Metric::L2);
    let mut remote = over_loopback(&ivf, 3, &data, dim, Metric::L2);
    assert_eq!(remote.knob(Knob::Nprobe), local.knob(Knob::Nprobe));
    assert!(remote.set_knob(Knob::Nprobe, 6));
    assert!(local.set_knob(Knob::Nprobe, 6));
    assert_eq!(remote.knob(Knob::Nprobe), Some((8, 6)));
    // Probe-width retunes change which lists are scanned; parity must
    // hold at the *new* width too.
    for qi in [3usize, 48] {
        let q = &data[qi * dim..(qi + 1) * dim];
        bitwise_eq(
            &remote.try_search(q, 10).expect("remote search"),
            &local.search(q, 10),
            &format!("post-retune qi={qi}"),
        );
    }

    let hnsw = IndexSpec::Hnsw(HnswParams { ef_search: 10, ..Default::default() });
    let mut lh = ShardedIndex::build(&hnsw, 2, &data, dim, Metric::L2);
    let mut rh = over_loopback(&hnsw, 2, &data, dim, Metric::L2);
    assert_eq!(rh.knob(Knob::EfSearch), lh.knob(Knob::EfSearch));
    assert!(rh.set_knob(Knob::EfSearch, 24));
    assert!(lh.set_knob(Knob::EfSearch, 24));
    let q = &data[0..dim];
    bitwise_eq(&rh.try_search(q, 7).expect("remote search"), &lh.search(q, 7), "hnsw post-retune");
}

#[test]
fn loopback_refresh_applies_in_place() {
    let dim = 4;
    let base = random_data(20, dim, 17);
    let mut local = ShardedIndex::build(&IndexSpec::Flat, 3, &base, dim, Metric::L2);
    let mut remote = over_loopback(&IndexSpec::Flat, 3, &base, dim, Metric::L2);
    let mut new = base.clone();
    // Overwrite two rows and append three.
    for v in &mut new[2 * dim..3 * dim] {
        *v += 0.5;
    }
    for v in &mut new[7 * dim..8 * dim] {
        *v -= 0.25;
    }
    new.extend_from_slice(&random_data(3, dim, 18));
    assert!(local.refresh(&new, &[2, 7]));
    assert!(remote.try_refresh(&new, &[2, 7]).expect("remote refresh"));
    assert_eq!(remote.len(), 23);
    for qi in [2usize, 7, 22] {
        let q = &new[qi * dim..(qi + 1) * dim];
        bitwise_eq(
            &remote.try_search(q, 6).expect("remote search"),
            &local.search(q, 6),
            &format!("post-refresh qi={qi}"),
        );
    }
}

#[test]
fn loopback_snapshot_round_trips_through_the_node() {
    // SNAPSHOT must return exactly what INSTALL shipped: save the
    // remote composite (which fetches every shard's blob over the
    // wire), reload it locally, and compare probes bitwise.
    let dim = 4;
    let data = random_data(30, dim, 19);
    let remote = over_loopback(&IndexSpec::Flat, 2, &data, dim, Metric::L2);
    let path = std::env::temp_dir().join(format!("dial_loopback_snap_{}.snap", std::process::id()));
    remote.save_snapshot(&path).expect("save remote composite");
    let reloaded = dial_ann::load_index(&path).expect("reload");
    let _ = std::fs::remove_file(&path);
    assert_eq!(reloaded.len(), remote.len());
    let q = &data[0..dim];
    bitwise_eq(&reloaded.search(q, 5), &remote.try_search(q, 5).expect("remote"), "reloaded");
}

// ---- fault injection: the protocol must fail typed, never wrong ----

/// A raw TCP server that accepts one connection and slams it shut after
/// reading a few bytes — the mid-search connection drop.
fn spawn_drop_server() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut s) = stream else { break };
            use std::io::Read;
            let mut buf = [0u8; 16];
            let _ = s.read(&mut buf);
            drop(s); // connection dies mid-frame
        }
    });
    addr
}

#[test]
fn dropped_connection_mid_search_is_a_typed_error() {
    // Connect-time drop: the server accepts, then dies mid-handshake.
    let err = RemoteShard::connect(spawn_drop_server().to_string())
        .expect_err("drop server cannot complete the INFO exchange");
    assert!(
        matches!(err, TransportError::Truncated | TransportError::Io(_)),
        "typed transport error, got {err}"
    );

    // Probe-time drop: the handshake succeeds, the search connection is
    // slammed shut mid-frame. Must surface as the typed Truncated, and
    // the client must survive to be retried (re-dial on next call).
    let dim = 3;
    let half = RemoteShard::connect(spawn_info_then_drop_server(dim, 9).to_string())
        .expect("half server answers INFO");
    let query = [0.0f32; 3];
    let err = half.search_batch(&query, 2).expect_err("probe dies mid-frame");
    assert!(
        matches!(err, TransportError::Truncated | TransportError::Io(_)),
        "typed error, got {err}"
    );
}

#[test]
fn dead_replica_fails_over_to_the_live_one() {
    // Shard 0: replica 0 answers the connect handshake, then drops every
    // later connection mid-frame (a node that died between connect and
    // probe); replica 1 is a real loopback node with the index. The
    // composite must answer correctly — via hedge or failover — and the
    // recovery must show up in the counters.
    let dim = 3;
    let data = random_data(12, dim, 29);
    let (family, payload) = {
        let single = IndexSpec::Flat.build(&data, dim, Metric::L2);
        single.snapshot_blob()
    };
    let live_remote =
        RemoteShard::connect(spawn_loopback().expect("node").to_string()).expect("connect live");
    live_remote.install(family, &payload).expect("install");
    let half_addr = spawn_info_then_drop_server(dim, data.len() / dim);
    let half = RemoteShard::connect(half_addr.to_string()).expect("half server answers INFO");
    let handle =
        ShardHandle::new(vec![Arc::new(half) as Arc<dyn ShardTransport>, Arc::new(live_remote)]);
    let mut composite =
        ShardedIndex::from_handles(dim, Metric::L2, dial_ann::RowFormat::F32, vec![handle]);
    composite.set_hedge_delay(Some(Duration::from_millis(1)));

    let flat = IndexSpec::Flat.build(&data, dim, Metric::L2);
    let got = composite.try_search_batch(&data[0..2 * dim], 4).expect("failover to live replica");
    let want = flat.search_batch(&data[0..2 * dim], 4);
    for (qi, (r, l)) in got.iter().zip(&want).enumerate() {
        bitwise_eq(r, l, &format!("failover qi={qi}"));
    }
    let stats = composite.shard_stats();
    assert_eq!(stats.shards[0].errors, 0, "the live replica recovered the probe");
    assert!(
        stats.shards[0].failovers + stats.shards[0].hedges_won >= 1,
        "the live replica must have been engaged: {} failovers, {} hedge wins",
        stats.shards[0].failovers,
        stats.shards[0].hedges_won
    );
}

/// A fake node that answers the INFO handshake honestly, then drops
/// every later connection byte on the floor and closes — the "replica
/// died between connect and probe" scenario.
fn spawn_info_then_drop_server(dim: usize, len: usize) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut s) = stream else { break };
            std::thread::spawn(move || {
                // Answer exactly one frame (the INFO handshake), then die
                // on the next request.
                if dial_ann::transport::testing::answer_one_info_frame(&mut s, dim, len).is_ok() {
                    use std::io::Read;
                    let mut buf = [0u8; 8];
                    let _ = s.read(&mut buf);
                }
                drop(s);
            });
        }
    });
    addr
}

#[test]
fn corrupt_response_frame_is_a_checksum_error_not_a_panic() {
    // A server that answers any request with a frame whose checksum is
    // wrong: the client must surface ChecksumMismatch, never hits.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut s) = stream else { break };
            std::thread::spawn(move || {
                let _ = dial_ann::transport::testing::answer_with_corrupt_frame(&mut s);
            });
        }
    });
    let err = RemoteShard::connect(addr.to_string())
        .expect_err("corrupt INFO response must fail the connect");
    assert!(matches!(err, TransportError::ChecksumMismatch), "typed checksum error, got {err}");
}
