//! The traced pass: each layer's public functions timed from outside on
//! the workload's own inputs, every call (or run of identical calls)
//! wrapped in a benchmark-side span. A layer the workload does not call
//! (the store off `store-tcp-d16`, the standing service's calls on
//! `batch-1024`, `PrivateDatabase::local_topk` on `store-tcp-d16`) is not
//! timed, and its metrics read 0.

use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use privtopk_core::distributed::NetworkKind;
use privtopk_core::local::{topk_step_scratch, TopkScratch};
use privtopk_core::service::ServiceRuntime;
use privtopk_core::{BatchMessage, SlotMessage, TokenMessage, Transcript};
use privtopk_datagen::PrivateDatabase;
use privtopk_domain::{NodeId, ValueDomain};
use privtopk_ring::faults::ReliableEndpoint;
use privtopk_ring::transport::{InMemoryNetwork, TcpNetwork, Transport};
use privtopk_ring::wire::{decode_from_slice, encode_into, WireDecode, WireEncode};
use privtopk_store::log::log_path;
use privtopk_store::NodeStore;

use crate::stats::{median, per_query, Ledger};
use crate::trace::Tracer;
use crate::workloads::{Inputs, Kind, Pass, Workload, MEMBERS};

/// How long each repeated microbenchmark runs.
const LAYER_TIME: Duration = Duration::from_millis(200);
/// Round trips per ping-pong span.
const PINGS: u64 = 64;
/// Transcripts whose steps and frames the kernel and codec replay.
const REPLAYED: u64 = 16;
/// Snapshot samples per store, each after a cache-busting insert.
const SNAPSHOTS: usize = 32;

/// Calls `f` repeatedly for `LAYER_TIME`, one span of `calls` calls each.
fn repeat(tracer: &mut Tracer, name: &'static str, parent: u32, calls: u64, mut f: impl FnMut()) {
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        f();
        tracer.span(name, Some(parent), None, calls, t0, Instant::now());
        if start.elapsed() >= LAYER_TIME {
            break;
        }
    }
}

/// Runs every layer of the traced pass on `w`'s inputs.
pub fn run(w: &Workload, inputs: &Inputs, pass: &Pass, tracer: &mut Tracer) -> Result<(), String> {
    let oracle = inputs.oracle();
    let replayed = if w.kind == Kind::Batch {
        w.concurrency as u64
    } else {
        REPLAYED
    };
    let transcripts: Vec<Transcript> = (0..replayed).map(|i| oracle.transcript(i)).collect();

    let root = tracer.open("layer.local");
    kernel(tracer, root, inputs, &transcripts[..REPLAYED as usize]);
    tracer.close(root);

    let root = tracer.open("layer.wire");
    let frame = if w.kind == Kind::Batch {
        codec(tracer, root, &batch_frames(&transcripts))
    } else {
        codec(tracer, root, &slot_frames(&transcripts))
    };
    tracer.close(root);

    let root = tracer.open("layer.transport");
    let net = InMemoryNetwork::new(2);
    let mut eps = net.endpoints().into_iter();
    let (a, b) = (
        eps.next().expect("two endpoints"),
        eps.next().expect("two endpoints"),
    );
    ping_pong(tracer, root, "transport.handoff", a, b, &frame)?;
    let mut eps = TcpNetwork::bind(2)
        .and_then(|n| n.endpoints())
        .map_err(|e| format!("tcp: {e}"))?
        .into_iter();
    let (a, b) = (
        eps.next().expect("two endpoints"),
        eps.next().expect("two endpoints"),
    );
    ping_pong(tracer, root, "transport.tcp_frame", a, b, &frame)?;
    tracer.close(root);

    let root = tracer.open("layer.faults");
    let mut eps = InMemoryNetwork::new(2).endpoints().into_iter();
    let a = ReliableEndpoint::new(eps.next().expect("two endpoints"));
    let b = ReliableEndpoint::new(eps.next().expect("two endpoints"));
    reliable_sends(tracer, root, a, b, &frame)?;
    tracer.count(
        "faults.retransmissions",
        per_query(pass.retransmissions as f64, pass.queries),
    );
    tracer.count(
        "faults.re_acks",
        per_query(pass.re_acks as f64, pass.queries),
    );
    tracer.close(root);

    let root = tracer.open("layer.service");
    service(tracer, root, w, inputs, pass)?;
    tracer.close(root);

    // The store workload's rows live only in its stores.
    let root = tracer.open("layer.datagen");
    for (m, rows) in inputs.rows.iter().enumerate() {
        let db = PrivateDatabase::from_values(
            NodeId::new(m),
            ValueDomain::paper_default(),
            rows.iter().copied(),
        )
        .map_err(|e| format!("database: {e}"))?;
        for _ in 0..3 {
            let t0 = Instant::now();
            let top = db
                .local_topk(w.k)
                .map_err(|e| format!("local top-k: {e}"))?;
            tracer.span(
                "datagen.local_topk",
                Some(root),
                None,
                1,
                t0,
                Instant::now(),
            );
            std::hint::black_box(top);
        }
    }
    tracer.close(root);

    if w.kind == Kind::Store {
        let root = tracer.open("layer.store");
        store(tracer, root, w, inputs, pass)?;
        tracer.close(root);
    }
    Ok(())
}

/// `topk_step_scratch` over every step of the replayed transcripts, with
/// each node's own local vector and insert-once flag.
fn kernel(tracer: &mut Tracer, parent: u32, inputs: &Inputs, transcripts: &[Transcript]) {
    let config = &inputs.config;
    let domain = config.domain();
    let mut rng = SmallRng::seed_from_u64(inputs.seed);
    let mut scratch = TopkScratch::new();
    let steps: usize = transcripts.iter().map(|t| t.steps().len()).sum();
    repeat(tracer, "local.step", parent, steps as u64, || {
        for t in transcripts {
            let mut inserted = [false; MEMBERS];
            for s in t.steps() {
                let node = s.node.get();
                let out = topk_step_scratch(
                    &mut rng,
                    config.schedule().probability(s.round),
                    &s.incoming,
                    &inputs.locals[node],
                    inserted[node],
                    config.delta(),
                    &domain,
                    &mut scratch,
                )
                .expect("valid step inputs");
                inserted[node] = out.has_inserted;
                std::hint::black_box(out);
            }
        }
    });
}

/// The frames a service sends for each replayed query: one slot token
/// per step, then the termination circulation.
fn slot_frames(transcripts: &[Transcript]) -> Vec<SlotMessage> {
    let mut frames = Vec::new();
    for (query, t) in (0u64..).zip(transcripts) {
        for s in t.steps() {
            frames.push(SlotMessage {
                query,
                inner: TokenMessage::Token {
                    round: s.round,
                    vector: s.outgoing.clone(),
                },
            });
        }
        for _ in 1..t.n() {
            frames.push(SlotMessage {
                query,
                inner: TokenMessage::Finished {
                    vector: t.result().clone(),
                },
            });
        }
    }
    frames
}

/// The frames one batch call sends: per hop, every query's vector in one
/// `BatchMessage`, then the termination circulation.
fn batch_frames(transcripts: &[Transcript]) -> Vec<BatchMessage> {
    let first = &transcripts[0];
    let mut frames: Vec<BatchMessage> = (0..first.steps().len())
        .map(|h| BatchMessage::Tokens {
            round: first.steps()[h].round,
            vectors: transcripts
                .iter()
                .map(|t| t.steps()[h].outgoing.clone())
                .collect(),
        })
        .collect();
    for _ in 1..first.n() {
        frames.push(BatchMessage::Finished {
            vectors: transcripts.iter().map(|t| t.result().clone()).collect(),
        });
    }
    frames
}

/// Encodes and decodes every frame; returns the encoded frame nearest
/// the mean size, for the transport layers.
fn codec<M: WireEncode + WireDecode>(tracer: &mut Tracer, parent: u32, frames: &[M]) -> Bytes {
    let mut buf = BytesMut::new();
    repeat(tracer, "wire.encode", parent, frames.len() as u64, || {
        for f in frames {
            encode_into(f, &mut buf);
            std::hint::black_box(&buf);
        }
    });
    let encoded: Vec<Bytes> = frames
        .iter()
        .map(|f| {
            encode_into(f, &mut buf);
            Bytes::copy_from_slice(&buf)
        })
        .collect();
    repeat(tracer, "wire.decode", parent, frames.len() as u64, || {
        for e in &encoded {
            std::hint::black_box(decode_from_slice::<M>(e).expect("own frame decodes"));
        }
    });
    let mean = encoded.iter().map(Bytes::len).sum::<usize>() as f64 / encoded.len() as f64;
    tracer.count("wire.bytes_per_frame", mean);
    encoded
        .into_iter()
        .min_by(|x, y| {
            (x.len() as f64 - mean)
                .abs()
                .total_cmp(&(y.len() as f64 - mean).abs())
        })
        .expect("at least one frame")
}

/// One-way hand-off as half a ping-pong between two threads.
fn ping_pong<T: Transport>(
    tracer: &mut Tracer,
    parent: u32,
    name: &'static str,
    mut a: T,
    mut b: T,
    frame: &Bytes,
) -> Result<(), String> {
    let to_b = b.node();
    std::thread::scope(|s| {
        let echo = s.spawn(move || loop {
            let (from, f) = b.recv_timeout(Duration::from_secs(10))?;
            if f.is_empty() {
                return Ok::<(), privtopk_ring::RingError>(());
            }
            b.send(from, f)?;
        });
        let mut failed = None;
        repeat(tracer, name, parent, 2 * PINGS, || {
            for _ in 0..PINGS {
                if failed.is_none() {
                    failed = a.send(to_b, frame.clone()).and_then(|()| a.recv()).err();
                }
            }
        });
        let stop = a.send(to_b, Bytes::new());
        let echoed = echo.join().expect("echo thread panicked");
        match failed.map_or(stop, Err).and(echoed) {
            Ok(()) => Ok(()),
            Err(e) => Err(format!("{name}: {e}")),
        }
    })
}

/// A send and its ACK over a lossless `ReliableEndpoint` pair.
fn reliable_sends<T: Transport>(
    tracer: &mut Tracer,
    parent: u32,
    mut a: ReliableEndpoint<T>,
    mut b: ReliableEndpoint<T>,
    frame: &Bytes,
) -> Result<(), String> {
    let to_b = b.node();
    std::thread::scope(|s| {
        let sink = s.spawn(move || loop {
            let (_, f) = b.recv_timeout(Duration::from_secs(10))?;
            if f.is_empty() {
                return Ok::<(), privtopk_ring::RingError>(());
            }
        });
        let mut failed = None;
        repeat(tracer, "faults.reliable_send", parent, PINGS, || {
            for _ in 0..PINGS {
                if failed.is_none() {
                    failed = a.send(to_b, frame.clone()).err();
                }
            }
        });
        let stop = a.send(to_b, Bytes::new());
        let sunk = sink.join().expect("sink thread panicked");
        match failed.map_or(stop, Err).and(sunk) {
            Ok(()) => Ok(()),
            Err(e) => Err(format!("reliable send: {e}")),
        }
    })
}

/// Service start-up on the workload's local vectors; the submit and
/// collect spans and the queue wait come from the end-to-end pass of the
/// workloads that run a standing service.
fn service(
    tracer: &mut Tracer,
    parent: u32,
    w: &Workload,
    inputs: &Inputs,
    pass: &Pass,
) -> Result<(), String> {
    let depth = if w.kind == Kind::Batch {
        1
    } else {
        w.concurrency
    };
    for _ in 0..3 {
        let t0 = Instant::now();
        let runtime = ServiceRuntime::start(&inputs.locals, w.network, depth)
            .map_err(|e| format!("start: {e}"))?;
        tracer.span("service.start", Some(parent), None, 1, t0, Instant::now());
        runtime.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    }
    if w.kind != Kind::Batch {
        tracer.count("service.queue_wait_us", pass.queue_wait_mean_us);
    }
    Ok(())
}

/// Replay, snapshot, log size and insert cost of the store workload's
/// node stores, the insert cost from its writer's `insert_many` calls.
fn store(
    tracer: &mut Tracer,
    parent: u32,
    w: &Workload,
    inputs: &Inputs,
    pass: &Pass,
) -> Result<(), String> {
    tracer.count(
        "store.insert_ns_per_row",
        per_query(pass.writes.insert_ns as f64, pass.writes.rows),
    );
    let (mut log_bytes, mut rows) = (0u64, 0u64);
    for dir in &inputs.stores {
        let t0 = Instant::now();
        let store = NodeStore::open(dir).map_err(|e| format!("open store: {e}"))?;
        tracer.span("store.replay", Some(parent), None, 1, t0, Instant::now());
        log_bytes += std::fs::metadata(log_path(dir))
            .map_err(|e| e.to_string())?
            .len();
        rows += store.stats().rows;
        for _ in 0..SNAPSHOTS {
            store
                .insert(ValueDomain::paper_default().min())
                .map_err(|e| format!("insert: {e}"))?;
            let t0 = Instant::now();
            let snap = store
                .snapshot_for_k(w.k)
                .map_err(|e| format!("snapshot: {e}"))?;
            tracer.span("store.snapshot", Some(parent), None, 1, t0, Instant::now());
            std::hint::black_box(snap);
        }
    }
    tracer.count("store.log_bytes_per_row", per_query(log_bytes as f64, rows));
    Ok(())
}

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The per-layer metrics, computed from the spans and counts alone, so
/// the spans file reproduces them; the ledger also takes the end-to-end
/// pass's median latency.
pub fn metrics(w: &Workload, inputs: &Inputs, pass: &Pass, tracer: &Tracer) -> Vec<Metric> {
    let step_ns = tracer.ns_per_call("local.step");
    let encode_ns = tracer.ns_per_call("wire.encode");
    let decode_ns = tracer.ns_per_call("wire.decode");
    let handoff_us = tracer.ns_per_call("transport.handoff") / 1e3;
    let tcp_us = tracer.ns_per_call("transport.tcp_frame") / 1e3;
    let reliable_us = tracer.ns_per_call("faults.reliable_send") / 1e3;
    // Calls per query: n·r kernel steps and n·r + n − 1 frames, the
    // frames shared by the whole batch on the batch workload.
    let steps = inputs.oracle().transcript(0).steps().len() as f64;
    let width = if w.kind == Kind::Batch {
        w.concurrency as f64
    } else {
        1.0
    };
    let ledger = Ledger {
        steps_per_query: steps,
        frames_per_query: (steps + MEMBERS as f64 - 1.0) / width,
        step_ns,
        encode_ns,
        decode_ns,
        hop_us: match w.network {
            NetworkKind::InMemory => handoff_us,
            NetworkKind::Tcp => tcp_us,
            NetworkKind::LossyInMemory { .. } => reliable_us,
        },
    };
    let latency_us = median(&pass.latencies_ms).unwrap_or(0.0) * 1e3 / width;
    vec![
        ("local.step_ns", step_ns, "ns"),
        ("wire.encode_ns_per_frame", encode_ns, "ns"),
        ("wire.decode_ns_per_frame", decode_ns, "ns"),
        (
            "wire.bytes_per_frame",
            tracer.counted("wire.bytes_per_frame"),
            "B",
        ),
        ("transport.handoff_us", handoff_us, "us"),
        ("transport.tcp_frame_us", tcp_us, "us"),
        (
            "faults.retransmissions_per_query",
            tracer.counted("faults.retransmissions"),
            "1",
        ),
        (
            "faults.re_acks_per_query",
            tracer.counted("faults.re_acks"),
            "1",
        ),
        ("faults.reliable_send_us", reliable_us, "us"),
        (
            "service.submit_us",
            tracer.ns_per_call("service.submit") / 1e3,
            "us",
        ),
        (
            "service.collect_us",
            tracer.ns_per_call("service.collect") / 1e3,
            "us",
        ),
        (
            "service.queue_wait_us",
            tracer.counted("service.queue_wait_us"),
            "us",
        ),
        (
            "service.start_ms",
            tracer.ns_per_call("service.start") / 1e6,
            "ms",
        ),
        (
            "datagen.local_topk_ms",
            tracer.ns_per_call("datagen.local_topk") * MEMBERS as f64 / 1e6,
            "ms",
        ),
        (
            "store.replay_ms",
            tracer.ns_per_call("store.replay") * MEMBERS as f64 / 1e6,
            "ms",
        ),
        (
            "store.snapshot_us",
            tracer.ns_per_call("store.snapshot") / 1e3,
            "us",
        ),
        (
            "store.log_bytes_per_row",
            tracer.counted("store.log_bytes_per_row"),
            "B",
        ),
        (
            "store.insert_ns_per_row",
            tracer.counted("store.insert_ns_per_row"),
            "ns",
        ),
        (
            "ledger.unexplained_us_per_query",
            ledger.unexplained_us(latency_us),
            "us",
        ),
    ]
}
