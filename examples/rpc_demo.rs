//! Out-of-order RPC over the ALF transport.
//!
//! §6's "general paradigm of the Remote Procedure Call": each call's
//! arguments are marshalled (XDR) into one ADU named `rpc:{call}.{part}`;
//! responses complete **in whatever order they arrive**. A lost call delays
//! only itself — the calls behind it keep completing, which is precisely
//! what a byte-stream RPC binding cannot do.
//!
//! Run: `cargo run --example rpc_demo`

use alf_core::transport::{AduTransport, AlfConfig};
use ct_apps::rpc::{Proc, RpcClient, RpcServer};
use ct_netsim::drive::{Pair, Substrate};
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::time::SimDuration;

fn main() {
    let cfg = AlfConfig {
        retransmit_timeout: SimDuration::from_millis(120),
        assembly_timeout: SimDuration::from_millis(60),
        // Out-of-band rate control (§3): pace TUs at the 10 Mb/s wire rate
        // so bursts don't overrun the WAN's shallow queue.
        pace_per_tu: SimDuration::from_micros(1200),
        ..AlfConfig::default()
    };
    // The client is endpoint `a`, the server endpoint `b`.
    let mut pair = Pair::new(
        2024,
        LinkConfig::wan(), // 10 Mb/s, 10 ms — latency makes ordering visible
        FaultConfig::loss(0.03),
        Substrate::Packet,
        AduTransport::new(cfg),
        AduTransport::new(cfg),
    );
    let mut client = RpcClient::new();
    let mut server = RpcServer::new();

    // Issue a burst of calls with very different argument sizes, so their
    // responses naturally finish out of order.
    let calls: Vec<(Proc, Vec<u32>)> = vec![
        (Proc::Sum, (0..50_000).collect()), // big: many TUs
        (Proc::Echo, vec![42]),             // tiny
        (Proc::Square, (0..20).collect()),  // small
        (Proc::Sum, (0..30_000).collect()), // big
        (Proc::Echo, vec![7, 8, 9]),        // tiny
    ];
    for (proc, args) in &calls {
        let req = client.call(*proc, args);
        pair.a.send_adu(req.name, req.payload).expect("window");
    }
    println!("issued {} calls", calls.len());

    // Event loop until every call completes.
    let mut completed = Vec::new();
    for _ in 0..2_000_000 {
        let moved = pair.exchange();
        // Server executes whatever requests have fully arrived.
        while let Some((adu, _)) = pair.b.recv_adu() {
            match server.handle(&adu) {
                Ok(resp) => {
                    pair.b.send_adu(resp.name, resp.payload).expect("window");
                }
                Err(e) => eprintln!("server rejected request: {e}"),
            }
        }
        // Client matches responses as they complete.
        while let Some((adu, _)) = pair.a.recv_adu() {
            client.on_response(&adu).expect("well-formed response");
        }
        for (id, proc, result) in client.take_completed() {
            println!(
                "call {id} ({proc:?}) completed at {} — result[0..2] = {:?}",
                pair.net.now(),
                &result[..result.len().min(2)]
            );
            completed.push(id);
        }
        if completed.len() == calls.len() {
            break;
        }
        if !pair.settle(moved, None) {
            break;
        }
    }

    if completed.len() != calls.len() {
        eprintln!("client stats: {:#?}", pair.a.stats());
        eprintln!("server stats: {:#?}", pair.b.stats());
        eprintln!("client outstanding calls: {}", client.outstanding());
        eprintln!("client send_complete: {}", pair.a.send_complete());
        eprintln!("server send_complete: {}", pair.b.send_complete());
        eprintln!("client reassembly bytes: {}", pair.a.reassembly_bytes());
        eprintln!("server reassembly bytes: {}", pair.b.reassembly_bytes());
        eprintln!("net stats: {}", pair.net.stats());
    }
    assert_eq!(completed.len(), calls.len(), "all calls must finish");
    println!("\ncompletion order: {completed:?} (issue order was [0, 1, 2, 3, 4])");
    let in_order: Vec<u32> = (0..calls.len() as u32).collect();
    if completed != in_order {
        println!("small calls overtook big ones — no head-of-line blocking");
    }
    println!(
        "server served {} calls, {} errors",
        server.calls_served, server.errors
    );
}
