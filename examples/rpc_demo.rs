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
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::net::Network;
use ct_netsim::time::SimDuration;

fn main() {
    let mut net = Network::new(2024);
    let client_node = net.add_node();
    let server_node = net.add_node();
    net.connect(
        client_node,
        server_node,
        LinkConfig::wan(), // 10 Mb/s, 10 ms — latency makes ordering visible
        FaultConfig::loss(0.03),
    );
    let cfg = AlfConfig {
        retransmit_timeout: SimDuration::from_millis(120),
        assembly_timeout: SimDuration::from_millis(60),
        // Out-of-band rate control (§3): pace TUs at the 10 Mb/s wire rate
        // so bursts don't overrun the WAN's shallow queue.
        pace_per_tu: SimDuration::from_micros(1200),
        ..AlfConfig::default()
    };
    let mut client_tp = AduTransport::new(cfg);
    let mut server_tp = AduTransport::new(cfg);
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
        client_tp.send_adu(req.name, req.payload).expect("window");
    }
    println!("issued {} calls", calls.len());

    // Event loop until every call completes.
    let mut completed = Vec::new();
    for _ in 0..2_000_000 {
        let now = net.now();
        for msg in client_tp.poll(now) {
            let _ = net.send(client_node, server_node, msg);
        }
        for msg in server_tp.poll(now) {
            let _ = net.send(server_node, client_node, msg);
        }
        while let Some(frame) = net.recv(server_node) {
            server_tp.on_frame(net.now(), frame.payload.into());
        }
        while let Some(frame) = net.recv(client_node) {
            client_tp.on_frame(net.now(), frame.payload.into());
        }
        // Server executes whatever requests have fully arrived.
        while let Some((adu, _)) = server_tp.recv_adu() {
            match server.handle(&adu) {
                Ok(resp) => {
                    server_tp.send_adu(resp.name, resp.payload).expect("window");
                }
                Err(e) => eprintln!("server rejected request: {e}"),
            }
        }
        // Client matches responses as they complete.
        while let Some((adu, _)) = client_tp.recv_adu() {
            client.on_response(&adu).expect("well-formed response");
        }
        for (id, proc, result) in client.take_completed() {
            println!(
                "call {id} ({proc:?}) completed at {} — result[0..2] = {:?}",
                net.now(),
                &result[..result.len().min(2)]
            );
            completed.push(id);
        }
        if completed.len() == calls.len() {
            break;
        }
        if !net.is_idle() {
            net.step();
        } else {
            match [client_tp.next_timeout(), server_tp.next_timeout()]
                .into_iter()
                .flatten()
                .min()
            {
                Some(t) if t > net.now() => net.advance(t.saturating_since(net.now())),
                Some(_) => {}
                None => break,
            }
        }
    }

    if completed.len() != calls.len() {
        eprintln!("client stats: {:#?}", client_tp.stats());
        eprintln!("server stats: {:#?}", server_tp.stats());
        eprintln!("client outstanding calls: {}", client.outstanding());
        eprintln!("client send_complete: {}", client_tp.send_complete());
        eprintln!("server send_complete: {}", server_tp.send_complete());
        eprintln!("client reassembly bytes: {}", client_tp.reassembly_bytes());
        eprintln!("server reassembly bytes: {}", server_tp.reassembly_bytes());
        eprintln!("net stats: {}", net.stats());
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
