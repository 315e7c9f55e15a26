//! `rpc_pair` — one association, one call outstanding, `ct_apps::rpc` client
//! and server over the pair loop.
//!
//! Why: every ADU is one small TU, so `Message` encode/decode, the
//! assembler's single-TU release, ACK generation, timer-wheel arm/cancel,
//! `ct-netsim` event cost and XDR marshalling are the whole cost and the
//! byte kernels are noise. It is also the workload where per-op wall
//! latency is a per-request latency, with a tail.

use super::pair::{recv_adu, Pair};
use super::{Meter, Params, Phase, Round};
use crate::gen::Rng;
use crate::trace::{Span, Tracer};
use alf_core::transport::AlfConfig;
use ct_apps::rpc::{Proc, RpcClient, RpcServer};
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;

/// Calls per measured round at scale 1 (≈ 1 s here).
pub const OPS_PER_ROUND: u64 = 300_000;
/// Distinct seeded `(proc, args)` calls; the call sequence cycles them.
const CALL_POOL: usize = 4_096;

struct Call {
    proc: Proc,
    args: Vec<u32>,
    want: Vec<u32>,
}

fn call_pool(seed: u64) -> Vec<Call> {
    let mut rng = Rng::new(seed, 3);
    (0..CALL_POOL)
        .map(|_| {
            let proc = [Proc::Sum, Proc::Echo, Proc::Square][rng.below(3) as usize];
            let len = [4usize, 16, 64][rng.below(3) as usize];
            let args: Vec<u32> = (0..len).map(|_| rng.next_u64() as u32).collect();
            let want = proc.execute(&args);
            Call { proc, args, want }
        })
        .collect()
}

struct World {
    pair: Pair,
    client: RpcClient,
    server: RpcServer,
    pool: Vec<Call>,
}

impl World {
    /// Run calls `first..first + count`, one at a time.
    fn drive(&mut self, first: u64, count: u64, meter: &mut Meter, tr: &mut Tracer) {
        let World {
            pair,
            client,
            server,
            pool,
        } = self;
        for op in first..first + count {
            let call = &pool[op as usize % CALL_POOL];
            meter.submitted(op, pair.net.now());
            let req = tr.span(Span::RpcClient, Some(op), || {
                client.call(call.proc, &call.args)
            });
            if tr
                .span(Span::SendAdu, Some(op), || {
                    pair.a.send_adu(req.name, req.payload)
                })
                .is_err()
            {
                return; // window full with one call outstanding: wedged
            }

            let mut answered = false;
            // A call is ~4 frames; a turn moves one event.
            for _ in 0..10_000 {
                let mut moved = pair.exchange(tr);
                while let Some(adu) = recv_adu(&mut pair.b, tr) {
                    moved = true;
                    let resp = tr.span(Span::RpcServer, Some(op), || server.handle(&adu));
                    if let Ok(resp) = resp {
                        let _ = tr.span(Span::SendAdu, Some(op), || {
                            pair.b.send_adu(resp.name, resp.payload)
                        });
                    }
                }
                while let Some(adu) = recv_adu(&mut pair.a, tr) {
                    let done = tr.span(Span::RpcClient, Some(op), || {
                        let _ = client.on_response(&adu);
                        client.take_completed()
                    });
                    meter.arrived(op, pair.net.now());
                    let ok = tr.span(Span::Verify, Some(op), || {
                        done.len() == 1 && done[0].1 == call.proc && done[0].2 == call.want
                    });
                    meter.checked(ok, (call.args.len() + call.want.len()) * 4);
                    answered = true;
                }
                if answered || !pair.advance(moved, tr) {
                    break;
                }
            }
            if !answered {
                return;
            }
        }
    }
}

/// One round.
pub fn round(p: &Params, tr: &mut Tracer) -> Round {
    let setup = std::time::Instant::now();
    let mut w = World {
        pair: Pair::new(
            p.seed,
            LinkConfig::gigabit(),
            FaultConfig::none(),
            AlfConfig::default(),
            p.telemetry.as_ref(),
        ),
        client: RpcClient::new(),
        server: RpcServer::new(),
        pool: call_pool(p.seed),
    };
    let ops = p.scaled(OPS_PER_ROUND, 256);
    let warm = (ops / 20).max(64);
    w.drive(0, warm, &mut Meter::new(1, warm), &mut Tracer::off());
    let setup_s = setup.elapsed().as_secs_f64();

    let mut meter = Meter::new(1, ops);
    let phase = Phase::start(&w.pair.net, w.pair.counts(), tr);
    w.drive(warm, ops, &mut meter, tr);
    let mut round = phase.finish(&w.pair.net, || w.pair.counts(), setup_s, ops, meter, tr);
    // A request and a response, one TU each.
    super::push_retx_ratio(&mut round, 2 * ops);
    round
}
