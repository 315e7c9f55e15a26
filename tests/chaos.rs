//! Chaos soak: randomized fault churn against a flow-controlled ALF
//! transfer, with invariants checked **inside** the pump loop — not just at
//! the end.
//!
//! Each seeded run drives two [`AduTransport`] endpoints through the one
//! two-endpoint loop, [`Pair`], while the fault regime mutates every
//! ~100–250 ms: uniform loss, Gilbert–Elliott loss bursts, duplication,
//! corruption, rate-limit flaps, and scheduled partitions that heal.
//! Adversarial churn rides on top: phases randomly arm and disarm the
//! link's frame mutator (replays, grammar-aware forgeries, truncation), so
//! the statistical and adversarial injectors interact instead of being
//! tested in isolation. After a fixed churn horizon the link is left clean,
//! the mutator disarmed, and the run must converge.
//!
//! Invariants, checked every iteration:
//!
//! * every delivered ADU is byte-identical to what was offered — replayed,
//!   corrupted, and forged frames must never surface as application bytes;
//! * no ADU is delivered twice (at-most-once);
//! * receiver reassembly memory never exceeds its byte budget;
//! * the buffered sender never gives an ADU up (the churn heals, so the
//!   transfer must complete — silence is not an acceptable failure mode).
//!
//! `SOAK=1` (see `scripts/verify.sh`) widens the sweep from 8 to 32 seeds;
//! `HOSTILE=1` runs extra seeds with the mutator armed for the whole run,
//! not just in churn phases.
//!
//! Every run carries an armed [`Telemetry`] flight recorder; when an
//! invariant trips, the panic message includes the last 96 recorded events
//! (association, ADU name, layer, sim-time) — the post-mortem is in the
//! failure output, not in a rerun under a debugger. Identically seeded runs
//! must produce byte-identical trace streams (`chaos_trace_deterministic`).
//!
//! The second half of the file soaks the many-association `AlfServer`
//! under the same storm while associations are created and destroyed
//! mid-run (`server_churn_run`), driven through the one hub-and-spoke loop,
//! `ct_server::star::Star`: no cross-association payload bleed, no
//! delivery for destroyed associations, at-most-once delivery, per-peer
//! reassembly quotas that hold every iteration, and occupancy telemetry
//! (slab, timer-wheel, dirty-list gauges — DESIGN.md §13) that matches
//! the ground-truth structures exactly while churn is in flight.

use std::collections::{HashMap, HashSet};

use alf_core::driver::workload_payload;
use alf_core::transport::{AduTransport, AlfConfig, RecoveryMode};
use alf_core::AduName;
use ct_netsim::drive::{Pair, Substrate};
use ct_netsim::fault::{FaultConfig, GilbertElliott, MutatorConfig};
use ct_netsim::link::LinkConfig;
use ct_netsim::rng::SimRng;
use ct_netsim::time::{SimDuration, SimTime};
use ct_telemetry::Telemetry;

/// Flight-recorder capacity per run: enough that a failure dump can always
/// show the guaranteed 64+ events of history with headroom.
const TRACE_CAPACITY: usize = 512;

/// Abort the run with the invariant violation plus a flight-recorder dump:
/// the most recent 96 events, each naming its layer, association, and (for
/// transport events) ADU.
fn violation(tel: &Telemetry, seed: u64, msg: &str) -> ! {
    panic!(
        "seed {seed}: {msg}\n\
         --- flight recorder: last {} of {} events ({} overwritten) ---\n{}",
        tel.trace_len().min(96),
        tel.trace_len(),
        tel.trace_overwritten(),
        tel.trace_dump_last(96)
    );
}

const BUDGET: usize = 48 * 1024;
const ADUS: u64 = 48;
const ADU_BYTES: usize = 6 * 1024;
/// Fault regimes stop mutating here; the run must then converge.
const CHURN_UNTIL: SimTime = SimTime::from_secs(3);

/// Pick the next fault regime. The menu spans every injector knob so a
/// multi-seed sweep exercises their interactions, not just each in
/// isolation.
fn next_regime(rng: &mut SimRng) -> FaultConfig {
    match rng.next_below(6) {
        0 => FaultConfig::none(),
        1 => FaultConfig::loss(0.05),
        2 => FaultConfig::bursty_loss(GilbertElliott::bursty(0.05, 0.3, 0.6)),
        3 => FaultConfig {
            duplicate: 0.08,
            ..FaultConfig::none()
        },
        4 => FaultConfig {
            corrupt: 0.03,
            ..FaultConfig::none()
        },
        _ => FaultConfig::rate_limited(40, SimDuration::from_millis(5)),
    }
}

/// The adversarial churn regime: replay pressure plus a trickle of
/// truncation and grammar-aware forgery. Mild enough that a churn-armed
/// phase still makes progress, hostile enough to exercise the replay
/// window, the strict decoders, and the reassembly quotas mid-transfer.
fn churn_mutator() -> MutatorConfig {
    MutatorConfig {
        truncate: 0.05,
        replay: 0.15,
        forge_grammar: 0.05,
        ..MutatorConfig::default()
    }
}

fn chaos_run(seed: u64) -> Telemetry {
    chaos_run_mode(seed, false)
}

/// `always_hostile` arms the frame mutator for the entire run (the
/// `HOSTILE=1` sweep); otherwise churn phases arm and disarm it randomly.
fn chaos_run_mode(seed: u64, always_hostile: bool) -> Telemetry {
    let tel = Telemetry::with_tracing(TRACE_CAPACITY);
    let mut rng = SimRng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let cfg = AlfConfig {
        recovery: RecoveryMode::TransportBuffer,
        reassembly_budget_bytes: BUDGET,
        window_adus: 16,
        // The churn horizon is finite and the link heals, so giving up is a
        // bug, not a policy: make the retry budget effectively unlimited.
        max_retries: 200,
        ..AlfConfig::default()
    };
    let mut pair = Pair::new(
        seed,
        LinkConfig::lan(),
        FaultConfig::none(),
        Substrate::Packet,
        AduTransport::new(cfg),
        AduTransport::new(cfg),
    );
    let (node_a, node_b) = (pair.node_a, pair.node_b);
    pair.net.attach_telemetry(tel.clone());
    if always_hostile {
        pair.net.set_mutator(node_a, node_b, churn_mutator());
    }
    pair.a.attach_telemetry(tel.clone(), "sender");
    pair.b.attach_telemetry(tel.clone(), "receiver");

    let expected: HashMap<u64, Vec<u8>> = (0..ADUS)
        .map(|i| (i, workload_payload(i, ADU_BYTES)))
        .collect();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut next_offer: u64 = 0;
    let mut next_phase_at = SimTime::from_millis(50);
    let mut healed = false;
    let mut done = false;

    for _ in 0..4_000_000u64 {
        let now = pair.net.now();

        // Fault churn: mutate the regime, or cut the link outright for a
        // while (the outage end is always finite, so every partition heals).
        if now < CHURN_UNTIL {
            if now >= next_phase_at {
                if rng.chance(0.25) {
                    let dur = SimDuration::from_millis(50 + rng.next_below(200));
                    pair.net.schedule_outage(node_a, node_b, now, now + dur);
                } else {
                    pair.net.set_faults(node_a, node_b, next_regime(&mut rng));
                }
                // Adversarial churn rides on top of the statistical regime:
                // a third of phases arm the frame mutator, the rest disarm
                // it (unless this run is always-hostile).
                if always_hostile || rng.chance(0.33) {
                    pair.net.set_mutator(node_a, node_b, churn_mutator());
                } else {
                    pair.net.clear_mutator(node_a, node_b);
                }
                next_phase_at = now + SimDuration::from_millis(100 + rng.next_below(150));
            }
        } else if !healed {
            pair.net.set_faults(node_a, node_b, FaultConfig::none());
            if !always_hostile {
                pair.net.clear_mutator(node_a, node_b);
            }
            healed = true;
        }

        // Offer work while the window (and the receiver's budget) accepts.
        while next_offer < ADUS {
            let payload = expected[&next_offer].clone();
            match pair.a.send_adu(AduName::Seq { index: next_offer }, payload) {
                Ok(_) => next_offer += 1,
                Err(_) => break,
            }
        }

        let moved = pair.exchange();

        // --- In-loop invariants (violations dump the flight recorder) ---
        while let Some((adu, _latency)) = pair.b.recv_adu() {
            let AduName::Seq { index } = adu.name else {
                violation(&tel, seed, &format!("unexpected ADU name {:?}", adu.name));
            };
            if !seen.insert(index) {
                violation(
                    &tel,
                    seed,
                    &format!("ADU {index} delivered twice (at-most-once violated)"),
                );
            }
            if adu.payload != expected[&index] {
                violation(
                    &tel,
                    seed,
                    &format!("ADU {index} delivered with corrupted bytes"),
                );
            }
        }
        if pair.b.reassembly_bytes() > BUDGET {
            violation(
                &tel,
                seed,
                &format!(
                    "reassembly {} bytes exceeds the {BUDGET} byte budget at {now}",
                    pair.b.reassembly_bytes()
                ),
            );
        }
        let lost = pair.a.take_loss_reports();
        if !lost.is_empty() {
            violation(
                &tel,
                seed,
                &format!(
                    "buffered sender gave up on {:?} under healable churn",
                    lost.iter().map(|l| l.name).collect::<Vec<_>>()
                ),
            );
        }

        if next_offer == ADUS && pair.a.send_complete() && seen.len() as u64 == ADUS {
            done = true;
            break;
        }
        if pair.net.now() >= SimTime::from_secs(60) {
            violation(
                &tel,
                seed,
                &format!(
                    "run exceeded 60 simulated seconds ({}/{ADUS} delivered)",
                    seen.len()
                ),
            );
        }

        // Advance the world, waking for the next churn phase too so
        // regimes mutate on schedule.
        let phase = (pair.net.now() < CHURN_UNTIL).then_some(next_phase_at);
        if !pair.settle(moved, phase) {
            violation(
                &tel,
                seed,
                &format!(
                    "wedged with nothing scheduled ({}/{ADUS} delivered)",
                    seen.len()
                ),
            );
        }
    }

    if !done {
        violation(
            &tel,
            seed,
            &format!(
                "transfer did not converge after churn healed ({}/{ADUS} delivered)",
                seen.len()
            ),
        );
    }
    if pair.b.reassembly_bytes() > BUDGET {
        violation(&tel, seed, "terminal reassembly state exceeds budget");
    }
    tel
}

#[test]
fn chaos_soak_eight_seeds() {
    for seed in 0..8 {
        chaos_run(seed);
    }
}

/// Identically seeded runs must emit byte-identical observability output —
/// the flight-recorder JSONL stream AND the metrics registry rendering.
/// This is what makes a trace from a failed CI run replayable locally.
#[test]
fn chaos_trace_deterministic() {
    let t1 = chaos_run(3);
    let t2 = chaos_run(3);
    let j1 = t1.trace_jsonl();
    let j2 = t2.trace_jsonl();
    assert!(
        !j1.is_empty(),
        "an armed recorder must have captured events"
    );
    assert_eq!(j1, j2, "same seed, different trace streams");
    assert_eq!(
        t1.metrics().render_text(),
        t2.metrics().render_text(),
        "same seed, different metrics"
    );
    // And the stream is machine-parseable back into events.
    let parsed = ct_telemetry::Event::parse_jsonl(&j1).expect("trace JSONL parses");
    assert_eq!(parsed.len(), j1.lines().count());
}

/// What a failed invariant actually prints: the violation line plus a
/// flight-recorder tail of at least 64 events naming association and ADU.
#[test]
fn chaos_violation_dump_contents() {
    let tel = chaos_run(5); // a full run leaves a saturated recorder behind
    assert!(tel.trace_len() >= 96, "recorder should be saturated");
    let dump = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        violation(&tel, 5, "induced for dump inspection")
    }))
    .expect_err("violation must panic");
    let msg = dump
        .downcast_ref::<String>()
        .expect("panic payload is a formatted string");
    assert!(msg.contains("seed 5: induced for dump inspection"));
    assert!(msg.contains("flight recorder"));
    let event_lines = msg.lines().filter(|l| l.contains("assoc=")).count();
    assert!(
        event_lines >= 64,
        "dump must show at least 64 events, got {event_lines}"
    );
    assert!(
        msg.contains("adu=seq:"),
        "dump must name delivered/sent ADUs"
    );
    assert!(
        msg.contains("sender") || msg.contains("receiver"),
        "dump must name the recording layer"
    );
}

/// Extended sweep, opt-in via `SOAK=1` (wired into `scripts/verify.sh`).
#[test]
fn chaos_soak_extended() {
    if std::env::var("SOAK").map(|v| v != "0" && !v.is_empty()) != Ok(true) {
        eprintln!("chaos_soak_extended: set SOAK=1 to run the 32-seed sweep");
        return;
    }
    for seed in 8..40 {
        chaos_run(seed);
    }
}

/// Bounded hostile soak, opt-in via `HOSTILE=1` (wired into
/// `scripts/verify.sh`): the adversarial frame mutator stays armed for the
/// entire run — replays, truncation, and grammar-aware forgeries on top of
/// the statistical churn — and every invariant (byte-identical delivery,
/// at-most-once, bounded reassembly, convergence) must still hold.
#[test]
fn hostile_soak_extended() {
    if std::env::var("HOSTILE").map(|v| v != "0" && !v.is_empty()) != Ok(true) {
        eprintln!("hostile_soak_extended: set HOSTILE=1 to run the hostile sweep");
        return;
    }
    for seed in 40..52 {
        chaos_run_mode(seed, true);
    }
}

// ---------------------------------------------------------------------------
// Multi-association churn: an `AlfServer` terminating many associations
// under the same fault + mutator storm, while associations are created and
// destroyed mid-run. In-loop invariants: a delivered payload always matches
// the identity bytes of its own (peer, association, index) — so frames can
// never bleed across associations — delivery is at-most-once, nothing is
// delivered for a destroyed association, and per-peer reassembly memory
// stays within the sum of that peer's per-association budgets.
// ---------------------------------------------------------------------------

const SRV_BUDGET: usize = 24 * 1024;
const SRV_ADU_BYTES: usize = 2500;
/// ADUs each association offers over its lifetime (churned ones offer fewer).
const SRV_ADUS_PER_ASSOC: u64 = 8;
const SRV_PEERS: usize = 2;
const SRV_ASSOCS_PER_PEER: usize = 6;

fn server_churn_run(seed: u64) -> ct_telemetry::Telemetry {
    use ct_server::cluster::assoc_payload;
    use ct_server::star::Star;
    use ct_server::{AlfServer, AssocKey, ServerConfig};

    let tel = Telemetry::with_tracing(TRACE_CAPACITY);
    let mut rng = SimRng::new(seed ^ 0x5851_f42d_4c95_7f2d);

    let cfg = AlfConfig {
        recovery: RecoveryMode::TransportBuffer,
        reassembly_budget_bytes: SRV_BUDGET,
        window_adus: 8,
        // Churn heals, so giving up is a bug, not a policy.
        max_retries: 200,
        ..AlfConfig::default()
    };
    // The server is the star's hub; client `i` is its spoke `i`.
    let new_stack = || AlfServer::new(ServerConfig::default());
    let clients = (0..SRV_PEERS).map(|_| new_stack()).collect();
    let link = LinkConfig::lan();
    let mut star = Star::new(seed, link, FaultConfig::none(), new_stack(), clients);
    star.net.attach_telemetry(tel.clone());
    star.hub.attach_telemetry(tel.clone());
    for c in &mut star.spokes {
        c.attach_telemetry_as(tel.clone(), "client");
    }
    let (server_node, peer_nodes) = (star.hub_node, star.spoke_nodes.clone());

    // Association lifecycle state. Wire ids only ever move forward, so a
    // churned-in association can never collide with a dead one's frames.
    let mut next_id = [1u16; SRV_PEERS];
    let mut live: Vec<AssocKey> = Vec::new();
    let mut removed: HashSet<AssocKey> = HashSet::new();
    let mut next_index: HashMap<AssocKey, u64> = HashMap::new();
    let spawn = |peer: usize, next_id: &mut [u16; SRV_PEERS], star: &mut Star| -> AssocKey {
        let assoc = next_id[peer];
        next_id[peer] += 1;
        let key = AssocKey {
            peer: peer as u64,
            assoc,
        };
        star.hub.add_association(key, cfg).expect("fresh id");
        star.spokes[peer]
            .add_association(AssocKey { peer: 0, assoc }, cfg)
            .expect("fresh id");
        key
    };
    for peer in 0..SRV_PEERS {
        for _ in 0..SRV_ASSOCS_PER_PEER {
            let key = spawn(peer, &mut next_id, &mut star);
            live.push(key);
            next_index.insert(key, 0);
        }
    }

    let mut seen: HashSet<(u64, u16, u64)> = HashSet::new();
    let mut next_phase_at = SimTime::from_millis(50);
    let mut healed = false;
    let mut done = false;

    for _ in 0..4_000_000u64 {
        let now = star.net.now();

        // Fault + mutator + association churn until the horizon, then heal.
        if now < CHURN_UNTIL {
            if now >= next_phase_at {
                let p = rng.next_below(SRV_PEERS as u64) as usize;
                if rng.chance(0.2) {
                    let dur = SimDuration::from_millis(50 + rng.next_below(200));
                    star.net
                        .schedule_outage(server_node, peer_nodes[p], now, now + dur);
                } else {
                    star.net
                        .set_faults(server_node, peer_nodes[p], next_regime(&mut rng));
                }
                if rng.chance(0.33) {
                    star.net
                        .set_mutator(peer_nodes[p], server_node, churn_mutator());
                } else {
                    star.net.clear_mutator(peer_nodes[p], server_node);
                }
                // Destroy one association and create another, mid-storm.
                if rng.chance(0.5) && live.len() > SRV_PEERS {
                    let victim = live.swap_remove(rng.next_below(live.len() as u64) as usize);
                    star.hub
                        .remove_association(victim)
                        .expect("victim was live");
                    star.spokes[victim.peer as usize]
                        .remove_association(AssocKey {
                            peer: 0,
                            assoc: victim.assoc,
                        })
                        .expect("victim was live");
                    removed.insert(victim);
                    let fresh = spawn(victim.peer as usize, &mut next_id, &mut star);
                    live.push(fresh);
                    next_index.insert(fresh, 0);
                }
                next_phase_at = now + SimDuration::from_millis(100 + rng.next_below(150));
            }
        } else if !healed {
            for &p in &peer_nodes {
                star.net.set_faults(server_node, p, FaultConfig::none());
                star.net.clear_mutator(p, server_node);
            }
            healed = true;
        }

        // Offer: one ADU per live association per iteration, identity bytes
        // derived from the *server-view* key so verification pins the owner.
        if now < CHURN_UNTIL {
            for &key in &live {
                let idx = next_index[&key];
                if idx >= SRV_ADUS_PER_ASSOC {
                    continue;
                }
                let payload = assoc_payload(key.peer, key.assoc, idx, SRV_ADU_BYTES);
                let ckey = AssocKey {
                    peer: 0,
                    assoc: key.assoc,
                };
                if star.spokes[key.peer as usize]
                    .send_adu(ckey, AduName::Seq { index: idx }, payload)
                    .is_ok()
                {
                    next_index.insert(key, idx + 1);
                }
            }
        }

        let moved = star.exchange();
        for client in &mut star.spokes {
            if let Some((key, report)) = client.take_losses().into_iter().next() {
                violation(
                    &tel,
                    seed,
                    &format!(
                        "buffered client gave up on {:?} of assoc {key:?} under healable churn",
                        report.name
                    ),
                );
            }
        }

        // --- In-loop invariants ---
        for (key, adu, _latency) in star.hub.take_delivered() {
            let AduName::Seq { index } = adu.name else {
                violation(&tel, seed, &format!("unexpected ADU name {:?}", adu.name));
            };
            if removed.contains(&key) {
                violation(
                    &tel,
                    seed,
                    &format!("ADU {index} delivered for destroyed association {key:?}"),
                );
            }
            let want = assoc_payload(key.peer, key.assoc, index, SRV_ADU_BYTES);
            if adu.payload.as_slice() != want.as_slice() {
                violation(
                    &tel,
                    seed,
                    &format!(
                        "payload of ADU {index} on {key:?} does not encode its own \
                         identity — cross-association bleed or corruption"
                    ),
                );
            }
            if !seen.insert((key.peer, key.assoc, index)) {
                violation(
                    &tel,
                    seed,
                    &format!("ADU {index} on {key:?} delivered twice"),
                );
            }
        }
        for peer in 0..SRV_PEERS as u64 {
            let (count, bytes) = live
                .iter()
                .filter(|k| k.peer == peer)
                .map(|&k| star.hub.endpoint(k).expect("live").reassembly_bytes())
                .fold((0usize, 0usize), |(c, b), r| (c + 1, b + r));
            if bytes > count * SRV_BUDGET {
                violation(
                    &tel,
                    seed,
                    &format!(
                        "peer {peer} holds {bytes} reassembly bytes across {count} \
                         associations — exceeds its {} byte quota at {now}",
                        count * SRV_BUDGET
                    ),
                );
            }
        }

        // Occupancy gauges vs ground truth, mid-churn: the slab, wheel
        // and dirty list are authoritative, and the §13 rollup gauges
        // must agree with them exactly while associations are being
        // destroyed and created under fire — a leaked wheel entry, a
        // stale slab gauge or a slot whose record and endpoint disagree
        // shows up here long before it would wedge the run.
        let shards = ServerConfig::default().shards;
        let (mut occupied_total, mut wheel_total, mut dirty_total) = (0, 0, 0);
        for i in 0..shards {
            let truth = star.hub.shard_occupancy(i);
            if truth.armed != truth.wheel_pending {
                violation(
                    &tel,
                    seed,
                    &format!(
                        "shard {i}: {} armed deadlines but {} wheel entries — the \
                         one-entry-per-association wheel protocol broke at {now}",
                        truth.armed, truth.wheel_pending
                    ),
                );
            }
            let reg = star.hub.shard_registry(i);
            for (gauge, want) in [
                ("slab_slots", truth.slots),
                ("slab_occupied", truth.occupied),
                ("wheel_pending", truth.wheel_pending),
                ("dirty_len", truth.dirty),
            ] {
                if reg.gauge(gauge) != Some(want as f64) {
                    violation(
                        &tel,
                        seed,
                        &format!(
                            "shard {i}: gauge {gauge} = {:?} but ground truth is {want} at {now}",
                            reg.gauge(gauge)
                        ),
                    );
                }
            }
            occupied_total += truth.occupied;
            wheel_total += truth.wheel_pending;
            dirty_total += truth.dirty;
            // The layout itself: key index, slot records, endpoint storage,
            // wheel and dirty list name the same associations — on the
            // server, and on the client stacks churning in step with it.
            let stacks = std::iter::once(("server", &star.hub))
                .chain(star.spokes.iter().map(|c| ("client", c)));
            for (who, stack) in stacks {
                if let Err(why) = stack.check_shard_layout(i) {
                    violation(
                        &tel,
                        seed,
                        &format!("{who} shard {i} layout disagrees at {now}: {why}"),
                    );
                }
            }
        }
        if occupied_total != live.len() {
            violation(
                &tel,
                seed,
                &format!(
                    "slab holds {occupied_total} associations but {} are live at {now}",
                    live.len()
                ),
            );
        }
        let roll = star.hub.rollup();
        for (gauge, want) in [
            ("wheel.pending_total", wheel_total),
            ("dirty.total", dirty_total),
        ] {
            if roll.gauge(gauge) != Some(want as f64) {
                violation(
                    &tel,
                    seed,
                    &format!(
                        "rollup gauge {gauge} = {:?} but shard sum is {want} at {now}",
                        roll.gauge(gauge)
                    ),
                );
            }
        }

        // Completion: churn over, offers finished, everything drained.
        if healed
            && !moved
            && live.iter().all(|k| next_index[k] >= SRV_ADUS_PER_ASSOC)
            && star.spokes.iter().all(AlfServer::drained)
            && !star.hub.pending_work()
            && star.net.is_idle()
        {
            done = true;
            break;
        }
        if star.net.now() >= SimTime::from_secs(60) {
            violation(
                &tel,
                seed,
                &format!(
                    "server churn run exceeded 60 simulated seconds \
                     ({} delivered)",
                    seen.len()
                ),
            );
        }

        // Advance the world, waking for the next churn phase too.
        let phase = (now < CHURN_UNTIL).then_some(next_phase_at);
        if !star.settle(moved, phase) {
            violation(
                &tel,
                seed,
                &format!("wedged with nothing scheduled ({} delivered)", seen.len()),
            );
        }
    }

    if !done {
        violation(
            &tel,
            seed,
            &format!(
                "server churn run did not converge after healing ({} delivered)",
                seen.len()
            ),
        );
    }
    // Every ADU offered on an association that survived to the end must
    // have arrived exactly once; churned-out associations owe nothing.
    for &key in &live {
        for idx in 0..next_index[&key] {
            if !seen.contains(&(key.peer, key.assoc, idx)) {
                violation(
                    &tel,
                    seed,
                    &format!("ADU {idx} on surviving association {key:?} never delivered"),
                );
            }
        }
    }
    tel
}

#[test]
fn server_churn_soak_four_seeds() {
    for seed in 60..64 {
        server_churn_run(seed);
    }
}

/// Same-seed server churn runs must be byte-identical in their telemetry —
/// the multi-association extension of `chaos_trace_deterministic` — and
/// equal to a pinned FNV-1a 64 digest of seed 61's trace then metrics
/// bytes. The pin is the one check on the star loop's lossy, churned path:
/// a `Star::settle` that took one network event instead of draining the
/// phase still passes every other test here.
#[test]
fn server_churn_trace_deterministic() {
    let t1 = server_churn_run(61);
    let t2 = server_churn_run(61);
    assert!(!t1.trace_jsonl().is_empty());
    assert_eq!(t1.trace_jsonl(), t2.trace_jsonl());
    assert_eq!(t1.metrics().render_text(), t2.metrics().render_text());
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for b in t1
        .trace_jsonl()
        .bytes()
        .chain(t1.metrics().render_text().bytes())
    {
        digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    assert_eq!(digest, 0x2eb0_b3b1_28d6_a53f, "seed 61 churn run moved");
}

/// Extended server-churn sweep, opt-in via `SOAK=1`.
#[test]
fn server_churn_soak_extended() {
    if std::env::var("SOAK").map(|v| v != "0" && !v.is_empty()) != Ok(true) {
        eprintln!("server_churn_soak_extended: set SOAK=1 to run the 16-seed sweep");
        return;
    }
    for seed in 64..80 {
        server_churn_run(seed);
    }
}
