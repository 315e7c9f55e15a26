//! The §5 pipeline, end to end: conversion running *as the data arrives*.
//!
//! A sender ships a large BER-encoded integer array as ADUs protected by
//! FEC parity; the receiver feeds each completed ADU — in completion order,
//! not name order — into a **streaming** BER decoder, so presentation
//! conversion overlaps arrival instead of waiting for the last byte. The
//! run prints, as ADUs complete, how many integers the application had
//! already converted at that instant.
//!
//! This is the property §5 demands: "the application is not prevented from
//! performing presentation conversion as the data arrives." BER is a
//! *sequential* transfer syntax, so the decoder can only eat the in-order
//! prefix — which is exactly why losses matter: FEC repairs single-TU
//! erasures in place (no round trip), and the NACK path fixes the rest, so
//! the prefix keeps moving while later ADUs pile up at most briefly.
//!
//! Run: `cargo run --release --example pipelined_receiver [loss_percent]`

use alf_core::adu::AduName;
use alf_core::transport::{AduTransport, AlfConfig, RecoveryMode, SendRefused};
use ct_netsim::drive::{Pair, Substrate};
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::time::SimDuration;
use ct_presentation::ber;
use ct_presentation::stream::BerU32Stream;
use std::collections::BTreeMap;

fn main() {
    let loss_pct: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.0);

    // The application data: 200k integers, BER-encoded (the conversion-
    // intensive workload), cut into 16 kB ADUs named by stream position.
    let values: Vec<u32> = (0..200_000u32)
        .map(|i| i.wrapping_mul(2654435761))
        .collect();
    let wire = ber::encode_u32_array(&values);
    let adu_size = 16 * 1024;
    println!(
        "payload: {} integers = {} BER bytes in {} ADUs; loss {loss_pct}%",
        values.len(),
        wire.len(),
        wire.len().div_ceil(adu_size)
    );

    let cfg = AlfConfig {
        recovery: RecoveryMode::TransportBuffer,
        retransmit_timeout: SimDuration::from_millis(5),
        assembly_timeout: SimDuration::from_millis(2),
        fec_group: 4, // single-erasure parity per 4 TUs
        // Out-of-band rate control: ~13 us per 1434-byte TU at 1 Gb/s.
        pace_per_tu: SimDuration::from_micros(13),
        ..AlfConfig::default()
    };
    // The sender is endpoint `a`, the receiver endpoint `b`.
    let mut pair = Pair::new(
        4242,
        LinkConfig::gigabit(),
        FaultConfig::loss(loss_pct / 100.0),
        Substrate::Packet,
        AduTransport::new(cfg),
        AduTransport::new(cfg),
    );

    // ADUs to offer (stream-position names: byte offset in the BER wire);
    // offered lazily as the send window opens.
    let chunks: Vec<(u64, Vec<u8>)> = wire
        .chunks(adu_size)
        .enumerate()
        .map(|(i, c)| ((i * adu_size) as u64, c.to_vec()))
        .collect();
    let mut next_chunk = 0usize;

    // Receive loop: ADUs complete out of order; the streaming decoder can
    // only consume the in-order prefix (BER is a sequential syntax), so we
    // hold out-of-order ADUs briefly — and report how rarely that happens
    // thanks to FEC keeping completion order tight.
    let mut decoder = BerU32Stream::new();
    let mut pending: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut next_offset = 0u64;
    let mut decoded = 0usize;
    let mut completions = 0usize;
    let mut held_back = 0usize;

    for _ in 0..10_000_000u64 {
        while next_chunk < chunks.len() {
            let (off, bytes) = &chunks[next_chunk];
            match pair
                .a
                .send_adu(AduName::FileRange { offset: *off }, bytes.clone())
            {
                Ok(_) => next_chunk += 1,
                // Our window or the receiver's budget is full; retry after
                // ACKs reopen it.
                Err(SendRefused::WindowFull | SendRefused::Backpressured) => break,
                Err(e) => panic!("transfer refused fatally: {e}"),
            }
        }
        let moved = pair.exchange();
        while let Some((adu, _)) = pair.b.recv_adu() {
            completions += 1;
            let AduName::FileRange { offset } = adu.name else {
                unreachable!()
            };
            if offset != next_offset {
                held_back += 1;
            }
            pending.insert(offset, adu.payload.to_vec());
            // Drain the in-order prefix into the streaming decoder.
            while let Some(chunk) = pending.remove(&next_offset) {
                next_offset += chunk.len() as u64;
                decoded += decoder.push(&chunk).expect("valid BER").len();
            }
            if completions.is_multiple_of(25) {
                println!(
                    "t={:>10} completions={completions:3} decoded={decoded:6} ints ({:.0}% of stream)",
                    format!("{}", pair.net.now()),
                    100.0 * decoded as f64 / values.len() as f64
                );
            }
        }
        if decoder.is_done() {
            break;
        }
        // Nothing scheduled: whatever is still missing never will arrive.
        if !pair.settle(moved, None) {
            break;
        }
    }

    println!(
        "\ndecoded {decoded}/{} integers by {}",
        values.len(),
        pair.net.now()
    );
    println!(
        "ADUs completed: {completions}; completed out of stream order: {held_back} \
         (held briefly for the sequential BER prefix)"
    );
    println!(
        "FEC: {} parity TUs sent, {} fragments reconstructed in place",
        pair.a.stats().fec_parity_sent,
        pair.b.stats().fec_reconstructions
    );
    assert_eq!(decoded, values.len(), "every integer must arrive");
    println!(
        "conversion overlapped arrival throughout; single-TU losses were repaired \
         by parity in place, multi-TU losses by selective NACK"
    );
}
