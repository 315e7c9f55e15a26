//! Real-time video over ATM cells, with no retransmission.
//!
//! §5's media case end to end: tiles are ADUs named by (frame, slot) —
//! location in time and space — carried over a simulated ATM network
//! (53-byte cells, AAL-style reassembly, per-cell loss). The application
//! "accepts less than perfect delivery and continues": late and lost tiles
//! are concealed, and the stream never stalls.
//!
//! Run: `cargo run --example video_stream [cell_loss_percent]`

use alf_core::adu::AduName;
use alf_core::transport::{AduTransport, AlfConfig, RecoveryMode};
use ct_apps::video::{PlayoutBuffer, VideoSource};
use ct_netsim::atm::{AtmConfig, AtmEndpoint};
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::net::Network;
use ct_netsim::time::{SimDuration, SimTime};

fn main() {
    let cell_loss: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.2);

    const FRAMES: u32 = 60; // two seconds at 30 fps
    const SLOTS: u16 = 4;
    const TILE_BYTES: usize = 4200; // 3 TUs per tile: room for FEC parity
    let source = VideoSource::new(FRAMES, SLOTS, TILE_BYTES);
    println!(
        "stream: {FRAMES} frames x {SLOTS} tiles x {TILE_BYTES} B over ATM cells, \
         cell loss {cell_loss}%"
    );

    // Network: one gigabit link carrying cells.
    let mut net = Network::new(99);
    let tx_node = net.add_node();
    let rx_node = net.add_node();
    net.connect(
        tx_node,
        rx_node,
        LinkConfig::gigabit(),
        FaultConfig::loss(cell_loss / 100.0),
    );
    let mut atm_tx = AtmEndpoint::new(tx_node, AtmConfig::default());
    let mut atm_rx = AtmEndpoint::new(rx_node, AtmConfig::default());

    // Transports: real-time profile — no retransmission, tight reassembly.
    let cfg = AlfConfig {
        recovery: RecoveryMode::NoRetransmit,
        assembly_timeout: SimDuration::from_millis(5),
        fec_group: 3,     // one parity TU per tile: single-TU repair, no RTT
        timestamps: true, // regenerate inter-packet timing at the receiver
        // Out-of-band rate control: a 1434-byte TU is ~34 cells = 1802
        // wire bytes ≈ 15 us at 1 Gb/s; pace at 20 us so tile bursts
        // never overrun the cell queue.
        pace_per_tu: SimDuration::from_micros(20),
        ..AlfConfig::default()
    };
    let mut tx = AduTransport::new(cfg);
    let mut rx = AduTransport::new(cfg);

    let frame_interval = SimDuration::from_millis(33);
    let mut playout = PlayoutBuffer::new(
        SLOTS,
        FRAMES,
        SimTime::ZERO,
        frame_interval,
        SimDuration::from_millis(66), // two frames of playout delay
    );

    let mut next_frame_to_send: u32 = 0;
    while !playout.finished() {
        let now = net.now();
        // Source paces itself: emit frame f at f * interval.
        while next_frame_to_send < FRAMES
            && now >= SimTime::ZERO + frame_interval.saturating_mul(next_frame_to_send as u64)
        {
            for adu in source.frame_adus(next_frame_to_send) {
                tx.send_adu(adu.name, adu.payload).expect("window");
            }
            next_frame_to_send += 1;
        }
        // Transport → cells → network.
        for msg in tx.poll(now) {
            let _ = atm_tx.send_pdu(&mut net, rx_node, &msg);
        }
        for msg in rx.poll(now) {
            let _ = atm_rx.send_pdu(&mut net, tx_node, &msg);
        }
        // Network → cells → transport → playout.
        atm_rx.pump(&mut net);
        while let Some((_, pdu)) = atm_rx.recv_pdu() {
            rx.on_frame(net.now(), pdu.into());
        }
        atm_tx.pump(&mut net);
        while let Some((_, pdu)) = atm_tx.recv_pdu() {
            tx.on_frame(net.now(), pdu.into());
        }
        while let Some((adu, _latency)) = rx.recv_adu() {
            debug_assert!(matches!(adu.name, AduName::Media { .. }));
            playout.on_adu(net.now(), adu);
        }
        // Render everything due.
        for (frame, _tiles, concealed) in playout.advance(net.now()) {
            if concealed > 0 {
                println!("frame {frame:2}: rendered with {concealed} tile(s) concealed");
            }
        }
        // Advance the world ~1 ms per iteration.
        if !net.is_idle() {
            net.step();
        } else {
            net.advance(SimDuration::from_millis(1));
        }
    }

    let s = playout.stats;
    println!("\nplayout complete at {} (simulated)", net.now());
    println!(
        "frames: {} perfect, {} partial; tiles: {} rendered, {} concealed, {} late",
        s.frames_perfect, s.frames_partial, s.tiles_rendered, s.tiles_concealed, s.tiles_late
    );
    println!("on-time tile ratio: {:.1}%", 100.0 * s.render_ratio());
    println!(
        "ATM: {} cells sent, {} PDUs lost to cell loss (whole-ADU loss, as §5 predicts)",
        atm_tx.stats.cells_out, atm_rx.stats.pdus_lost
    );
    println!(
        "FEC reconstructions: {}; interarrival jitter estimate: {:.1} us",
        rx.stats().fec_reconstructions,
        rx.stats().jitter_us
    );
    assert!(
        s.render_ratio() > 0.5,
        "stream should remain mostly watchable at modest loss"
    );
}
