//! DESIGN.md §12's footprint figures, held to what they describe.
//!
//! The per-field table in §12 states the endpoint's inline size, the send
//! block's size and X13's bytes per association. A row whose first cell
//! names a `size_of::<…>()` must state that size; a row naming
//! `mem_bytes_per_assoc` / `client_mem_bytes_per_assoc` must state the
//! 100 000-association figures committed in `BENCH_x13.json`; and the
//! compile-time bound the prose quotes must be the endpoint's size. A
//! change that moves one of them fails here until the prose says so.

use alf_core::transport::{AduTransport, SendRings};
use ct_telemetry::json::{self, JsonValue};
use std::mem::size_of;

fn read(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// DESIGN.md §12, up to the next section.
fn section_12() -> String {
    read("DESIGN.md")
        .split("\n## ")
        .find(|s| s.starts_with("12."))
        .expect("DESIGN.md must keep §12")
        .to_string()
}

/// The table rows of `text` whose first cell contains `key`, as cells.
fn rows<'a>(text: &'a str, key: &str) -> Vec<Vec<&'a str>> {
    text.lines()
        .filter(|l| l.starts_with('|'))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(str::trim)
                .collect::<Vec<_>>()
        })
        .filter(|cells| cells[0].contains(key))
        .collect()
}

/// The integer a cell starts with ("104 while sending" → 104).
fn leading(cell: &str) -> u64 {
    let digits: String = cell.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("no figure in cell {cell:?}"))
}

/// `field` of BENCH_x13.json's 100 000-association row.
fn x13_at_100k(field: &str) -> u64 {
    let bench = json::parse(&read("BENCH_x13.json")).expect("BENCH_x13.json parses");
    let Some(JsonValue::Arr(rows)) = bench.get("rows") else {
        panic!("BENCH_x13.json has rows")
    };
    let row = rows
        .iter()
        .find(|r| r.get("assocs").and_then(JsonValue::as_u64) == Some(100_000))
        .expect("a 100 000-association row");
    row.get(field)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("no {field} in the 100 k row"))
}

#[test]
fn inline_sizes_stated_in_section_12_are_the_compiled_ones() {
    let text = section_12();
    for (key, size) in [
        ("size_of::<AduTransport>()", size_of::<AduTransport>()),
        ("size_of::<SendRings>()", size_of::<SendRings>()),
    ] {
        let found = rows(&text, key);
        assert!(!found.is_empty(), "§12 has no row naming `{key}`");
        for cells in found {
            // Receive-only and sending columns: a 0 means "not held".
            let stated: Vec<u64> = cells[1..].iter().map(|c| leading(c)).collect();
            assert!(
                stated.iter().all(|&n| n == 0 || n == size as u64) && stated.iter().any(|&n| n > 0),
                "§12 states {stated:?} for `{key}`, which is {size}"
            );
        }
    }
    // Prose: the compile-time bound it quotes is the size reached.
    const BOUND: &str = "size_of::<AduTransport>() <= ";
    let quoted: Vec<usize> = text
        .match_indices(BOUND)
        .map(|(at, _)| {
            let after = &text[at + BOUND.len()..];
            let digits: String = after.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("a number after the bound")
        })
        .collect();
    assert!(!quoted.is_empty(), "§12 no longer quotes the inline bound");
    for n in quoted {
        assert_eq!(n, size_of::<AduTransport>(), "§12 quotes `{BOUND}{n}`");
    }
}

#[test]
fn x13_figures_stated_in_section_12_are_the_committed_ones() {
    let text = section_12();
    let found = rows(&text, "`client_mem_bytes_per_assoc`");
    assert_eq!(found.len(), 1, "one X13 row in §12's per-field table");
    let cells = &found[0];
    assert!(cells[0].contains("`mem_bytes_per_assoc`"));
    assert_eq!(
        (leading(cells[1]), leading(cells[2])),
        (
            x13_at_100k("mem_bytes_per_assoc"),
            x13_at_100k("client_mem_bytes_per_assoc")
        ),
        "§12's [receiver, sender] bytes per association at 100 k against BENCH_x13.json"
    );
}
