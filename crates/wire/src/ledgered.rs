//! Ledgered kernel wrappers: the same data-manipulation kernels, reporting
//! their byte-reads and byte-writes to a [`TouchLedger`].
//!
//! Each wrapper runs the production kernel and then posts one O(1) ledger
//! entry — the accounting costs a handful of arithmetic ops regardless of
//! buffer size, so instrumented benchmarks stay honest (the X9 overhead
//! guard pins this below 2 % on the fused-kernel hot path).
//!
//! Naming: functions keep their kernel's name, so call sites read
//! `ledgered::copy_bytes(src, dst, ledger)`.

use ct_telemetry::TouchLedger;

/// [`crate::copy::copy_bytes`], reporting `len` reads + `len` writes as
/// stage `wire/copy`.
pub fn copy_bytes(src: &[u8], dst: &mut [u8], ledger: &TouchLedger) {
    crate::copy::copy_bytes(src, dst);
    ledger.touch("wire/copy", src.len() as u64, dst.len() as u64);
}

/// [`crate::checksum::internet_checksum`], reporting a read-only pass as
/// stage `wire/checksum`.
pub fn internet_checksum(data: &[u8], ledger: &TouchLedger) -> u16 {
    let ck = crate::checksum::internet_checksum(data);
    ledger.touch("wire/checksum", data.len() as u64, 0);
    ck
}

/// [`crate::swap::swap32_copy`], reporting `len` reads + `len` writes as
/// stage `wire/swap32`.
pub fn swap32_copy(src: &[u8], dst: &mut [u8], ledger: &TouchLedger) {
    crate::swap::swap32_copy(src, dst);
    ledger.touch("wire/swap32", src.len() as u64, dst.len() as u64);
}

/// [`crate::fused::copy_and_checksum`], reporting ONE traversal — `len`
/// reads + `len` writes, the checksum folded into the same pass — as stage
/// `wire/fused_copy_ck`. That single entry (against the layered path's
/// separate `wire/copy` + `wire/checksum` entries) is the ILP claim in
/// ledger form.
pub fn copy_and_checksum(src: &[u8], dst: &mut [u8], ledger: &TouchLedger) -> u16 {
    let ck = crate::fused::copy_and_checksum(src, dst);
    ledger.touch("wire/fused_copy_ck", src.len() as u64, dst.len() as u64);
    ck
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrappers_match_kernels_and_account() {
        let ledger = TouchLedger::new();
        let src: Vec<u8> = (0..100u8).collect();
        let mut dst = vec![0u8; 100];

        copy_bytes(&src, &mut dst, &ledger);
        assert_eq!(dst, src);

        let ck = internet_checksum(&src, &ledger);
        assert_eq!(ck, crate::checksum::internet_checksum(&src));

        swap32_copy(&src, &mut dst, &ledger);
        let mut want = vec![0u8; 100];
        crate::swap::swap32_copy(&src, &mut want);
        assert_eq!(dst, want);

        let ck2 = copy_and_checksum(&src, &mut dst, &ledger);
        assert_eq!(ck2, ck, "fused checksum equals the standalone pass");
        assert_eq!(dst, src);

        let stages = ledger.stages();
        assert_eq!(stages.len(), 4);
        assert_eq!(ledger.total_reads(), 400);
        // Checksum writes nothing; the other three write the buffer.
        assert_eq!(ledger.total_writes(), 300);
    }
}
