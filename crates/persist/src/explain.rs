//! [`Persist`] codecs and framing for `dai-core` explain reports, so a
//! per-query cost attribution travels exactly like snapshots, traces,
//! and RPC messages: one [`crate::frame`] frame — tag, version, length,
//! payload, FxHash64 checksum — around a `Persist`-encoded payload.
//!
//! The codecs live here (not in `dai-core`, which must not depend on
//! the persistence layer) because this is the one crate that sees both
//! the [`Persist`] trait and the report types.

use dai_core::explain::{CellCost, CellOutcome, ExplainReport, FixCost};

use crate::codec::{PersistError, Reader, Writer};
use crate::frame::{split_frame, write_frame};
use crate::wire::{bad_tag, Persist};

/// The frame tag of a binary explain report (`explain` over the RPC
/// socket, `explain --json` artifacts).
pub const EXPLAIN_FRAME_TAG: [u8; 4] = *b"EXPL";

/// Version of the explain payload encoding inside an
/// [`EXPLAIN_FRAME_TAG`] frame. Version 2 dropped the report's transfer
/// mode and each cell's compiled flag.
pub const EXPLAIN_FRAME_VERSION: u16 = 2;

impl Persist for CellOutcome {
    fn put(&self, w: &mut Writer) {
        w.u8(match self {
            CellOutcome::Computed => 0,
            CellOutcome::MemoMatched => 1,
            CellOutcome::Reused => 2,
        });
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.u8()? {
            0 => Ok(CellOutcome::Computed),
            1 => Ok(CellOutcome::MemoMatched),
            2 => Ok(CellOutcome::Reused),
            t => Err(bad_tag("explain-cell-outcome", t)),
        }
    }
}

impl Persist for CellCost {
    fn put(&self, w: &mut Writer) {
        self.cell.put(w);
        self.outcome.put(w);
        w.u64(self.wall_ns);
        w.u64(self.finish_ns);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(CellCost {
            cell: String::get(r)?,
            outcome: CellOutcome::get(r)?,
            wall_ns: r.u64()?,
            finish_ns: r.u64()?,
        })
    }
}

impl Persist for FixCost {
    fn put(&self, w: &mut Writer) {
        self.cell.put(w);
        w.u64(self.iters);
        w.u64(self.unrolls);
        w.u64(self.wall_ns);
        self.converged.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(FixCost {
            cell: String::get(r)?,
            iters: r.u64()?,
            unrolls: r.u64()?,
            wall_ns: r.u64()?,
            converged: bool::get(r)?,
        })
    }
}

impl Persist for ExplainReport {
    fn put(&self, w: &mut Writer) {
        self.domain.put(w);
        self.cells.put(w);
        self.fixes.put(w);
        w.u64(self.work_ns);
        w.u64(self.span_ns);
        w.u64(self.lock_wait_ns);
        w.u64(self.lock_held_ns);
        w.u64(self.eval_ns);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let report = ExplainReport {
            domain: String::get(r)?,
            cells: Vec::<CellCost>::get(r)?,
            fixes: Vec::<FixCost>::get(r)?,
            work_ns: r.u64()?,
            span_ns: r.u64()?,
            lock_wait_ns: r.u64()?,
            lock_held_ns: r.u64()?,
            eval_ns: r.u64()?,
        };
        // The capture invariants are structural: work is the sum of the
        // attributed walls, and no finish time (hence the span) can
        // exceed the total work. A payload violating either was not
        // produced by an `ExplainSink` — reject it rather than hand a
        // lying report to accounting checks downstream.
        let walls: u64 = report
            .cells
            .iter()
            .map(|c| c.wall_ns)
            .chain(report.fixes.iter().map(|f| f.wall_ns))
            .sum();
        if walls != report.work_ns {
            return Err(PersistError::Corrupt(format!(
                "explain report work {} != attributed walls {}",
                report.work_ns, walls
            )));
        }
        if report.span_ns > report.work_ns {
            return Err(PersistError::Corrupt(format!(
                "explain report span {} exceeds work {}",
                report.span_ns, report.work_ns
            )));
        }
        Ok(report)
    }
}

/// Encodes `report` as one checksummed [`EXPLAIN_FRAME_TAG`] frame —
/// the binary wire/disk format of a cost attribution.
pub fn encode_explain_frame(report: &ExplainReport) -> Vec<u8> {
    let mut w = Writer::new();
    report.put(&mut w);
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(payload.len() + 32);
    write_frame(&mut out, EXPLAIN_FRAME_TAG, EXPLAIN_FRAME_VERSION, &payload);
    out
}

/// Decodes a binary explain report produced by [`encode_explain_frame`].
///
/// # Errors
///
/// [`PersistError`] when the frame is missing, truncated, mistagged,
/// version-skewed, checksum-damaged, carries trailing bytes, or its
/// payload does not decode (including structurally inconsistent
/// work/span accounting).
pub fn decode_explain_frame(bytes: &[u8]) -> Result<ExplainReport, PersistError> {
    let frame = split_frame(bytes).ok_or(PersistError::Truncated)?;
    if frame.header.tag != EXPLAIN_FRAME_TAG {
        return Err(PersistError::Corrupt(format!(
            "not an explain report (tag {:?})",
            frame.header.tag
        )));
    }
    if frame.header.version != EXPLAIN_FRAME_VERSION {
        return Err(PersistError::UnsupportedVersion(frame.header.version));
    }
    if frame.truncated {
        return Err(PersistError::Truncated);
    }
    let payload = frame
        .payload
        .ok_or_else(|| PersistError::Corrupt("explain frame checksum mismatch".to_string()))?;
    if frame.consumed != bytes.len() {
        return Err(PersistError::Corrupt(format!(
            "{} trailing bytes after explain frame",
            bytes.len() - frame.consumed
        )));
    }
    let mut r = Reader::new(payload);
    let report = ExplainReport::get(&mut r)?;
    if !r.is_exhausted() {
        return Err(PersistError::Corrupt(format!(
            "{} trailing bytes in explain payload",
            r.remaining()
        )));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ExplainReport {
        ExplainReport {
            domain: "octagon".to_string(),
            cells: vec![
                CellCost {
                    cell: "f:l3:sigma".to_string(),
                    outcome: CellOutcome::Computed,
                    wall_ns: 900,
                    finish_ns: 900,
                },
                CellCost {
                    cell: "f:l4:sigma".to_string(),
                    outcome: CellOutcome::MemoMatched,
                    wall_ns: 100,
                    finish_ns: 1_000,
                },
                CellCost {
                    cell: "f:l5:sigma".to_string(),
                    outcome: CellOutcome::Reused,
                    wall_ns: 0,
                    finish_ns: 0,
                },
            ],
            fixes: vec![FixCost {
                cell: "f:l4.fix:sigma".to_string(),
                iters: 3,
                unrolls: 2,
                wall_ns: 250,
                converged: true,
            }],
            work_ns: 1_250,
            span_ns: 1_000,
            lock_wait_ns: 40,
            lock_held_ns: 2_000,
            eval_ns: 1_900,
        }
    }

    #[test]
    fn explain_reports_roundtrip_byte_identically() {
        let report = sample_report();
        let bytes = encode_explain_frame(&report);
        let back = decode_explain_frame(&bytes).unwrap();
        assert_eq!(back, report);
        // Re-encoding the decoded report reproduces the frame exactly —
        // the byte-identity the RPC end-to-end test relies on.
        assert_eq!(encode_explain_frame(&back), bytes);
    }

    #[test]
    fn version_1_frames_are_unsupported() {
        let mut w = Writer::new();
        sample_report().put(&mut w);
        let mut old = Vec::new();
        write_frame(&mut old, EXPLAIN_FRAME_TAG, 1, &w.into_bytes());
        assert!(matches!(
            decode_explain_frame(&old),
            Err(PersistError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn empty_report_roundtrips() {
        let report = ExplainReport::default();
        assert_eq!(
            decode_explain_frame(&encode_explain_frame(&report)).unwrap(),
            report
        );
    }

    #[test]
    fn inconsistent_accounting_is_corrupt_not_lossy() {
        let mut report = sample_report();
        report.work_ns += 1;
        let mut w = Writer::new();
        report.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        match ExplainReport::get(&mut r) {
            Err(PersistError::Corrupt(m)) => assert!(m.contains("work"), "{m}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
        let mut report = sample_report();
        report.span_ns = report.work_ns + 1;
        let mut w = Writer::new();
        report.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        match ExplainReport::get(&mut r) {
            Err(PersistError::Corrupt(m)) => assert!(m.contains("span"), "{m}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_prefix_errors_cleanly() {
        let bytes = encode_explain_frame(&sample_report());
        for cut in 0..bytes.len() {
            assert!(
                decode_explain_frame(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut padded = bytes.clone();
        padded.extend_from_slice(b"junk-after-frame");
        assert!(decode_explain_frame(&padded).is_err());
    }

    #[test]
    fn every_byte_flip_errors_cleanly() {
        let bytes = encode_explain_frame(&sample_report());
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0xFF;
            // The checksum (or a structural check) must catch every
            // single-byte flip; none may panic or decode successfully.
            assert!(
                decode_explain_frame(&flipped).is_err(),
                "flip at byte {i} decoded"
            );
        }
    }
}
