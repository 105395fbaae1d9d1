//! The one frame layout shared by every consumer of `dai` on-disk and
//! on-wire bytes: a fixed header (4-byte tag, `u16` payload version,
//! `u64` payload length), the payload, and a trailing FxHash64 checksum.
//! Frames sent over a stream (the RPC transport) additionally carry a
//! `u64` request id between the header and the payload.
//!
//! ```text
//! [u8;4]  tag        ("SESS", "FUNC", "MEMO", "RPCQ", "RPCS", …)
//! u16     version    payload version (disk frames) or protocol
//!                    version (RPC messages)
//! u64     length     payload length in bytes
//! [u64    id]        request id — stream frames only; disk frames
//!                    (snapshot sections, journal, TRCE, EXPL) have none
//! bytes   payload
//! u64     checksum   FxHash64 over payload bytes + length (+ id: see
//!                    [`checksum_with_id`])
//! ```
//!
//! Snapshot files (`dai_persist::codec`) concatenate frames after a file
//! header; the RPC transport (`dai-rpc`) sends exactly one frame per
//! message. Both use *this* implementation — the framing exists once, so
//! a framing bug (or fix) cannot diverge between disk and wire.
//!
//! The two layouts are never mixed on one byte sequence: disk frames are
//! written with [`write_frame`] and split with [`split_frame`]; stream
//! frames are written with [`write_frame_id`] and read with
//! [`read_frame_id`]. The stream checksum covers the id, so a flipped id
//! byte is caught exactly like a flipped payload byte.
//!
//! * [`split_frame`] — zero-copy over an in-memory byte slice, reporting
//!   damage (checksum mismatch) and truncation distinctly so snapshot
//!   parsing can stay lossy-by-section;
//! * [`read_frame_id`] — blocking read from an [`std::io::Read`] stream,
//!   with an explicit length bound so a hostile peer cannot make the
//!   reader allocate unbounded memory from one lying header.

use dai_memo::FxHasher64;
use std::hash::Hasher;
use std::io::Read;

/// Byte length of the fixed frame header (tag + version + length).
pub const FRAME_HEADER_LEN: usize = 4 + 2 + 8;

/// Byte length of the frame trailer (the checksum).
pub const FRAME_TRAILER_LEN: usize = 8;

/// Byte length of a stream frame's request-id field.
pub const FRAME_ID_LEN: usize = 8;

/// The payload checksum: FxHash64 over the bytes plus the length (so a
/// truncation to a prefix that happens to hash equal is still caught).
pub fn checksum(bytes: &[u8]) -> u64 {
    payload_hasher(bytes).finish()
}

/// [`checksum`] extended to cover a stream frame's request id, so an id
/// corrupted in flight fails verification like a corrupted payload.
pub fn checksum_with_id(bytes: &[u8], id: u64) -> u64 {
    let mut h = payload_hasher(bytes);
    h.write_u64(id);
    h.finish()
}

fn payload_hasher(bytes: &[u8]) -> FxHasher64 {
    let mut h = FxHasher64::default();
    h.write(bytes);
    h.write_u64(bytes.len() as u64);
    h
}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The 4-byte tag naming what the payload is.
    pub tag: [u8; 4],
    /// The writer's payload/protocol version.
    pub version: u16,
    /// Declared payload length in bytes.
    pub len: u64,
}

impl FrameHeader {
    /// Encodes the header into its wire bytes.
    pub fn encode(&self) -> [u8; FRAME_HEADER_LEN] {
        let mut out = [0u8; FRAME_HEADER_LEN];
        out[..4].copy_from_slice(&self.tag);
        out[4..6].copy_from_slice(&self.version.to_le_bytes());
        out[6..14].copy_from_slice(&self.len.to_le_bytes());
        out
    }

    /// Decodes a header from exactly [`FRAME_HEADER_LEN`] bytes.
    pub fn decode(bytes: &[u8; FRAME_HEADER_LEN]) -> FrameHeader {
        FrameHeader {
            tag: bytes[..4].try_into().expect("4 tag bytes"),
            version: u16::from_le_bytes(bytes[4..6].try_into().expect("2 version bytes")),
            len: u64::from_le_bytes(bytes[6..14].try_into().expect("8 length bytes")),
        }
    }
}

/// Appends one complete disk frame (header + payload + checksum) to
/// `out`.
pub fn write_frame(out: &mut Vec<u8>, tag: [u8; 4], version: u16, payload: &[u8]) {
    out.reserve(FRAME_HEADER_LEN + payload.len() + FRAME_TRAILER_LEN);
    out.extend_from_slice(&header_bytes(tag, version, payload));
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum(payload).to_le_bytes());
}

/// Appends one complete stream frame (header + request id + payload +
/// checksum) to `out`; [`read_frame_id`] reads it back.
pub fn write_frame_id(out: &mut Vec<u8>, tag: [u8; 4], version: u16, id: u64, payload: &[u8]) {
    out.reserve(FRAME_HEADER_LEN + FRAME_ID_LEN + payload.len() + FRAME_TRAILER_LEN);
    out.extend_from_slice(&header_bytes(tag, version, payload));
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum_with_id(payload, id).to_le_bytes());
}

fn header_bytes(tag: [u8; 4], version: u16, payload: &[u8]) -> [u8; FRAME_HEADER_LEN] {
    FrameHeader {
        tag,
        version,
        len: payload.len() as u64,
    }
    .encode()
}

/// One frame split off the front of a byte slice.
#[derive(Debug, Clone, Copy)]
pub struct SplitFrame<'a> {
    /// The frame's header (always readable when `split_frame` returns
    /// `Some`).
    pub header: FrameHeader,
    /// The payload, if it was complete and its checksum verified; `None`
    /// for a damaged (checksum-mismatched) or truncated frame.
    pub payload: Option<&'a [u8]>,
    /// `true` when the input ended before the declared payload and
    /// checksum were complete (no further frame can follow).
    pub truncated: bool,
    /// Bytes consumed from the input (header + payload + trailer, or
    /// everything remaining when truncated).
    pub consumed: usize,
}

/// Splits one frame off the front of `bytes`. Returns `None` when not
/// even a complete header remains (the caller decides whether trailing
/// garbage is truncation or a clean end).
pub fn split_frame(bytes: &[u8]) -> Option<SplitFrame<'_>> {
    if bytes.len() < FRAME_HEADER_LEN {
        return None;
    }
    let header = FrameHeader::decode(
        bytes[..FRAME_HEADER_LEN]
            .try_into()
            .expect("checked header length"),
    );
    let body = &bytes[FRAME_HEADER_LEN..];
    let Some(need) = (header.len as usize)
        .checked_add(FRAME_TRAILER_LEN)
        .filter(|&n| n <= body.len())
    else {
        // The payload or its checksum is cut off: everything remaining is
        // consumed and no payload can be trusted.
        return Some(SplitFrame {
            header,
            payload: None,
            truncated: true,
            consumed: bytes.len(),
        });
    };
    let payload = &body[..header.len as usize];
    let sum = u64::from_le_bytes(
        body[header.len as usize..need]
            .try_into()
            .expect("8 checksum bytes"),
    );
    Some(SplitFrame {
        header,
        payload: (checksum(payload) == sum).then_some(payload),
        truncated: false,
        consumed: FRAME_HEADER_LEN + need,
    })
}

/// A frame read from a byte stream.
#[derive(Debug, Clone)]
pub struct StreamFrame {
    /// The frame's header.
    pub header: FrameHeader,
    /// The request id, as read (it may be damaged when `payload` is
    /// `None`).
    pub id: u64,
    /// The payload, if complete and checksum-verified; `None` when the
    /// payload bytes arrived but the checksum did not match.
    pub payload: Option<Vec<u8>>,
}

/// What went wrong reading a frame from a stream.
#[derive(Debug)]
pub enum FrameReadError {
    /// The stream ended cleanly before any header byte — no frame was in
    /// flight (a peer hung up between messages).
    Eof,
    /// The stream ended mid-frame (header or payload cut off).
    Truncated,
    /// The header declared a payload larger than the caller's bound; no
    /// payload bytes were consumed past the header.
    Oversized {
        /// The declared payload length.
        declared: u64,
        /// The caller's bound it exceeded.
        bound: usize,
    },
    /// Transport failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Eof => write!(f, "stream closed between frames"),
            FrameReadError::Truncated => write!(f, "stream ended mid-frame"),
            FrameReadError::Oversized { declared, bound } => {
                write!(f, "declared frame length {declared} exceeds bound {bound}")
            }
            FrameReadError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

/// Reads exactly `buf.len()` bytes, mapping a clean EOF at offset 0 to
/// `Ok(false)` and a mid-buffer EOF to [`FrameReadError::Truncated`].
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, FrameReadError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(FrameReadError::Truncated)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one complete stream frame (header, request id, payload,
/// checksum) from `r`, allocating at most `max_payload` bytes for the
/// payload. An over-declared length consumes only the header and the
/// id, so a transport that answers the error and keeps reading stays in
/// sync with a peer that never actually sent the oversized payload.
///
/// # Errors
///
/// See [`FrameReadError`]; a checksum mismatch is *not* an error here —
/// the frame arrives with `payload: None` and the id as read, so the
/// caller can answer the damaged request in protocol under a
/// best-effort id (mirroring the lossy snapshot sections).
pub fn read_frame_id(r: &mut impl Read, max_payload: usize) -> Result<StreamFrame, FrameReadError> {
    let mut pre = [0u8; FRAME_HEADER_LEN + FRAME_ID_LEN];
    if !read_exact_or_eof(r, &mut pre)? {
        return Err(FrameReadError::Eof);
    }
    let header = FrameHeader::decode(pre[..FRAME_HEADER_LEN].try_into().expect("header bytes"));
    let id = u64::from_le_bytes(pre[FRAME_HEADER_LEN..].try_into().expect("8 id bytes"));
    if header.len > max_payload as u64 {
        return Err(FrameReadError::Oversized {
            declared: header.len,
            bound: max_payload,
        });
    }
    let mut payload = vec![0u8; header.len as usize];
    if !read_exact_or_eof(r, &mut payload)? {
        return Err(FrameReadError::Truncated);
    }
    let mut sum_bytes = [0u8; FRAME_TRAILER_LEN];
    if !read_exact_or_eof(r, &mut sum_bytes)? {
        return Err(FrameReadError::Truncated);
    }
    let verified = checksum_with_id(&payload, id) == u64::from_le_bytes(sum_bytes);
    Ok(StreamFrame {
        header,
        id,
        payload: verified.then_some(payload),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips() {
        let h = FrameHeader {
            tag: *b"RPCQ",
            version: 7,
            len: 123_456,
        };
        assert_eq!(FrameHeader::decode(&h.encode()), h);
    }

    #[test]
    fn split_frame_verifies_and_consumes() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, *b"AAAA", 1, b"hello");
        write_frame(&mut bytes, *b"BBBB", 2, b"world!");
        let first = split_frame(&bytes).unwrap();
        assert_eq!(first.header.tag, *b"AAAA");
        assert_eq!(first.payload, Some(&b"hello"[..]));
        let second = split_frame(&bytes[first.consumed..]).unwrap();
        assert_eq!(second.header.tag, *b"BBBB");
        assert_eq!(second.header.version, 2);
        assert_eq!(second.payload, Some(&b"world!"[..]));
        assert_eq!(first.consumed + second.consumed, bytes.len());
    }

    #[test]
    fn split_frame_flags_damage_and_truncation() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, *b"AAAA", 1, b"payload");
        let mut flipped = bytes.clone();
        flipped[FRAME_HEADER_LEN + 2] ^= 0xFF;
        let f = split_frame(&flipped).unwrap();
        assert!(f.payload.is_none(), "checksum must catch the flip");
        assert!(!f.truncated);
        let cut = split_frame(&bytes[..bytes.len() - 1]).unwrap();
        assert!(cut.truncated);
        assert!(cut.payload.is_none());
        assert!(split_frame(&bytes[..FRAME_HEADER_LEN - 1]).is_none());
    }

    #[test]
    fn stream_read_roundtrips_and_bounds_length() {
        let mut bytes = Vec::new();
        write_frame_id(&mut bytes, *b"RPCQ", 5, 42, b"abc");
        let f = read_frame_id(&mut &bytes[..], 1024).unwrap();
        assert_eq!(f.header.tag, *b"RPCQ");
        assert_eq!(f.id, 42);
        assert_eq!(f.payload.as_deref(), Some(&b"abc"[..]));
        // A declared length past the bound fails before any allocation.
        match read_frame_id(&mut &bytes[..], 2) {
            Err(FrameReadError::Oversized { declared, bound }) => {
                assert_eq!((declared, bound), (3, 2));
            }
            other => panic!("expected oversized, got {other:?}"),
        }
    }

    #[test]
    fn id_frames_roundtrip_and_checksum_covers_id() {
        let mut bytes = Vec::new();
        write_frame_id(&mut bytes, *b"RPCQ", 5, 0xDEAD_BEEF, b"abc");
        let f = read_frame_id(&mut &bytes[..], 1024).unwrap();
        assert_eq!(f.id, 0xDEAD_BEEF);
        assert_eq!(f.payload.as_deref(), Some(&b"abc"[..]));
        // A flipped id byte fails the checksum, but the frame still
        // arrives (with the id as read) so the peer can answer it.
        let mut flipped = bytes.clone();
        flipped[FRAME_HEADER_LEN] ^= 0x01;
        let f = read_frame_id(&mut &flipped[..], 1024).unwrap();
        assert!(f.payload.is_none());
        assert_eq!(f.id, 0xDEAD_BEEE);
        assert_ne!(checksum_with_id(b"abc", 1), checksum_with_id(b"abc", 2));
        assert_ne!(checksum_with_id(b"abc", 0), checksum(b"abc"));
    }

    #[test]
    fn oversized_id_frame_consumes_header_and_id_only() {
        let huge = FrameHeader {
            tag: *b"RPCQ",
            version: 5,
            len: u64::MAX,
        };
        let mut stream = huge.encode().to_vec();
        stream.extend_from_slice(&99u64.to_le_bytes());
        let mut good = Vec::new();
        write_frame_id(&mut good, *b"RPCQ", 5, 3, b"ok");
        stream.extend_from_slice(&good);
        let mut cursor = &stream[..];
        assert!(matches!(
            read_frame_id(&mut cursor, 1024),
            Err(FrameReadError::Oversized { .. })
        ));
        // The reader stayed in sync: the following frame parses whole.
        let f = read_frame_id(&mut cursor, 1024).unwrap();
        assert_eq!(f.id, 3);
        assert_eq!(f.payload.as_deref(), Some(&b"ok"[..]));
    }

    #[test]
    fn stream_read_reports_eof_vs_truncation() {
        let mut bytes = Vec::new();
        write_frame_id(&mut bytes, *b"RPCQ", 5, 7, b"abcdef");
        assert!(matches!(
            read_frame_id(&mut &[][..], 64),
            Err(FrameReadError::Eof)
        ));
        for cut in 1..bytes.len() {
            assert!(
                matches!(
                    read_frame_id(&mut &bytes[..cut], 64),
                    Err(FrameReadError::Truncated)
                ),
                "cut at {cut}"
            );
        }
    }
}
