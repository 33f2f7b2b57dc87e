//! Slow-query log export: CRC-framed line records, the same crash story
//! as the WAL.
//!
//! The serve layer appends one JSON line per over-threshold request to a
//! slowlog file. A plain text file would leave a torn last line
//! indistinguishable from a valid one after a crash; framing each line as
//! `[magic u32][payload_len u32][crc32 u32][payload]` (little-endian, the
//! WAL's exact layout with its own magic) lets a reader stop cleanly at
//! the first torn frame — every acknowledged entry sits in front of it.
//!
//! The codec here is pure bytes-in/bytes-out: `obs` has no filesystem
//! access and no dependency on the columnstore's `Vfs`, so the caller
//! appends [`frame_line`] output through whatever I/O layer it owns and
//! hands the raw file contents back to [`read_lines`].

/// `"GBSL"` — graph-BI slow log. Distinct from the WAL's `"GBWL"` so a
/// misrouted file is detected as torn at frame zero.
pub const SLOWLOG_MAGIC: u32 = 0x4742_534c;

pub use crate::crc32;

/// Encodes one line as a self-checking frame ready to append. Any
/// trailing newline is part of the payload the caller chose; none is
/// added.
pub fn frame_line(line: &str) -> Vec<u8> {
    let payload = line.as_bytes();
    let mut frame = Vec::with_capacity(12 + payload.len());
    frame.extend_from_slice(&SLOWLOG_MAGIC.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Decodes every intact frame, in order. Scanning stops — without error —
/// at the first torn frame (bad magic, truncated length, CRC mismatch,
/// or non-UTF-8 payload): by the append-only contract of the writer that
/// can only be an unacknowledged suffix.
pub fn read_lines(bytes: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= 12 {
        let magic = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().expect("4 bytes"));
        if magic != SLOWLOG_MAGIC || bytes.len() - at - 12 < len {
            break;
        }
        let payload = &bytes[at + 12..at + 12 + len];
        if crc32(payload) != crc {
            break;
        }
        let Ok(line) = std::str::from_utf8(payload) else {
            break;
        };
        out.push(line.to_owned());
        at += 12 + len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let lines = ["{\"rid\":1}", "", "{\"rid\":2,\"msg\":\"sl\\\"ow\"}"];
        let mut file = Vec::new();
        for l in &lines {
            file.extend_from_slice(&frame_line(l));
        }
        assert_eq!(read_lines(&file), lines);
    }

    #[test]
    fn torn_tail_stops_at_last_intact_frame() {
        let mut file = Vec::new();
        file.extend_from_slice(&frame_line("{\"rid\":1}"));
        file.extend_from_slice(&frame_line("{\"rid\":2}"));
        let last = frame_line("{\"rid\":3}");
        for cut in 0..last.len() {
            let mut torn = file.clone();
            torn.extend_from_slice(&last[..cut]);
            assert_eq!(read_lines(&torn).len(), 2, "cut at {cut}");
        }
        // A flipped payload byte in the middle cuts from that frame on.
        let mut corrupt = file.clone();
        corrupt[12] ^= 0xff;
        assert!(read_lines(&corrupt).is_empty());
        // Wrong magic (e.g. a WAL file fed in by mistake) reads as empty.
        let mut wrong = file;
        wrong[0] ^= 0x01;
        assert!(read_lines(&wrong).is_empty());
    }
}
