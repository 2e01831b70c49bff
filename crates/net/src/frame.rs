//! Ethernet/IPv4/UDP frame construction and validation.
//!
//! Frames carry a 42-byte header stack (14 Ethernet + 20 IPv4 + 8 UDP —
//! the same split the paper uses: "each sent frame typically requires two
//! buffer descriptors ... one for the frame headers and one for the
//! payload", header = 42 bytes) followed by the UDP payload and 4 bytes
//! of frame check sequence. The payload is a deterministic byte pattern
//! derived from a 32-bit sequence number embedded at its head, so every
//! consumer (the transmit-side link monitor, the receive-side driver) can
//! verify end-to-end integrity and in-order delivery byte-for-byte.

/// Length of the Ethernet + IPv4 + UDP header stack.
pub const HEADER_BYTES: usize = 14 + 20 + 8;
/// Frame check sequence length.
pub const CRC_BYTES: usize = 4;
/// Minimum Ethernet frame length including FCS.
pub const MIN_FRAME: usize = 64;
/// Maximum standard Ethernet frame length including FCS.
pub const MAX_FRAME: usize = 1518;
/// Maximum UDP payload that fits a standard frame (the paper's 1472).
pub const MAX_UDP_PAYLOAD: usize = MAX_FRAME - CRC_BYTES - HEADER_BYTES;

/// Parsed summary of a valid frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// The 32-bit sequence number embedded at the head of the payload.
    pub seq: u32,
    /// UDP payload length in bytes.
    pub udp_payload: usize,
    /// Total frame length including FCS.
    pub frame_len: usize,
}

/// Why a frame failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the minimum frame.
    TooShort,
    /// Not an IPv4/UDP frame.
    BadHeaders,
    /// IPv4 header checksum mismatch.
    BadIpChecksum,
    /// Lengths in the headers are inconsistent with the frame length.
    BadLength,
    /// Payload bytes do not match the deterministic pattern for the seq.
    CorruptPayload,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            FrameError::TooShort => "frame shorter than 64 bytes",
            FrameError::BadHeaders => "not an IPv4/UDP frame",
            FrameError::BadIpChecksum => "IPv4 header checksum mismatch",
            FrameError::BadLength => "header lengths inconsistent with frame",
            FrameError::CorruptPayload => "payload does not match its sequence pattern",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for FrameError {}

fn ip_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    for chunk in header.chunks(2) {
        let word = u16::from_be_bytes([chunk[0], *chunk.get(1).unwrap_or(&0)]);
        sum += word as u32;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Byte `j` of every 32-byte chunk of the payload pattern, before the
/// chunk's offset ([`chunk_offset`]).
const STEP: [u8; 32] = {
    let mut t = [0u8; 32];
    let mut j = 0;
    while j < 32 {
        t[j] = (31 * j) as u8;
        j += 1;
    }
    t
};

/// The offset of pattern chunk `k` for sequence `seq`. Payload byte `i`
/// (counted from the byte after the 4-byte embedded sequence number) is
/// `base + 31 i + i / 32` mod 256, which within chunk `k = i / 32` is
/// `STEP[i % 32]` plus `base + 993 k`: whole chunks fill and compare
/// as vectors.
fn chunk_offset(seq: u32, k: usize) -> u8 {
    // The multiply-and-take-high-byte mix depends on every bit of `seq`,
    // so damage anywhere in the embedded sequence number changes the
    // expected pattern.
    let base = (seq.wrapping_mul(0x9e37_79b1) >> 24) as usize;
    base.wrapping_add(k.wrapping_mul(31 * 32 + 1)) as u8
}

/// Length (including FCS) of the frame that carries `udp_payload` bytes
/// of UDP data: the header stack and payload, padded to [`MIN_FRAME`].
pub fn frame_len(udp_payload: usize) -> usize {
    (HEADER_BYTES + udp_payload).max(MIN_FRAME - CRC_BYTES) + CRC_BYTES
}

/// Build a complete frame carrying `udp_payload` bytes of UDP data and
/// the given sequence number. Returns the frame bytes including a zeroed
/// 4-byte FCS placeholder (the MAC model treats FCS as opaque).
///
/// # Panics
///
/// Panics if `udp_payload` exceeds [`MAX_UDP_PAYLOAD`] or is smaller
/// than 4 (the embedded sequence number needs 4 bytes).
///
/// # Example
///
/// ```
/// use nicsim_net::frame::{build_udp_frame, validate_frame};
///
/// let f = build_udp_frame(7, 1472);
/// assert_eq!(f.len(), 1518);
/// assert_eq!(validate_frame(&f).unwrap().seq, 7);
/// ```
pub fn build_udp_frame(seq: u32, udp_payload: usize) -> Vec<u8> {
    assert!(udp_payload >= 4, "payload must hold the 4-byte sequence");
    assert!(udp_payload <= MAX_UDP_PAYLOAD, "payload exceeds 1472 bytes");
    let wire_payload = udp_payload;
    let mut f = vec![0u8; frame_len(udp_payload)];

    // Ethernet: dst, src, ethertype IPv4.
    f[0..6].copy_from_slice(&[0x02, 0, 0, 0, 0, 0x01]);
    f[6..12].copy_from_slice(&[0x02, 0, 0, 0, 0, 0x02]);
    f[12..14].copy_from_slice(&0x0800u16.to_be_bytes());

    // IPv4 header.
    let ip_total = (20 + 8 + wire_payload) as u16;
    let ip = &mut f[14..34];
    ip[0] = 0x45;
    ip[2..4].copy_from_slice(&ip_total.to_be_bytes());
    ip[8] = 64; // TTL
    ip[9] = 17; // UDP
    ip[12..16].copy_from_slice(&[10, 0, 0, 1]);
    ip[16..20].copy_from_slice(&[10, 0, 0, 2]);
    let csum = ip_checksum(&f[14..34]);
    f[24..26].copy_from_slice(&csum.to_be_bytes());

    // UDP header.
    let udp_len = (8 + wire_payload) as u16;
    f[34..36].copy_from_slice(&9000u16.to_be_bytes());
    f[36..38].copy_from_slice(&9001u16.to_be_bytes());
    f[38..40].copy_from_slice(&udp_len.to_be_bytes());
    // UDP checksum left zero (optional over IPv4).

    // Payload: embedded sequence + deterministic pattern.
    f[42..46].copy_from_slice(&seq.to_be_bytes());
    for (k, chunk) in f[46..42 + wire_payload].chunks_mut(32).enumerate() {
        let off = chunk_offset(seq, k);
        for (b, s) in chunk.iter_mut().zip(STEP) {
            *b = s.wrapping_add(off);
        }
    }
    f
}

/// The sequence number a frame carries in the first four payload bytes
/// (bytes 42..46); zero for a frame cut short of them.
#[inline]
pub fn seq_of(frame: &[u8]) -> u32 {
    frame
        .get(HEADER_BYTES..HEADER_BYTES + 4)
        .map_or(0, |b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

/// Stamp fleet endpoint ids into the Ethernet MAC addresses: `dst` into
/// the low two bytes of the destination MAC, `src` into the low two
/// bytes of the source MAC. [`validate_frame`] never inspects MAC
/// addresses, so an addressed frame still validates end-to-end — the
/// fabric and the receiving driver read the ids back with
/// [`endpoints`].
///
/// # Panics
///
/// Panics if the frame is shorter than an Ethernet header.
pub fn set_endpoints(frame: &mut [u8], src: u16, dst: u16) {
    frame[4..6].copy_from_slice(&dst.to_be_bytes());
    frame[10..12].copy_from_slice(&src.to_be_bytes());
}

/// Read back the `(src, dst)` endpoint ids stamped by
/// [`set_endpoints`]. Frames built by [`build_udp_frame`] without
/// addressing report `(2, 1)` — the default MAC address tails.
///
/// # Panics
///
/// Panics if the frame is shorter than an Ethernet header.
pub fn endpoints(frame: &[u8]) -> (u16, u16) {
    let dst = u16::from_be_bytes([frame[4], frame[5]]);
    let src = u16::from_be_bytes([frame[10], frame[11]]);
    (src, dst)
}

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`,
/// computed with a compile-time 256-entry table. The MAC RX path checks
/// this when a fault plan is active; clean-path runs never compute it.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut n = 0;
        while n < 256 {
            let mut c = n as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[n] = c;
            n += 1;
        }
        table
    };
    let mut crc = 0xffff_ffffu32;
    for &b in data {
        crc = TABLE[((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Stamp the frame's 4-byte FCS with the CRC32 of everything before it.
///
/// # Panics
///
/// Panics if the frame is shorter than the FCS itself.
pub fn write_fcs(frame: &mut [u8]) {
    let body = frame.len() - CRC_BYTES;
    let c = crc32(&frame[..body]);
    frame[body..].copy_from_slice(&c.to_le_bytes());
}

/// Whether the frame's FCS matches its contents. Frames shorter than the
/// minimum carry no trustworthy FCS and always fail.
pub fn fcs_valid(frame: &[u8]) -> bool {
    if frame.len() < MIN_FRAME {
        return false;
    }
    let body = frame.len() - CRC_BYTES;
    crc32(&frame[..body]).to_le_bytes() == frame[body..]
}

/// Validate a frame end-to-end: header structure, IP checksum, length
/// consistency, and the deterministic payload pattern.
///
/// # Errors
///
/// Returns the first [`FrameError`] encountered.
pub fn validate_frame(f: &[u8]) -> Result<FrameInfo, FrameError> {
    if f.len() < MIN_FRAME {
        return Err(FrameError::TooShort);
    }
    if f[12..14] != 0x0800u16.to_be_bytes() || f[14] != 0x45 || f[23] != 17 {
        return Err(FrameError::BadHeaders);
    }
    if ip_checksum(&f[14..34]) != 0 {
        return Err(FrameError::BadIpChecksum);
    }
    let ip_total = u16::from_be_bytes([f[16], f[17]]) as usize;
    let udp_len = u16::from_be_bytes([f[38], f[39]]) as usize;
    if ip_total != udp_len + 20 || 14 + ip_total + CRC_BYTES > f.len() || udp_len < 8 + 4 {
        return Err(FrameError::BadLength);
    }
    // The generator uses fixed ports and a zero UDP checksum; anything
    // else means the UDP header was damaged in flight.
    if f[34..36] != 9000u16.to_be_bytes()
        || f[36..38] != 9001u16.to_be_bytes()
        || f[40..42] != [0, 0]
    {
        return Err(FrameError::BadHeaders);
    }
    let payload = udp_len - 8;
    let seq = seq_of(f);
    let corrupt = f[46..42 + payload]
        .chunks(32)
        .enumerate()
        .any(|(k, chunk)| {
            let off = chunk_offset(seq, k);
            let diff = chunk
                .iter()
                .zip(STEP)
                .fold(0, |d, (b, s)| d | (b ^ s.wrapping_add(off)));
            diff != 0
        });
    if corrupt {
        return Err(FrameError::CorruptPayload);
    }
    Ok(FrameInfo {
        seq,
        udp_payload: payload,
        frame_len: f.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_frame_is_1518() {
        let f = build_udp_frame(0, 1472);
        assert_eq!(f.len(), MAX_FRAME);
    }

    #[test]
    fn frame_len_matches_builder() {
        for payload in [4usize, 18, 100, 1472] {
            assert_eq!(frame_len(payload), build_udp_frame(0, payload).len());
        }
    }

    #[test]
    fn small_payload_pads_to_min_frame() {
        let f = build_udp_frame(0, 4);
        assert_eq!(f.len(), MIN_FRAME);
        let info = validate_frame(&f).unwrap();
        assert_eq!(info.udp_payload, 4);
    }

    #[test]
    fn roundtrip_various_sizes() {
        for payload in [4, 18, 100, 200, 400, 800, 1000, 1472] {
            let f = build_udp_frame(payload as u32, payload);
            let info = validate_frame(&f).unwrap();
            assert_eq!(info.seq, payload as u32);
            assert_eq!(info.udp_payload, payload);
        }
    }

    /// The chunked fill is the per-byte definition, across chunk
    /// boundaries and for a seq whose mix is not zero.
    #[test]
    fn payload_pattern_is_the_per_byte_definition() {
        for seq in [0, 7, 0xdead_beef] {
            let f = build_udp_frame(seq, 1472);
            let base = (seq.wrapping_mul(0x9e37_79b1) >> 24) as usize;
            for (i, b) in f[46..1514].iter().enumerate() {
                assert_eq!(*b, (base + 31 * i + i / 32) as u8, "seq {seq}, byte {i}");
            }
        }
    }

    #[test]
    fn corruption_detected() {
        let mut f = build_udp_frame(42, 1472);
        f[100] ^= 0xff;
        assert_eq!(validate_frame(&f), Err(FrameError::CorruptPayload));
    }

    #[test]
    fn ip_checksum_corruption_detected() {
        let mut f = build_udp_frame(42, 1472);
        f[18] ^= 0x10; // mangle IP id field
        assert_eq!(validate_frame(&f), Err(FrameError::BadIpChecksum));
    }

    #[test]
    fn short_frame_rejected() {
        assert_eq!(validate_frame(&[0u8; 32]), Err(FrameError::TooShort));
        let f = build_udp_frame(0xdead_beef, 18);
        assert_eq!(seq_of(&f), 0xdead_beef);
        assert_eq!(seq_of(&f[..46]), 0xdead_beef);
        assert_eq!(seq_of(&f[..45]), 0, "cut short of the sequence word");
    }

    #[test]
    fn distinct_seqs_have_distinct_payloads() {
        let a = build_udp_frame(1, 256);
        let b = build_udp_frame(2, 256);
        assert_ne!(a[46..], b[46..]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_payload_panics() {
        build_udp_frame(0, 1473);
    }

    #[test]
    fn endpoints_roundtrip_without_breaking_validation() {
        let mut f = build_udp_frame(9, 600);
        assert_eq!(endpoints(&f), (2, 1));
        set_endpoints(&mut f, 37, 1001);
        assert_eq!(endpoints(&f), (37, 1001));
        assert_eq!(validate_frame(&f).unwrap().seq, 9);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fcs_roundtrip_and_detection() {
        let mut f = build_udp_frame(5, 1472);
        assert!(!fcs_valid(&f), "zeroed FCS placeholder must not verify");
        write_fcs(&mut f);
        assert!(fcs_valid(&f));
        // Any bit flip anywhere in the body breaks the FCS.
        f[200] ^= 0x04;
        assert!(!fcs_valid(&f));
        f[200] ^= 0x04;
        assert!(fcs_valid(&f));
        // Truncation breaks it too (the FCS bytes move).
        assert!(!fcs_valid(&f[..f.len() - 10]));
        assert!(!fcs_valid(&f[..30]));
        // Stamping does not disturb validation (FCS is opaque to it).
        assert_eq!(validate_frame(&f).unwrap().seq, 5);
    }
}
