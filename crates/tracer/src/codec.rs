//! Delta + run-length column codec for the v2 trace envelope.
//!
//! Trace columns are sequences of `u64` (or `f64` reinterpreted as raw
//! bits). The encoder takes consecutive wrapping differences, zig-zag maps
//! them so small negative steps stay small, run-length-groups equal
//! deltas, and writes each run as a pair of LEB128 varints. The three
//! shapes that dominate real signatures all collapse well:
//!
//! * **constant columns** (repeated hit rates, per-block invocation
//!   counts) — one run for the head value plus one zero-delta run;
//! * **arithmetic ramps** (instruction indices, strided address bases) —
//!   a single run of the common stride;
//! * **incompressible columns** (random addresses, distinct floats) —
//!   degrade to one run per value, bounded by [`MAX_BYTES_PER_VALUE`]
//!   bytes each, so the envelope never blows up past a small constant
//!   factor of the raw width.
//!
//! Decoding is strict: every varint read is bounds-checked, the declared
//! element count is validated against a caller-supplied expectation, and
//! runs must cover the count exactly — so *any* truncated or corrupted
//! prefix surfaces as a [`CodecError`], never as a silently wrong column
//! (the envelope's every-prefix-errors property depends on this).

use bytes::{BufMut, BytesMut};

use crate::io::CodecError;

/// Worst-case encoded bytes per element: a maximal run-length varint
/// (1 byte for a singleton run) plus a maximal 10-byte zig-zag delta.
pub const MAX_BYTES_PER_VALUE: usize = 11;

/// Upper bound accepted for a decoded column length; columns beyond this
/// are rejected as corrupt before any allocation happens.
pub const MAX_COLUMN_LEN: usize = 1 << 28;

/// Appends `v` as an LEB128 varint.
#[inline]
pub fn put_varint(b: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            b.put_u8(byte);
            return;
        }
        b.put_u8(byte | 0x80);
    }
}

/// Reads an LEB128 varint, rejecting truncation and non-canonical
/// overlong encodings that would overflow 64 bits.
#[inline]
pub fn get_varint(buf: &mut &[u8]) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let (&byte, rest) = buf.split_first().ok_or(CodecError::Truncated)?;
        *buf = rest;
        let payload = u64::from(byte & 0x7f);
        if shift == 63 && payload > 1 {
            return Err(CodecError::Corrupt("varint overflows u64"));
        }
        v |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(CodecError::Corrupt("varint longer than 10 bytes"))
}

/// Zig-zag maps a signed delta into an unsigned varint-friendly value.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes a `u64` column: varint element count, then `(run_len,
/// zigzag(delta))` varint pairs whose run lengths sum to the count.
pub fn encode_u64_column(vals: &[u64], out: &mut BytesMut) {
    put_varint(out, vals.len() as u64);
    let mut prev: u64 = 0;
    let mut i = 0;
    while i < vals.len() {
        let delta = vals[i].wrapping_sub(prev) as i64;
        let mut run = 1usize;
        while i + run < vals.len() && vals[i + run].wrapping_sub(vals[i + run - 1]) as i64 == delta
        {
            run += 1;
        }
        put_varint(out, run as u64);
        put_varint(out, zigzag(delta));
        prev = vals[i + run - 1];
        i += run;
    }
}

/// Decodes a column written by [`encode_u64_column`]. When `expected` is
/// `Some(n)`, a column of any other length is rejected as corrupt.
pub fn decode_u64_column(buf: &mut &[u8], expected: Option<usize>) -> Result<Vec<u64>, CodecError> {
    let n = get_varint(buf)? as usize;
    if n > MAX_COLUMN_LEN {
        return Err(CodecError::Corrupt("column length exceeds cap"));
    }
    if let Some(want) = expected {
        if n != want {
            return Err(CodecError::Corrupt("column length mismatch"));
        }
    }
    // Reserve no more than the remaining input could justify: a lying
    // header must not buy a large allocation before a byte is read. The
    // vector grows as runs actually decode.
    let mut vals = Vec::with_capacity(n.min(buf.len()));
    let mut prev: u64 = 0;
    while vals.len() < n {
        let run = get_varint(buf)? as usize;
        if run == 0 || run > n - vals.len() {
            return Err(CodecError::Corrupt("run overflows column"));
        }
        let delta = unzigzag(get_varint(buf)?) as u64;
        for _ in 0..run {
            prev = prev.wrapping_add(delta);
            vals.push(prev);
        }
    }
    Ok(vals)
}

/// Encodes an `f64` column via its raw bit patterns (bit-exact, NaN- and
/// signed-zero-preserving).
pub fn encode_f64_column(vals: &[f64], out: &mut BytesMut) {
    let bits: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
    encode_u64_column(&bits, out);
}

/// Decodes a column written by [`encode_f64_column`].
pub fn decode_f64_column(buf: &mut &[u8], expected: Option<usize>) -> Result<Vec<f64>, CodecError> {
    let bits = decode_u64_column(buf, expected)?;
    Ok(bits.into_iter().map(f64::from_bits).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(vals: &[u64]) -> usize {
        let mut b = BytesMut::new();
        encode_u64_column(vals, &mut b);
        let mut buf = &b[..];
        let back = decode_u64_column(&mut buf, Some(vals.len())).unwrap();
        assert_eq!(back, vals);
        assert!(buf.is_empty(), "decoder must consume the whole column");
        b.len()
    }

    #[test]
    fn varint_roundtrips_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut b = BytesMut::new();
            put_varint(&mut b, v);
            let mut buf = &b[..];
            assert_eq!(get_varint(&mut buf).unwrap(), v);
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        assert!(matches!(
            get_varint(&mut &[0x80u8, 0x80][..]),
            Err(CodecError::Truncated)
        ));
        // 10 continuation bytes with a too-large final payload.
        let overlong = [0xffu8; 9]
            .iter()
            .chain(&0x7fu8.to_le_bytes()[..1])
            .copied()
            .collect::<Vec<_>>();
        assert!(get_varint(&mut &overlong[..]).is_err());
    }

    #[test]
    fn constant_column_is_two_runs() {
        let vals = vec![42u64; 10_000];
        let n = roundtrip(&vals);
        assert!(n < 16, "constant column took {n} bytes");
    }

    #[test]
    fn ramp_column_is_one_run_per_stride() {
        let vals: Vec<u64> = (0..10_000u64).map(|i| 1000 + 8 * i).collect();
        let n = roundtrip(&vals);
        assert!(n < 16, "arithmetic ramp took {n} bytes");
    }

    #[test]
    fn distinct_column_is_bounded() {
        // SplitMix-style scramble: no two deltas equal, worst case for RLE.
        let vals: Vec<u64> = (0..4096u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(31))
            .collect();
        let n = roundtrip(&vals);
        assert!(
            n <= MAX_BYTES_PER_VALUE * vals.len() + 10,
            "distinct column took {n} bytes"
        );
    }

    #[test]
    fn empty_column_roundtrips() {
        assert!(roundtrip(&[]) >= 1);
    }

    #[test]
    fn f64_column_is_bit_exact() {
        let vals = [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, -1e300, 3.7e-12];
        let mut b = BytesMut::new();
        encode_f64_column(&vals, &mut b);
        let back = decode_f64_column(&mut &b[..], Some(vals.len())).unwrap();
        for (a, x) in back.iter().zip(&vals) {
            assert_eq!(a.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn decode_rejects_length_mismatch_and_overrun() {
        let mut b = BytesMut::new();
        encode_u64_column(&[1, 2, 3], &mut b);
        assert!(decode_u64_column(&mut &b[..], Some(4)).is_err());

        // A run that claims more elements than the declared count.
        let mut bad = BytesMut::new();
        put_varint(&mut bad, 2); // count
        put_varint(&mut bad, 3); // run of 3 > 2
        put_varint(&mut bad, 0);
        assert!(decode_u64_column(&mut &bad[..], None).is_err());

        // A zero-length run can never make progress.
        let mut zero = BytesMut::new();
        put_varint(&mut zero, 2);
        put_varint(&mut zero, 0);
        put_varint(&mut zero, 0);
        assert!(decode_u64_column(&mut &zero[..], None).is_err());
    }

    #[test]
    fn every_truncated_prefix_errors() {
        let vals: Vec<u64> = (0..257u64).map(|i| i * i).collect();
        let mut b = BytesMut::new();
        encode_u64_column(&vals, &mut b);
        for cut in 0..b.len() {
            assert!(
                decode_u64_column(&mut &b[..cut], Some(vals.len())).is_err(),
                "prefix of {cut} bytes unexpectedly decoded"
            );
        }
    }
}
