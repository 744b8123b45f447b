//! The one hex codec of the persisted plan and schedule formats.
//!
//! The decoder accepts exactly what [`encode`] writes — pairs of ASCII hex
//! digits — and reads any other input, including multi-byte UTF-8 and the
//! sign prefixes `u8::from_str_radix` would take, as corrupt: a cache miss,
//! never a panic.

/// Lowercase hex of `bytes`, two digits per byte.
pub(crate) fn encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The bytes `text` encodes, or `None` unless it is an even-length string
/// of ASCII hex digits.
pub(crate) fn decode(text: &str) -> Option<Vec<u8>> {
    let digit = |c: u8| (c as char).to_digit(16).map(|d| d as u8);
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    bytes
        .chunks_exact(2)
        .map(|p| Some(digit(p[0])? << 4 | digit(p[1])?))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_rejects_non_hex() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(decode(&encode(&bytes)), Some(bytes));
        assert_eq!(decode("0aFf"), Some(vec![0x0a, 0xff]));
        assert_eq!(decode(""), Some(vec![]));
        for bad in ["0", "0g", "+f", "-1", " 1", "é0", "0é", "aé"] {
            assert_eq!(decode(bad), None, "{bad:?}");
        }
    }
}
