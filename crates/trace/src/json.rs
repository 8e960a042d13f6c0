//! The workspace's one JSON module: the string escaper and fixed
//! float format every artifact writer uses, plus a minimal offline
//! reader (the vendored serde is an inert stub, so there is no
//! `serde_json`) so tests, `ci.sh` and the checkpoint parser can read
//! those artifacts back.
//!
//! Escaping writes `"` `\\` `\n` `\r` `\t` as two-character escapes,
//! every other control character below U+0020 as `\u00XX`, and
//! everything else verbatim, so [`parse_json`] of a quoted [`escape`]
//! of any string is that string.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends `s` to `out`, escaped for a JSON string literal.
///
/// Every character that needs escaping is ASCII, and no byte of a
/// multi-byte UTF-8 sequence is ASCII, so the scan runs over bytes and
/// copies each run between escapes in one push — a string that needs
/// no escaping, the common case, is a single `push_str`.
pub(crate) fn escape_into(s: &str, out: &mut String) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// `s` escaped for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// A float in the fixed four-decimal format of every JSON artifact.
pub fn json_f64(x: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, x);
    out
}

/// Appends `v` in decimal without the formatting machinery.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

/// Appends the low `width` (at most 9) decimal digits of `v`,
/// zero-padded.
fn push_padded(out: &mut String, mut v: u64, width: usize) {
    let mut digits = [b'0'; 9];
    for d in digits[..width].iter_mut().rev() {
        *d = b'0' + (v % 10) as u8;
        v /= 10;
    }
    for &d in &digits[..width] {
        out.push(char::from(d));
    }
}

/// Appends the decimal digits of the integer `m · 2^e`, for
/// `m < 2^53`: in a `u64` while it fits, else in base-10^9 limbs (an
/// `f64` has at most 309 integer digits).
fn push_pow2_multiple(out: &mut String, m: u64, e: u32) {
    if e <= 11 {
        push_u64(out, m << e);
        return;
    }
    const BASE: u64 = 1_000_000_000;
    // Least significant first. `m >= 2^52` here (only normal floats
    // have `e >= 0`), so the top limb is never zero.
    let mut limbs = vec![m % BASE, m / BASE];
    let mut left = e;
    while left > 0 {
        // A limb is below 2^30, so `limb << 29` plus a carry below
        // BASE fits in a `u64`, and the carry out stays below BASE.
        let shift = left.min(29);
        let mut carry = 0;
        for limb in &mut limbs {
            let v = (*limb << shift) + carry;
            *limb = v % BASE;
            carry = v / BASE;
        }
        if carry > 0 {
            limbs.push(carry);
        }
        left -= shift;
    }
    let (top, rest) = limbs.split_last().expect("two limbs at least");
    push_u64(out, *top);
    for &limb in rest.iter().rev() {
        push_padded(out, limb, 9);
    }
}

/// Appends `x` exactly as `{x:.4}` renders it, with integer
/// arithmetic alone for every finite `x`. `{:.4}` prints the exact
/// decimal value of `x` rounded to four places, ties to even, with
/// the sign whenever it is set (`-0.0` and negatives that round to
/// zero print `-0.0000`). A finite `x` is exactly `m · 2^e` for
/// integers `m < 2^53` and `e`, so:
///
/// * for `e >= 0`, `x` is the integer `m · 2^e`, written with `.0000`;
/// * for `e < 0`, the integer part is `m >> -e`, and the fraction
///   `f / 2^-e` (`f` the low `-e` bits of `m`) is `q + r / 2^-e` units
///   of 10^-4, where `q` and `r` are the quotient and remainder of the
///   exact product `f · 10^4` (below 2^67, so a `u128`) by `2^-e`. `q`
///   rounds up when `r` is above half a unit, or exactly half and `q`
///   odd — `q`'s parity is the whole number's, since 10^4 is even — and
///   a round-up to 10^4 carries into the integer part.
///
/// Only NaN and the infinities reach the formatter.
pub(crate) fn push_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        let _ = write!(out, "{x:.4}");
        return;
    }
    if x.is_sign_negative() {
        out.push('-');
    }
    let bits = x.to_bits();
    let biased = (bits >> 52 & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    // Subnormals have no implicit leading bit.
    let (m, e) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    if e >= 0 {
        push_pow2_multiple(out, m, e.unsigned_abs());
        out.push_str(".0000");
        return;
    }
    let k = e.unsigned_abs();
    let (mut int, f) = if k < 64 {
        (m >> k, m & ((1 << k) - 1))
    } else {
        (0, m)
    };
    let scaled = u128::from(f) * 10_000;
    // From k = 68 on, `scaled < 2^67 <= 2^(k-1)`: under half a unit.
    let mut q = if k < 68 {
        let q = (scaled >> k) as u64;
        let r = scaled & ((1 << k) - 1);
        let half = 1 << (k - 1);
        q + u64::from(r > half || (r == half && q & 1 == 1))
    } else {
        0
    };
    if q == 10_000 {
        int += 1;
        q = 0;
    }
    push_u64(out, int);
    out.push('.');
    push_padded(out, q, 4);
}

/// A parsed JSON value (offline stand-in for `serde_json::Value`).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, key-sorted.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            Self::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.error("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::String(self.string()?)),
            b't' if self.eat_literal("true") => Ok(JsonValue::Bool(true)),
            b'f' if self.eat_literal("false") => Ok(JsonValue::Bool(false)),
            b'n' if self.eat_literal("null") => Ok(JsonValue::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.error("unexpected character")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self
                .peek()
                .ok_or_else(|| self.error("unterminated string"))?
            {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // exporter; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                b if b < 0x80 => {
                    self.pos += 1;
                    out.push(b as char);
                }
                b => {
                    // Consume one multi-byte UTF-8 character. Decoding
                    // only its own bytes (length from the leading byte)
                    // keeps string parsing linear — validating the whole
                    // remaining input per character made large documents
                    // quadratic to parse.
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(self.error("invalid utf-8")),
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| self.error("invalid utf-8"))?;
                    let c = std::str::from_utf8(chunk)
                        .map_err(|_| self.error("invalid utf-8"))?
                        .chars()
                        .next()
                        .ok_or_else(|| self.error("invalid utf-8"))?;
                    self.pos += len;
                    out.push(c);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error("invalid number"))
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a human-readable message with the failing byte offset.
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing data"));
    }
    Ok(v)
}

/// Decodes the JSON string literal at the start of `s` (after optional
/// whitespace), ignoring whatever follows it — the piece line-oriented
/// parsers use to read a string field back.
///
/// # Errors
///
/// Returns a human-readable message with the failing byte offset.
pub fn read_string(s: &str) -> Result<String, String> {
    let mut p = Parser::new(s);
    p.skip_ws();
    p.string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escaper_matches_the_artifact_writers_table() {
        // The bytes every artifact writer has always produced.
        let table = [
            ("plain", "plain"),
            ("a\"b", "a\\\"b"),
            ("a\\b", "a\\\\b"),
            ("line\nbreak", "line\\nbreak"),
            ("cr\rlf", "cr\\rlf"),
            ("tab\there", "tab\\there"),
            ("\u{01}", "\\u0001"),
            ("\u{1f}", "\\u001f"),
            ("\u{7f}", "\u{7f}"),
            ("Pentium® 4 — ±2%", "Pentium® 4 — ±2%"),
            ("", ""),
        ];
        for (input, expected) in table {
            assert_eq!(escape(input), expected, "escaping {input:?}");
            let mut appended = String::from(">");
            escape_into(input, &mut appended);
            assert_eq!(appended, format!(">{expected}"));
        }
    }

    #[test]
    fn floats_are_fixed_precision() {
        assert_eq!(json_f64(1.0), "1.0000");
        assert_eq!(json_f64(2.5), "2.5000");
        assert_eq!(json_f64(-0.12345), "-0.1235");
    }

    /// `push_f64` of `x`, checked against the formatter it replaces.
    fn rendered(x: f64) -> String {
        let mut out = String::new();
        push_f64(&mut out, x);
        assert_eq!(out, format!("{x:.4}"), "bits {:#018x}", x.to_bits());
        out
    }

    #[test]
    fn float_rendering_matches_the_formatter_on_its_edge_cases() {
        let two52 = 4_503_599_627_370_496.0;
        let two53 = 9_007_199_254_740_992.0;
        let table = [
            // Ties round to even.
            (0.03125, "0.0312"),
            (0.09375, "0.0938"),
            (-0.03125, "-0.0312"),
            (2.5e-5, "0.0000"),
            (7.5e-5, "0.0001"),
            // Round-ups that carry into the integer part.
            (0.99995, "1.0000"),
            (9.99995, "10.0000"),
            (-9.99995, "-10.0000"),
            // Subnormals, signed zeros and tiny negatives keep the sign.
            (5e-324, "0.0000"),
            (-5e-324, "-0.0000"),
            (0.0, "0.0000"),
            (-0.0, "-0.0000"),
            (-1e-5, "-0.0000"),
            // Around 2^52, the last magnitude with fraction bits, and 2^53.
            (two52 - 0.5, "4503599627370495.5000"),
            (two52, "4503599627370496.0000"),
            (two53 - 1.0, "9007199254740991.0000"),
            (two53, "9007199254740992.0000"),
            (two53 + 2.0, "9007199254740994.0000"),
            (-(two53 + 2.0), "-9007199254740994.0000"),
            (u64::MAX as f64, "18446744073709551616.0000"),
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
        ];
        for (x, expected) in table {
            assert_eq!(rendered(x), expected, "rendering {x:e}");
        }
        rendered(f64::MAX);
        rendered(f64::MIN_POSITIVE);
        rendered(-f64::MIN_POSITIVE);
        for k in 0..64_000 {
            rendered(f64::from(k) / 32.0);
            rendered(-f64::from(k) / 64.0);
            rendered(f64::from(k) / 20_000.0);
        }
    }

    proptest! {
        /// `push_f64` renders every float byte for byte as `{:.4}`
        /// does: arbitrary bit patterns (subnormals, every exponent,
        /// NaN payloads) and uniform values in [-100, 100). Case count
        /// is pinned by `PROPTEST_CASES`.
        #[test]
        fn float_rendering_matches_the_formatter(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            for _ in 0..256 {
                let bits = f64::from_bits(rng.next_u64());
                let uniform = rng.unit_f64() * 200.0 - 100.0;
                for x in [bits, uniform] {
                    let mut out = String::new();
                    push_f64(&mut out, x);
                    prop_assert_eq!(out, format!("{x:.4}"), "bits {:#018x}", x.to_bits());
                }
            }
        }
    }

    #[test]
    fn read_string_decodes_the_leading_literal() {
        let s = read_string(r#" "a,b\"c\\d\te", "next": 1"#).unwrap();
        assert_eq!(s, "a,b\"c\\d\te");
        assert!(read_string("bare").is_err());
        assert!(read_string("\"open").is_err());
    }

    #[test]
    fn parser_handles_scalars_and_nesting() {
        let v = parse_json(r#"{"a":[1,-2.5e1,true,false,null,"s"],"b":{}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-25.0));
        assert_eq!(a[2], JsonValue::Bool(true));
        assert_eq!(a[4], JsonValue::Null);
        assert_eq!(a[5].as_str(), Some("s"));
        assert_eq!(v.get("b"), Some(&JsonValue::Object(BTreeMap::new())));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    /// Characters the escaper treats specially, mixed with arbitrary
    /// code points so every escape path meets every other.
    fn any_char() -> impl Strategy<Value = char> {
        (
            0u32..4,
            0u32..0x11_0000,
            sample::select(['"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}']),
        )
            .prop_map(|(pick, code, special)| match pick {
                0 => special,
                1 => char::from_u32(code % 0x20).unwrap_or('?'),
                _ => char::from_u32(code).unwrap_or('\u{fffd}'),
            })
    }

    proptest! {
        /// `parse_json` of a quoted escape is the original string. Case
        /// count is pinned by `PROPTEST_CASES`.
        #[test]
        fn escaped_strings_round_trip(chars in collection::vec(any_char(), 0..40)) {
            let s: String = chars.into_iter().collect();
            let quoted = format!("\"{}\"", escape(&s));
            prop_assert_eq!(parse_json(&quoted), Ok(JsonValue::String(s.clone())));
            prop_assert_eq!(read_string(&quoted), Ok(s));
        }
    }
}
