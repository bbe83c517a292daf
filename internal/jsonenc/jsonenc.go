// Package jsonenc holds the append primitives of the repository's
// hand-written JSON encoders (the catalog's record kernel and the
// server's response kernel). Each writes exactly the bytes
// encoding/json.Marshal writes for the same Go value, so a kernel built
// on them stays byte-identical to the reflective encoder it replaces.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// esc says how json.Marshal writes an ASCII byte inside a string: 0
// verbatim, 'u' as \u00XX, any other value c as a backslash and c. With
// HTML escaping on, as in json.Marshal, '<', '>' and '&' take \u00XX.
var esc = func() (t [utf8.RuneSelf]byte) {
	for b := 0; b < 0x20; b++ {
		t[b] = 'u'
	}
	t['<'], t['>'], t['&'] = 'u', 'u', 'u'
	t['"'], t['\\'], t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = '"', '\\', 'b', 'f', 'n', 'r', 't'
	return t
}()

// AppendString appends s quoted as json.Marshal writes a string: ASCII
// escaped as esc says, U+2028 and U+2029 as \u202X, and each byte of
// invalid UTF-8 as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if e := esc[b]; e == 'u' {
				dst = append(append(dst, s[start:i]...), '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
				start = i + 1
			} else if e != 0 {
				dst = append(append(dst, s[start:i]...), '\\', e)
				start = i + 1
			}
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
			start = i + size
		} else if c == '\u2028' || c == '\u2029' {
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(dst, s[start:]...), '"')
}

// AppendFloat appends f as json.Marshal writes a float64: shortest
// round-trip digits, 'e' form outside [1e-6, 1e21) with the exponent's
// leading zero dropped. NaN and ±Inf, which json.Marshal refuses, return
// dst unchanged and false.
func AppendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}
