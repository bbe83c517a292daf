package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzPrimitivesMatchMarshal holds both primitives to json.Marshal: the
// same bytes for every string and every float it accepts, and a decline
// exactly where it errors.
func FuzzPrimitivesMatchMarshal(f *testing.F) {
	for _, s := range []string{"", "plain", "µg/L", "日本語", "a<b>&c", `q"b\s`, "\x00\x1f\b\f\n\r\t\x7f",
		"bad\xffutf8", "\xe2\x80", "line\u2028para\u2029", "\ufffd", "->"} {
		f.Add(s, 0.5)
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99999e-7, 1e20, 1e21, 1.5e21, -1e-300,
		5e-324, math.MaxFloat64, 28.849999999999998, math.Inf(1), math.Inf(-1), math.NaN()} {
		f.Add("", v)
	}
	f.Fuzz(func(t *testing.T, s string, v float64) {
		want, _ := json.Marshal(s)
		if got := AppendString([]byte("x"), s); !bytes.Equal(got[1:], want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal = %s", s, got[1:], want)
		}
		want, err := json.Marshal(v)
		got, ok := AppendFloat([]byte("x"), v)
		if ok != (err == nil) || (ok && !bytes.Equal(got[1:], want)) || (!ok && string(got) != "x") {
			t.Fatalf("AppendFloat(%v) = %s, %v; json.Marshal = %s, %v", v, got, ok, want, err)
		}
	})
}
