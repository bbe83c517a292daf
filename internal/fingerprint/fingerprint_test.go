package fingerprint

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestKeyCollapsesCaseAndPunctuation(t *testing.T) {
	variants := []string{
		"Air_Temperature",
		"air temperature",
		"AIR-TEMPERATURE",
		"temperature, air",
		"  air   temperature  ",
		"Temperature Air",
	}
	want := Key(variants[0])
	if want == "" {
		t.Fatal("empty fingerprint for non-empty input")
	}
	for _, v := range variants[1:] {
		if got := Key(v); got != want {
			t.Errorf("Key(%q) = %q, want %q", v, got, want)
		}
	}
}

func TestKeyDistinguishesDifferentConcepts(t *testing.T) {
	if Key("air_temperature") == Key("water_temperature") {
		t.Error("different concepts collided")
	}
	if Key("salinity") == Key("temperature") {
		t.Error("unrelated names collided")
	}
}

func TestKeyDedupesTokens(t *testing.T) {
	if got, want := Key("temp temp temp"), "temp"; got != want {
		t.Errorf("Key dedup = %q, want %q", got, want)
	}
}

func TestKeyEmpty(t *testing.T) {
	for _, s := range []string{"", "   ", "___", "!!!"} {
		if got := Key(s); got != "" {
			t.Errorf("Key(%q) = %q, want empty", s, got)
		}
	}
}

func TestKeyDiacritics(t *testing.T) {
	if Key("salinité") != Key("salinite") {
		t.Error("diacritic fold failed")
	}
}

func TestNGramToleratesTypos(t *testing.T) {
	// 1-gram fingerprints are just sorted unique letters, so a
	// transposition collides while a different word does not.
	a, b := NGram("air_temperature", 1), NGram("air_temperatrue", 1)
	if a != b {
		t.Errorf("1-gram fingerprints differ: %q vs %q", a, b)
	}
	if NGram("salinity", 1) == NGram("temperature", 1) {
		t.Error("unrelated names collided at n=1")
	}
}

func TestNGramWhitespaceInsensitive(t *testing.T) {
	if NGram("air temperature", 2) != NGram("airtemperature", 2) {
		t.Error("2-gram fingerprint should ignore spaces")
	}
}

func TestNGramShortStrings(t *testing.T) {
	if got := NGram("ph", 3); got != "ph" {
		t.Errorf("NGram short = %q, want %q", got, "ph")
	}
	if got := NGram("", 2); got != "" {
		t.Errorf("NGram empty = %q, want empty", got)
	}
	if got := NGram("abc", 0); got == "" {
		t.Error("NGram with n<1 should clamp to 1, not return empty")
	}
}

func TestPhoneticCollisions(t *testing.T) {
	pairs := [][2]string{
		{"fluorescence", "fluoresence"}, // missing c
		{"phosphate", "fosfate"},
		{"turbidity", "turbiddity"},
	}
	for _, p := range pairs {
		if Phonetic(p[0]) != Phonetic(p[1]) {
			t.Errorf("Phonetic(%q)=%q != Phonetic(%q)=%q",
				p[0], Phonetic(p[0]), p[1], Phonetic(p[1]))
		}
	}
	if Phonetic("oxygen") == Phonetic("salinity") {
		t.Error("unrelated names phonetically collided")
	}
}

func TestTokensSplitsDigits(t *testing.T) {
	got := Tokens("fluores375")
	if len(got) != 2 || got[0] != "fluores" || got[1] != "375" {
		t.Errorf("Tokens(fluores375) = %v, want [fluores 375]", got)
	}
	got = Tokens("CTD_Cast42_temp")
	want := []string{"ctd", "cast", "42", "temp"}
	if len(got) != len(want) {
		t.Fatalf("Tokens = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Tokens[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestNormalizePreservesOrder(t *testing.T) {
	if got, want := Normalize("Water_Temperature (C)"), "water temperature c"; got != want {
		t.Errorf("Normalize = %q, want %q", got, want)
	}
	// Normalize keeps order; Key sorts.
	if Normalize("b a") == Key("b a") && Normalize("b a") != "b a" {
		t.Error("Normalize should preserve token order")
	}
}

func TestKeyIdempotent(t *testing.T) {
	f := func(s string) bool {
		if len(s) > 60 {
			s = s[:60]
		}
		k := Key(s)
		return Key(k) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNGramIdempotentNormalization(t *testing.T) {
	f := func(s string) bool {
		if len(s) > 40 {
			s = s[:40]
		}
		// Fingerprint of the fingerprint of a lowercase alnum string is stable
		// for n=1 because output is sorted unique letters.
		g := NGram(s, 1)
		return NGram(g, 1) == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyOutputIsSortedTokens(t *testing.T) {
	f := func(s string) bool {
		if len(s) > 60 {
			s = s[:60]
		}
		k := Key(s)
		if k == "" {
			return true
		}
		toks := strings.Split(k, " ")
		for i := 1; i < len(toks); i++ {
			if toks[i-1] >= toks[i] {
				return false // must be strictly ascending (sorted + deduped)
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Key("Water_Temperature_Near_Surface (degC)")
	}
}

func BenchmarkNGram2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NGram("Water_Temperature_Near_Surface (degC)", 2)
	}
}

func TestPhoneticCodes(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"fluorescence", "flrsns"},
		{"Sea_Water_Temperature", "swtrtmprtr"},
		{"chlorophyll-a", "khlrfyl"},
		{"Schmidt quench", "skmdtkwnkh"},
		{"dissolved oxygen", "dslvdksygn"},
		{"wrx zmb tion ciacy", "rksmshnsy"},
		{"ph", "f"},
		{"", ""},
		{"Ångström 375", "angstrm375"},
		{"phytoplankton_conc", "fytplnktnknk"},
	} {
		if got := Phonetic(tc.in); got != tc.want {
			t.Errorf("Phonetic(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestPhoneticAllocs bounds a call's allocations. Building the digraph
// replacer allocated ~30 more per call; discovery keys every distinct
// name with it every run.
func TestPhoneticAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Phonetic("sea_water_temperature") }); n > 12 {
		t.Fatalf("Phonetic allocates %v times per call, want at most 12", n)
	}
}
