// Package fingerprint implements the key-collision normalizations used to
// discover transformations over messy variable names: the classic "key
// fingerprint" (case/punctuation/word-order insensitive), character
// n-gram fingerprints, and a simplified phonetic code.
//
// Two raw names that produce the same fingerprint are candidates for the
// same canonical variable; the cluster package groups values by these
// keys exactly as Google Refine's key-collision clustering does.
package fingerprint

import (
	"sort"
	"strings"
	"unicode"
)

// Key returns the key fingerprint of s: trim, lower-case, strip
// punctuation and control characters, fold common diacritics, split into
// whitespace-separated tokens, sort and de-duplicate the tokens, and join
// with single spaces. Word-order and punctuation differences collapse:
// "Air_Temperature", "temperature, air", and "AIR TEMPERATURE" all
// fingerprint to "air temperature".
func Key(s string) string {
	tokens := tokenize(s)
	if len(tokens) == 0 {
		return ""
	}
	sort.Strings(tokens)
	out := tokens[:1]
	for _, t := range tokens[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return strings.Join(out, " ")
}

// NGram returns the n-gram fingerprint of s: normalize as Key does but
// without tokenizing, remove all whitespace, then collect the sorted,
// de-duplicated set of rune n-grams joined together. Small typos only
// disturb a few n-grams, so near-identical strings still collide for
// small n. n must be at least 1; values below 1 are treated as 1.
func NGram(s string, n int) string {
	if n < 1 {
		n = 1
	}
	norm := strings.Join(tokenize(s), "")
	runes := []rune(norm)
	if len(runes) == 0 {
		return ""
	}
	if len(runes) <= n {
		return string(runes)
	}
	grams := make([]string, 0, len(runes)-n+1)
	for i := 0; i+n <= len(runes); i++ {
		grams = append(grams, string(runes[i:i+n]))
	}
	sort.Strings(grams)
	var b strings.Builder
	last := ""
	for _, g := range grams {
		if g == last {
			continue
		}
		b.WriteString(g)
		last = g
	}
	return b.String()
}

// phoneticReplacer collapses Phonetic's digraph confusions. A Replacer
// is immutable and safe for concurrent use, so one serves every call.
var phoneticReplacer = strings.NewReplacer(
	"ph", "f", "gh", "g", "ck", "k", "sch", "sk",
	"qu", "kw", "x", "ks", "z", "s", "wr", "r",
	"mb", "m", "tio", "sho", "tia", "sha", "ce", "se",
	"ci", "si", "cy", "sy", "c", "k",
)

// Phonetic returns a simplified metaphone-style phonetic code for s: the
// normalized string with vowels (except a leading one) removed and
// common digraph confusions collapsed (ph→f, ck→k, etc.), then
// de-duplicated consecutive runes. "fluoresence" and "fluorescence"
// produce the same code.
func Phonetic(s string) string {
	norm := strings.Join(tokenize(s), "")
	if norm == "" {
		return ""
	}
	norm = phoneticReplacer.Replace(norm)
	var b strings.Builder
	var last rune = -1
	for i, r := range norm {
		isVowel := strings.ContainsRune("aeiou", r)
		if isVowel && i != 0 {
			continue
		}
		if r == last {
			continue
		}
		b.WriteRune(r)
		last = r
	}
	return b.String()
}

// Tokens returns the normalized word tokens of s in their original order.
// Used by vocabulary matching and hierarchy grouping.
func Tokens(s string) []string { return tokenize(s) }

// Normalize lower-cases s, folds punctuation to spaces, and collapses
// whitespace runs, preserving token order (unlike Key, which sorts).
func Normalize(s string) string { return strings.Join(tokenize(s), " ") }

// tokenize lower-cases, folds diacritics for a small common set, maps
// punctuation/underscores/digit-letter boundaries to separators, and
// splits on whitespace. Digits are preserved as their own tokens so that
// "fluores375" tokenizes to ["fluores", "375"].
func tokenize(s string) []string {
	var b strings.Builder
	b.Grow(len(s) + 8)
	prevClass := 0 // 0 none, 1 letter, 2 digit
	for _, r := range strings.TrimSpace(s) {
		r = foldRune(r)
		switch {
		case unicode.IsLetter(r):
			if prevClass == 2 {
				b.WriteByte(' ')
			}
			b.WriteRune(unicode.ToLower(r))
			prevClass = 1
		case unicode.IsDigit(r):
			if prevClass == 1 {
				b.WriteByte(' ')
			}
			b.WriteRune(r)
			prevClass = 2
		default:
			b.WriteByte(' ')
			prevClass = 0
		}
	}
	return strings.Fields(b.String())
}

// foldRune maps a handful of common accented letters to ASCII; a full
// Unicode decomposition is unnecessary for environmental variable names.
func foldRune(r rune) rune {
	switch r {
	case 'á', 'à', 'â', 'ä', 'ã', 'å', 'Á', 'À', 'Â', 'Ä', 'Ã', 'Å':
		return 'a'
	case 'é', 'è', 'ê', 'ë', 'É', 'È', 'Ê', 'Ë':
		return 'e'
	case 'í', 'ì', 'î', 'ï', 'Í', 'Ì', 'Î', 'Ï':
		return 'i'
	case 'ó', 'ò', 'ô', 'ö', 'õ', 'Ó', 'Ò', 'Ô', 'Ö', 'Õ':
		return 'o'
	case 'ú', 'ù', 'û', 'ü', 'Ú', 'Ù', 'Û', 'Ü':
		return 'u'
	case 'ñ', 'Ñ':
		return 'n'
	case 'ç', 'Ç':
		return 'c'
	default:
		return r
	}
}
