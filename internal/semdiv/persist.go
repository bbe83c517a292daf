package semdiv

import (
	"encoding/json"
	"fmt"
	"sort"

	"metamess/internal/synonym"
)

// knowledgeFile is the encoded form of the curated knowledge base, so a
// curator's accumulated work (synonyms, abbreviations, ambiguity rulings)
// survives a restart.
type knowledgeFile struct {
	Version int `json:"version"`
	// Synonyms maps preferred names to alternates.
	Synonyms map[string][]string `json:"synonyms"`
	// Abbrevs maps abbreviation forms to canonical names.
	Abbrevs map[string]string `json:"abbrevs"`
	// ExcessivePrefixes and ExcessiveSuffixes mark bookkeeping names.
	ExcessivePrefixes []string `json:"excessivePrefixes"`
	ExcessiveSuffixes []string `json:"excessiveSuffixes"`
	// Ambiguous maps short forms to candidate expansions.
	Ambiguous map[string][]string `json:"ambiguous"`
}

// EncodeKnowledge renders the mutable, curator-owned parts of the
// knowledge base (the vocabulary itself is code, not curation) as JSON
// — the payload the publish journal's knowledge sidecar embeds.
func EncodeKnowledge(k *Knowledge) ([]byte, error) {
	kf := knowledgeFile{
		Version:           1,
		Synonyms:          make(map[string][]string),
		Abbrevs:           make(map[string]string),
		ExcessivePrefixes: k.ExcessivePrefixes,
		ExcessiveSuffixes: k.ExcessiveSuffixes,
		Ambiguous:         k.Ambiguous,
	}
	for _, pref := range k.Synonyms.PreferredNames() {
		kf.Synonyms[pref] = k.Synonyms.AlternatesOf(pref)
	}
	for ab, canon := range k.Abbrevs {
		kf.Abbrevs[ab] = canon
	}
	data, err := json.MarshalIndent(kf, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("semdiv: encode knowledge: %w", err)
	}
	return data, nil
}

// MergeEncodedKnowledge merges curation previously produced by
// EncodeKnowledge into k. Merging a full dump over a fresh
// vocabulary-derived knowledge base reproduces the original state
// exactly (the restore path after a crash), and a curator's partial
// file only needs their additions.
func MergeEncodedKnowledge(k *Knowledge, data []byte) error {
	var kf knowledgeFile
	if err := json.Unmarshal(data, &kf); err != nil {
		return fmt.Errorf("semdiv: decode knowledge: %w", err)
	}
	if kf.Version != 1 {
		return fmt.Errorf("semdiv: unsupported knowledge version %d", kf.Version)
	}
	saved := synonym.NewTable()
	prefs := make([]string, 0, len(kf.Synonyms))
	for p := range kf.Synonyms {
		prefs = append(prefs, p)
	}
	sort.Strings(prefs)
	for _, p := range prefs {
		if err := saved.Add(p, kf.Synonyms[p]...); err != nil {
			return fmt.Errorf("semdiv: saved synonym %q: %w", p, err)
		}
	}
	if err := k.Synonyms.Merge(saved); err != nil {
		return fmt.Errorf("semdiv: merge saved synonyms: %w", err)
	}
	for ab, canon := range kf.Abbrevs {
		k.Abbrevs[normKey(ab)] = canon
	}
	if len(kf.ExcessivePrefixes) > 0 {
		k.ExcessivePrefixes = kf.ExcessivePrefixes
	}
	if len(kf.ExcessiveSuffixes) > 0 {
		k.ExcessiveSuffixes = kf.ExcessiveSuffixes
	}
	for short, cands := range kf.Ambiguous {
		k.Ambiguous[short] = cands
	}
	return nil
}
