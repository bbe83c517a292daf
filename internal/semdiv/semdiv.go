// Package semdiv implements the poster's Table 1, "Categories of
// Semantic Diversity, and Possible Approaches": a classifier that sorts
// harvested variable names into the seven categories, and a resolver
// that applies each category's prescribed approach (translate, mark and
// exclude, expose to the curator, qualify by context, group under a
// hierarchy).
package semdiv

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"metamess/internal/fingerprint"
	"metamess/internal/hierarchy"
	"metamess/internal/strdist"
	"metamess/internal/synonym"
	"metamess/internal/vocab"
)

// Category is one of the poster's seven semantic-diversity categories,
// plus Clean (already canonical) and Unknown ("the mess that's left",
// which feeds transformation discovery).
type Category string

// The categories, in the poster's Table 1 order.
const (
	CatMinorVariation Category = "minor-variation" // air_temperatrue, airtemp
	CatSynonym        Category = "synonym"         // C, degC, Centigrade
	CatAbbreviation   Category = "abbreviation"    // MWHLA
	CatExcessive      Category = "excessive"       // qa_level
	CatAmbiguous      Category = "ambiguous"       // temp: temporary or temperature?
	CatSourceContext  Category = "source-context"  // temperature (air or water?)
	CatMultiLevel     Category = "multi-level"     // fluores375 vs fluorescence
	CatClean          Category = "clean"           // already a canonical name
	CatUnknown        Category = "unknown"         // the mess that's left
)

// Categories returns the seven Table-1 categories in presentation order.
func Categories() []Category {
	return []Category{
		CatMinorVariation, CatSynonym, CatAbbreviation, CatExcessive,
		CatAmbiguous, CatSourceContext, CatMultiLevel,
	}
}

// Approach returns the "possible technical approach" column of Table 1
// for a category.
func (c Category) Approach() string {
	switch c {
	case CatMinorVariation, CatSynonym, CatAbbreviation:
		return "translate current to desired name"
	case CatExcessive:
		return "mark variables; exclude from search"
	case CatAmbiguous:
		return "provide interface to specify options"
	case CatSourceContext:
		return "link to multiple taxonomies"
	case CatMultiLevel:
		return "support hierarchical menus"
	case CatClean:
		return "none needed"
	default:
		return "discover transformations"
	}
}

// Finding is the classifier's verdict for one raw name.
type Finding struct {
	// RawName is the harvested name as seen in the archive.
	RawName string
	// Category is the diagnosed semantic-diversity category.
	Category Category
	// Canonical is the resolution target for translatable categories.
	Canonical string
	// Contexts lists the taxonomies containing the base concept, for
	// source-context findings.
	Contexts []string
	// GroupParent is the hierarchy parent for multi-level findings.
	GroupParent string
	// Candidates lists the possible expansions for ambiguous findings.
	Candidates []string
	// Evidence explains the verdict for curator review.
	Evidence string
}

// Knowledge is the curated state the classifier consults: exactly the
// artifacts the poster's curatorial activities maintain.
type Knowledge struct {
	// Synonyms maps alternate names to preferred names.
	Synonyms *synonym.Table
	// Abbrevs maps normalized abbreviations to canonical names.
	Abbrevs map[string]string
	// ExcessivePrefixes and ExcessiveSuffixes mark bookkeeping variables.
	ExcessivePrefixes []string
	ExcessiveSuffixes []string
	// Ambiguous maps short forms to candidate expansions.
	Ambiguous map[string][]string
	// Contexts holds one taxonomy per source context ("air", "water", ...).
	Contexts *hierarchy.Set
	// Vocabulary is the canonical variable list.
	Vocabulary []vocab.Variable
}

// Clone returns a copy of k sharing only the contexts and vocabulary,
// which curation does not edit.
func (k *Knowledge) Clone() *Knowledge {
	c := *k
	c.Synonyms = k.Synonyms.Clone()
	c.Abbrevs = maps.Clone(k.Abbrevs)
	c.ExcessivePrefixes = slices.Clone(k.ExcessivePrefixes)
	c.ExcessiveSuffixes = slices.Clone(k.ExcessiveSuffixes)
	c.Ambiguous = maps.Clone(k.Ambiguous)
	return &c
}

// NewKnowledge builds the knowledge base from a canonical vocabulary,
// seeding the synonym table, abbreviation dictionary, exclusion markers,
// ambiguity dictionary, and per-context taxonomies.
func NewKnowledge(vars []vocab.Variable) (*Knowledge, error) {
	k := &Knowledge{
		Synonyms:          synonym.NewTable(),
		Abbrevs:           make(map[string]string),
		ExcessivePrefixes: vocab.ExcessivePrefixes(),
		ExcessiveSuffixes: vocab.ExcessiveSuffixes(),
		Ambiguous:         vocab.AmbiguousTerms(),
		Contexts:          hierarchy.NewSet(),
		Vocabulary:        vars,
	}
	contexts := make(map[string]*hierarchy.Taxonomy)
	for _, v := range vars {
		if err := k.Synonyms.Add(v.Name, v.Synonyms...); err != nil {
			return nil, fmt.Errorf("semdiv: vocabulary %q: %w", v.Name, err)
		}
		// Abbreviations live in their own dictionary (higher classification
		// precedence) and in the synonym table (reverse query expansion).
		for _, a := range v.Abbrevs {
			k.Abbrevs[normKey(a)] = v.Name
		}
		if err := k.Synonyms.Add(v.Name, v.Abbrevs...); err != nil {
			return nil, fmt.Errorf("semdiv: vocabulary %q abbrevs: %w", v.Name, err)
		}
		if v.Context != "" {
			x, ok := contexts[v.Context]
			if !ok {
				x = hierarchy.NewTaxonomy(v.Context)
				contexts[v.Context] = x
				if err := k.Contexts.Add(x); err != nil {
					return nil, fmt.Errorf("semdiv: context %q: %w", v.Context, err)
				}
			}
			if _, err := x.AddPath(v.Base); err != nil {
				return nil, fmt.Errorf("semdiv: context %q term %q: %w", v.Context, v.Base, err)
			}
		}
	}
	return k, nil
}

// Classifier sorts raw names into categories against a knowledge base.
//
// A Classifier is a snapshot of the knowledge it was built over: it
// memoizes one Finding per raw name, so new knowledge needs a new
// Classifier (core.Context builds one per knowledge value it publishes).
// The memo also makes a Classifier unsafe for concurrent use; concurrent
// callers each build their own.
type Classifier struct {
	k *Knowledge
	// MinorVariationThreshold is the minimum normalized Levenshtein
	// similarity for a fuzzy match against the canonical vocabulary.
	// Changing it drops the memo.
	MinorVariationThreshold float64

	canonByKey  map[string]string // normKey(canonical) -> canonical
	baseByKey   map[string]string // normKey(base) -> base
	contextsFor map[string][]string
	// canon and bases are the fuzzy-match candidates in ascending name
	// order (the deterministic tie-break), each with its normKey computed
	// once here instead of once per fuzzy classification.
	canon, bases []keyedName

	// memo holds the finding of every name classified so far, valid for
	// memoThreshold; its Contexts/Candidates slices are never handed out.
	// Pointer values keep the map's slots small: it is sized to a power
	// of two, and a Finding is 128 bytes.
	memo          map[string]*Finding
	memoThreshold float64
}

// keyedName is a vocabulary name with its precomputed normKey.
type keyedName struct{ name, key string }

// NewClassifier builds a classifier over the knowledge base.
func NewClassifier(k *Knowledge) *Classifier {
	const threshold = 0.82
	c := &Classifier{
		k:                       k,
		MinorVariationThreshold: threshold,
		canonByKey:              make(map[string]string),
		baseByKey:               make(map[string]string),
		contextsFor:             make(map[string][]string),
		memo:                    make(map[string]*Finding),
		memoThreshold:           threshold,
	}
	for _, v := range k.Vocabulary {
		c.canonByKey[normKey(v.Name)] = v.Name
		if v.Base != "" {
			c.baseByKey[normKey(v.Base)] = v.Base
		}
	}
	for key, base := range c.baseByKey {
		c.contextsFor[key] = k.Contexts.TaxonomiesOf(base)
	}
	c.canon = sortedKeyed(c.canonByKey)
	c.bases = sortedKeyed(c.baseByKey)
	return c
}

// Knowledge returns the knowledge base the classifier was built over.
func (c *Classifier) Knowledge() *Knowledge { return c.k }

// sortedKeyed lists a normKey->name map in ascending name order.
func sortedKeyed(byKey map[string]string) []keyedName {
	out := make([]keyedName, 0, len(byKey))
	for key, n := range byKey {
		out = append(out, keyedName{name: n, key: key})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Classify diagnoses one raw name, computing the verdict on the first
// call for a name and answering from the memo afterwards. The returned
// Finding is the caller's: its slices are copies.
func (c *Classifier) Classify(raw string) Finding {
	if c.memoThreshold != c.MinorVariationThreshold {
		c.memo = make(map[string]*Finding)
		c.memoThreshold = c.MinorVariationThreshold
	}
	m, ok := c.memo[raw]
	if !ok {
		f := c.classify(raw)
		m = &f
		c.memo[raw] = m
	}
	f := *m
	f.Contexts = append([]string(nil), f.Contexts...)
	f.Candidates = append([]string(nil), f.Candidates...)
	return f
}

// Retain bounds the memo to the given names: once it holds more entries
// than there are names, every entry for a name outside the list is
// dropped. The wrangling chain calls it at publish with the working
// catalog's current names, so the memo cannot grow with archive history.
func (c *Classifier) Retain(names []string) {
	if len(c.memo) <= len(names) {
		return
	}
	kept := make(map[string]*Finding, len(names))
	for _, n := range names {
		if f, ok := c.memo[n]; ok {
			kept[n] = f
		}
	}
	c.memo = kept
}

// classify runs the checks in specificity order; the first hit wins,
// matching how a curator would triage.
func (c *Classifier) classify(raw string) Finding {
	f := Finding{RawName: raw}
	key := normKey(raw)
	if key == "" {
		f.Category = CatUnknown
		f.Evidence = "empty after normalization"
		return f
	}

	// 1. Excessive bookkeeping variables: marked, never translated.
	lower := strings.ToLower(strings.TrimSpace(raw))
	for _, p := range c.k.ExcessivePrefixes {
		if strings.HasPrefix(lower, p) {
			f.Category = CatExcessive
			f.Evidence = "prefix " + p
			return f
		}
	}
	for _, s := range c.k.ExcessiveSuffixes {
		if strings.HasSuffix(lower, s) {
			f.Category = CatExcessive
			f.Evidence = "suffix " + s
			return f
		}
	}

	// 2. Already canonical. A name that matches a canonical entry only up
	// to case/separators ("windspeed" vs "wind_speed") still needs the
	// translation to the canonical display form, so it is classified as a
	// minor variation rather than clean.
	if canon, ok := c.canonByKey[key]; ok {
		f.Canonical = canon
		if canon == raw {
			f.Category = CatClean
		} else {
			f.Category = CatMinorVariation
			f.Evidence = "canonical up to case/separators"
		}
		return f
	}

	// 3. Abbreviations (checked before the synonym table so the curated
	// abbreviation dictionary, which is higher precision, wins).
	if canon, ok := c.k.Abbrevs[key]; ok {
		f.Category = CatAbbreviation
		f.Canonical = canon
		f.Evidence = "abbreviation dictionary"
		return f
	}

	// 4. Curated synonyms.
	if pref, st := c.k.Synonyms.Resolve(raw); st == synonym.Alternate {
		f.Category = CatSynonym
		f.Canonical = pref
		f.Evidence = "synonym table"
		return f
	}

	// 5. Ambiguous short forms.
	if cands, ok := c.k.Ambiguous[key]; ok {
		f.Category = CatAmbiguous
		f.Candidates = append([]string(nil), cands...)
		f.Evidence = "ambiguity dictionary"
		return f
	}

	// 6. Source-context: the raw name is a bare base concept that occurs
	// in two or more context taxonomies.
	if base, ok := c.baseByKey[key]; ok {
		ctxs := c.contextsFor[key]
		if len(ctxs) >= 2 {
			f.Category = CatSourceContext
			f.Contexts = append([]string(nil), ctxs...)
			f.Evidence = "base concept in multiple contexts"
			return f
		}
		if len(ctxs) == 1 {
			// Unambiguous context: translate to the qualified name.
			qualified := hierarchy.Qualified(ctxs[0], base)
			if canon, ok := c.canonByKey[normKey(qualified)]; ok {
				f.Category = CatSynonym
				f.Canonical = canon
				f.Evidence = "single-context base concept"
				return f
			}
		}
	}

	// 7. Multi-level concepts: numeric-suffix members of a known family.
	if stem, ok := numericStem(raw); ok {
		if base, known := c.baseByKey[normKey(stem)]; known {
			f.Category = CatMultiLevel
			f.GroupParent = base
			f.Evidence = "numeric-suffix member of " + base
			return f
		}
		// The stem may fuzzily match a base (fluores ~ fluorescence).
		if base, sim := c.closestBase(stem); sim >= 0.6 {
			f.Category = CatMultiLevel
			f.GroupParent = base
			f.Evidence = fmt.Sprintf("numeric-suffix stem %.0f%% similar to %s", sim*100, base)
			return f
		}
	}

	// 8. Minor variations and misspellings: fuzzy match against canonical
	// names and their synonyms.
	if canon, sim := c.closestCanonical(raw); sim >= c.MinorVariationThreshold {
		f.Category = CatMinorVariation
		f.Canonical = canon
		f.Evidence = fmt.Sprintf("%.0f%% similar to %s", sim*100, canon)
		return f
	}

	f.Category = CatUnknown
	f.Evidence = "no curated knowledge matches"
	return f
}

// ClassifyAll classifies a batch of names, preserving input order.
func (c *Classifier) ClassifyAll(raws []string) []Finding {
	out := make([]Finding, len(raws))
	for i, r := range raws {
		out[i] = c.Classify(r)
	}
	return out
}

// closestCanonical finds the most similar canonical name, comparing the
// normalized forms so separator noise does not dilute similarity. Ties
// go to the first name in ascending order.
func (c *Classifier) closestCanonical(raw string) (string, float64) {
	rk := normKey(raw)
	best, bestSim := "", 0.0
	for _, canon := range c.canon {
		sim := strdist.LevenshteinSimilarity(rk, canon.key)
		if sim > bestSim {
			best, bestSim = canon.name, sim
		}
	}
	return best, bestSim
}

// closestBase finds the most similar base concept.
func (c *Classifier) closestBase(stem string) (string, float64) {
	sk := normKey(stem)
	best, bestSim := "", 0.0
	for _, base := range c.bases {
		sim := strdist.LevenshteinSimilarity(sk, base.key)
		// A stem that is a strict prefix of the base (fluores ->
		// fluorescence) is strong evidence even at lower edit similarity,
		// so prefix matches are floored well above the acceptance bar.
		if strings.HasPrefix(base.key, sk) && len(sk) >= 4 && sim < 0.75 {
			sim = 0.75
		}
		if sim > bestSim {
			best, bestSim = base.name, sim
		}
	}
	return best, bestSim
}

// numericStem splits "fluores375" into ("fluores", true).
func numericStem(name string) (string, bool) {
	toks := fingerprint.Tokens(name)
	if len(toks) < 2 {
		return "", false
	}
	last := toks[len(toks)-1]
	for _, r := range last {
		if r < '0' || r > '9' {
			return "", false
		}
	}
	stem := strings.Join(toks[:len(toks)-1], " ")
	if stem == "" {
		return "", false
	}
	return stem, true
}

// normKey is the separator-free matching key shared with the synonym
// package's semantics.
func normKey(s string) string { return strings.Join(fingerprint.Tokens(s), "") }
