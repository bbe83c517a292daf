package search

import (
	"sort"
	"strings"

	"metamess/internal/fingerprint"
	"metamess/internal/hierarchy"
	"metamess/internal/semdiv"
)

// KnowledgeExpander rewrites query terms using the curated knowledge
// base: synonyms and abbreviations resolve to preferred names at full
// weight; bare multi-context bases additionally expand to every
// context-qualified variable at a small penalty, so a query for
// "temperature" finds both air_temperature and water_temperature. With
// IncludeAlternates set (the default), a resolved term also expands to
// the curated alternate surface forms — the search-time-only alternative
// to wrangling, which finds curated-messy names even in an unwrangled
// catalog.
type KnowledgeExpander struct {
	load func() *semdiv.Knowledge
	// ContextWeight is the weight of context-qualified expansions
	// (default 0.9).
	ContextWeight float64
	// AlternateWeight is the weight of reverse (canonical-to-alternate)
	// expansions (default 0.95).
	AlternateWeight float64
	// IncludeAlternates enables reverse expansion.
	IncludeAlternates bool

	canonByKey map[string]string
}

// NewKnowledgeExpander builds an expander over the knowledge base load
// returns, called once per Expand: loading an atomically published,
// never-edited value lets curators publish knowledge while searches run.
func NewKnowledgeExpander(load func() *semdiv.Knowledge) *KnowledgeExpander {
	e := &KnowledgeExpander{
		load:              load,
		ContextWeight:     0.9,
		AlternateWeight:   0.95,
		IncludeAlternates: true,
		canonByKey:        make(map[string]string),
	}
	for _, v := range load().Vocabulary {
		e.canonByKey[normKey(v.Name)] = v.Name
	}
	return e
}

// Expand implements Expander.
func (e *KnowledgeExpander) Expand(term string) []Expansion {
	weights := make(map[string]float64)
	add := func(name string, w float64) {
		if name == "" {
			return
		}
		if w > weights[name] {
			weights[name] = w
		}
	}
	add(term, 1)
	k := e.load()

	// Abbreviation dictionary.
	if canon, ok := k.Abbrevs[normKey(term)]; ok {
		add(canon, 1)
	}
	// Synonym table, plus reverse expansion to the curated surface forms.
	if pref, st := k.Synonyms.Resolve(term); st != 0 { // Preferred or Alternate
		add(pref, 1)
		if e.IncludeAlternates {
			for _, alt := range k.Synonyms.AlternatesOf(pref) {
				add(alt, e.AlternateWeight)
			}
		}
	}
	// Context qualification: a bare base concept expands to each
	// qualified canonical variable.
	base := term
	if ctxs := k.Contexts.TaxonomiesOf(base); len(ctxs) > 0 {
		for _, ctx := range ctxs {
			qualified := hierarchy.Qualified(ctx, base)
			if canon, ok := e.canonByKey[normKey(qualified)]; ok {
				w := e.ContextWeight
				if len(ctxs) == 1 {
					w = 1 // unambiguous context loses nothing
				}
				add(canon, w)
			}
		}
	}

	out := make([]Expansion, 0, len(weights))
	for name, w := range weights {
		out = append(out, Expansion{Name: name, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func normKey(s string) string { return strings.Join(fingerprint.Tokens(s), "") }
