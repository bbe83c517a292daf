package semdiv

import (
	"testing"

	"metamess/internal/vocab"
)

func TestKnowledgeEncodeMergeRoundTrip(t *testing.T) {
	k, err := NewKnowledge(vocab.Standard())
	if err != nil {
		t.Fatal(err)
	}
	// Curated additions beyond the vocabulary seed.
	if err := k.Synonyms.Add("water_temperature", "exotic_wtemp_v9"); err != nil {
		t.Fatal(err)
	}
	k.Abbrevs["xwt"] = "water_temperature"
	k.Ambiguous["vel"] = []string{"water_velocity", "velocity_flag"}

	data, err := EncodeKnowledge(k)
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewKnowledge(vocab.Standard())
	if err != nil {
		t.Fatal(err)
	}
	if err := MergeEncodedKnowledge(back, data); err != nil {
		t.Fatal(err)
	}
	if !back.Synonyms.Covers("exotic_wtemp_v9") {
		t.Error("curated synonym lost")
	}
	if back.Abbrevs["xwt"] != "water_temperature" {
		t.Errorf("curated abbrev = %q", back.Abbrevs["xwt"])
	}
	if len(back.Ambiguous["vel"]) != 2 {
		t.Errorf("curated ambiguity = %v", back.Ambiguous["vel"])
	}
	// Vocabulary-derived seed still present.
	if !back.Synonyms.Covers("airtemp") {
		t.Error("seed synonym lost")
	}
	if len(back.Contexts.Names()) < 2 {
		t.Error("contexts not rebuilt")
	}
	// A full dump merged over a fresh seed reproduces the original.
	again, err := EncodeKnowledge(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("encode -> merge -> encode is not the identity")
	}

	// The merged knowledge classifies like the original.
	a, b := NewClassifier(k), NewClassifier(back)
	for _, name := range []string{"exotic_wtemp_v9", "xwt", "airtemp", "qa_level", "temp"} {
		fa, fb := a.Classify(name), b.Classify(name)
		if fa.Category != fb.Category || fa.Canonical != fb.Canonical {
			t.Errorf("classification of %q diverged: %s/%s vs %s/%s",
				name, fa.Category, fa.Canonical, fb.Category, fb.Canonical)
		}
	}
}

func TestMergeEncodedKnowledgeErrors(t *testing.T) {
	k, err := NewKnowledge(vocab.Standard())
	if err != nil {
		t.Fatal(err)
	}
	if err := MergeEncodedKnowledge(k, []byte("not json")); err == nil {
		t.Error("bad JSON accepted")
	}
	if err := MergeEncodedKnowledge(k, []byte(`{"version": 9}`)); err == nil {
		t.Error("unknown version accepted")
	}
}
