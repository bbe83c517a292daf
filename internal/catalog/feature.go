// Package catalog implements the metadata catalog at the center of the
// IR architecture the poster reproduces: each dataset is scanned once and
// summarized into a "feature" (spatial extent, temporal extent, variables
// with observed value ranges); features are stored, indexed, and searched
// instead of the data itself.
//
// Two catalog instances play distinct roles in the wrangling process: the
// *working catalog* that transformation chains mutate, and the published
// *metadata catalog* that search serves. Publish diffs the two and
// applies the difference to the latter as one delta, which reaches the
// served snapshot atomically as delta segments. Both catalogs and every
// snapshot share one copy of each feature: a stored feature is never
// edited in place (see Catalog).
package catalog

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"metamess/internal/geo"
)

// VarFeature summarizes one variable within a dataset.
type VarFeature struct {
	// RawName is the name exactly as harvested from the file.
	RawName string `json:"rawName"`
	// Name is the current (possibly wrangled) variable name; equals
	// RawName until a transformation renames it.
	Name string `json:"name"`
	// Unit is the unit string as harvested; CanonicalUnit is its resolved
	// canonical symbol ("" until unit wrangling runs).
	Unit          string `json:"unit,omitempty"`
	CanonicalUnit string `json:"canonicalUnit,omitempty"`
	// Range is the observed [min,max] of the variable's values.
	Range geo.ValueRange `json:"range"`
	// Count is the number of non-missing observations.
	Count int `json:"count"`
	// Excluded marks bookkeeping variables hidden from search but shown
	// in detailed dataset views (Table 1's "excessive variables" row).
	Excluded bool `json:"excluded,omitempty"`
	// Contexts lists taxonomy links for source-context variables.
	Contexts []string `json:"contexts,omitempty"`
	// Parent is the hierarchy parent for multi-level concepts.
	Parent string `json:"parent,omitempty"`
}

// Feature is the per-dataset summary record stored in the catalog.
type Feature struct {
	// ID is a stable content-addressed identifier derived from Path.
	ID string `json:"id"`
	// Path locates the dataset file within the archive.
	Path string `json:"path"`
	// Source is the archive sub-collection ("stations", "cruises", ...).
	Source string `json:"source"`
	// Format is the detected file format ("csv", "obs", "jsonl").
	Format string `json:"format"`
	// BBox is the dataset's spatial extent.
	BBox geo.BBox `json:"bbox"`
	// Time is the dataset's temporal extent.
	Time geo.TimeRange `json:"time"`
	// Variables summarizes each harvested variable.
	Variables []VarFeature `json:"variables"`
	// RowCount and Bytes size the raw dataset the feature summarizes.
	RowCount int   `json:"rowCount"`
	Bytes    int64 `json:"bytes"`
	// ScannedAt records when the dataset was last scanned; ModTime is the
	// file's modification time at that scan, used with Bytes as the
	// quick unchanged check during incremental reruns.
	ScannedAt time.Time `json:"scannedAt"`
	ModTime   time.Time `json:"modTime,omitempty"`
	// ContentHash fingerprints the raw file content.
	ContentHash string `json:"contentHash,omitempty"`
}

// IDForPath derives the stable feature ID for an archive path.
func IDForPath(path string) string {
	sum := sha256.Sum256([]byte(path))
	return hex.EncodeToString(sum[:8])
}

// Validate checks internal consistency; the catalog refuses malformed
// features so corruption cannot propagate into search.
func (f *Feature) Validate() error {
	if f.ID == "" {
		return fmt.Errorf("catalog: feature missing id")
	}
	if f.Path == "" {
		return fmt.Errorf("catalog: feature %s missing path", f.ID)
	}
	if f.ID != IDForPath(f.Path) {
		return fmt.Errorf("catalog: feature %s id does not match path %q", f.ID, f.Path)
	}
	if !f.BBox.IsEmpty() && !f.BBox.Valid() {
		return fmt.Errorf("catalog: feature %s has invalid bbox %v", f.ID, f.BBox)
	}
	if !f.Time.IsZero() && !f.Time.Valid() {
		return fmt.Errorf("catalog: feature %s has invalid time range", f.ID)
	}
	seen := make(map[string]bool, len(f.Variables))
	for i, v := range f.Variables {
		if v.RawName == "" {
			return fmt.Errorf("catalog: feature %s variable %d missing raw name", f.ID, i)
		}
		if v.Name == "" {
			return fmt.Errorf("catalog: feature %s variable %q missing name", f.ID, v.RawName)
		}
		if seen[v.RawName] {
			return fmt.Errorf("catalog: feature %s duplicate variable %q", f.ID, v.RawName)
		}
		seen[v.RawName] = true
		if v.Count < 0 {
			return fmt.Errorf("catalog: feature %s variable %q negative count", f.ID, v.RawName)
		}
	}
	return nil
}

// Clone returns a deep copy of the feature.
func (f *Feature) Clone() *Feature {
	c := *f
	c.Variables = make([]VarFeature, len(f.Variables))
	for i, v := range f.Variables {
		nv := v
		if v.Contexts != nil {
			nv.Contexts = append([]string(nil), v.Contexts...)
		}
		c.Variables[i] = nv
	}
	return &c
}

// ContentEquals reports whether two features describe the same dataset
// state: every field equal except ScannedAt, which is scan bookkeeping
// (when we last looked) rather than dataset content. Publish uses this
// to decide whether a working feature actually differs from its
// published predecessor — a re-scan that re-parses a file into an
// identical summary must not count as churn.
func (f *Feature) ContentEquals(o *Feature) bool {
	if f.ID != o.ID || f.Path != o.Path || f.Source != o.Source || f.Format != o.Format {
		return false
	}
	if f.BBox != o.BBox {
		return false
	}
	if !f.Time.Start.Equal(o.Time.Start) || !f.Time.End.Equal(o.Time.End) {
		return false
	}
	if f.RowCount != o.RowCount || f.Bytes != o.Bytes || f.ContentHash != o.ContentHash {
		return false
	}
	if !f.ModTime.Equal(o.ModTime) {
		return false
	}
	if len(f.Variables) != len(o.Variables) {
		return false
	}
	for i := range f.Variables {
		a, b := &f.Variables[i], &o.Variables[i]
		if a.RawName != b.RawName || a.Name != b.Name ||
			a.Unit != b.Unit || a.CanonicalUnit != b.CanonicalUnit ||
			a.Range != b.Range || a.Count != b.Count ||
			a.Excluded != b.Excluded || a.Parent != b.Parent {
			return false
		}
		if len(a.Contexts) != len(b.Contexts) {
			return false
		}
		for j := range a.Contexts {
			if a.Contexts[j] != b.Contexts[j] {
				return false
			}
		}
	}
	return true
}

// SearchableNames returns the current variable names visible to search
// (excluded variables filtered out), sorted and de-duplicated.
func (f *Feature) SearchableNames() []string {
	set := make(map[string]bool)
	for _, v := range f.Variables {
		if !v.Excluded {
			set[v.Name] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Variable returns the variable feature with the given current name.
func (f *Feature) Variable(name string) (VarFeature, bool) {
	for _, v := range f.Variables {
		if v.Name == name {
			return v, true
		}
	}
	return VarFeature{}, false
}
