package search_test

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"metamess"
	"metamess/internal/archive"
	"metamess/internal/catalog"
	"metamess/internal/geo"
	"metamess/internal/search"
)

// referencePage renders a Summary with fmt: the summary page's
// definition, and the oracle AppendSummaryPage is held to.
func referencePage(s search.Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dataset: %s\n", s.Path)
	fmt.Fprintf(&b, "Source:  %s (%s), %d rows, %d bytes\n", s.Source, s.Format, s.RowCount, s.Bytes)
	fmt.Fprintf(&b, "Extent:  %s\n", s.BBox)
	if s.TimeRange != "" {
		fmt.Fprintf(&b, "Time:    %s\n", s.TimeRange)
	}
	fmt.Fprintf(&b, "Variables (%d searchable, %d excluded):\n", len(s.Searchable), len(s.Excluded))
	for _, v := range s.Searchable {
		b.WriteString("  " + referenceVarLine(v, false) + "\n")
	}
	for _, v := range s.Excluded {
		b.WriteString("  " + referenceVarLine(v, true) + "\n")
	}
	return b.String()
}

func referenceVarLine(v search.SummaryVar, excluded bool) string {
	var b strings.Builder
	b.WriteString(v.Name)
	if v.Unit != "" {
		fmt.Fprintf(&b, " [%s]", v.Unit)
	}
	if v.Range != "" {
		fmt.Fprintf(&b, "  %s", v.Range)
	}
	fmt.Fprintf(&b, "  (%d obs", v.Count)
	if v.RawName != v.Name {
		fmt.Fprintf(&b, ", raw: %s", v.RawName)
	}
	b.WriteString(")")
	if len(v.Contexts) > 0 {
		fmt.Fprintf(&b, " contexts: %s", strings.Join(v.Contexts, ","))
	}
	if v.Parent != "" {
		fmt.Fprintf(&b, " under: %s", v.Parent)
	}
	if excluded {
		b.WriteString(" [excluded from search]")
	}
	return b.String()
}

func checkPage(t *testing.T, f *catalog.Feature) {
	t.Helper()
	want := referencePage(search.Summarize(f))
	if got := string(search.AppendSummaryPage([]byte("x"), f)[1:]); got != want {
		t.Fatalf("AppendSummaryPage differs from the fmt reference:\n got %q\nwant %q", got, want)
	}
}

// FuzzSummaryPageMatchesReference holds AppendSummaryPage to the fmt
// reference over features with arbitrary (and non-UTF-8) strings,
// non-finite and huge numbers, empty boxes, zero and inverted times,
// negative, zero and positive counts, and up to 40 variables drawn from
// a few names, so that the sort meets ties above pdqsort's
// insertion-sort cutoff of 12.
func FuzzSummaryPageMatchesReference(f *testing.F) {
	f.Add("stations/2010/s1.obs", "ctd", "degC", "ATastn", 45.5, -124.4, 5.2, 18.9, int64(1275350400), int64(86400), 5, int64(1))
	f.Add("", "", "", "", math.Inf(1), math.NaN(), math.Inf(-1), 1e300, int64(0), int64(0), 0, int64(2))
	f.Add("a\xffb", "<&>", "µg/L", "\u2028", math.Copysign(0, -1), 1e-7, -1e21, 123456.789, int64(-62135596800), int64(-1), 39, int64(3))
	f.Add("p", "s", "", "temperature", 90.0, 180.0, 0.0, 0.0, int64(1), int64(1)<<40, 25, int64(4))
	f.Fuzz(func(t *testing.T, path, source, unit, raw string, lat, lon, lo, hi float64, start, span int64, nvars int, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		feat := &catalog.Feature{Path: path, Source: source, Format: raw, RowCount: nvars - 3, Bytes: seed}
		switch rng.Intn(3) {
		case 0:
			feat.BBox = geo.EmptyBBox()
		case 1:
			feat.BBox = geo.BBox{MinLat: lat, MinLon: lon, MaxLat: lo, MaxLon: hi}
		default:
			feat.BBox = geo.NewBBox(geo.Point{Lat: lat, Lon: lon}, geo.Point{Lat: lo, Lon: hi})
		}
		if start != 0 {
			feat.Time = geo.TimeRange{Start: time.Unix(start, 0), End: time.Unix(start+span, 0)}
		}
		names := []string{"temperature", "salinity", "temperature", raw, path, ""}
		pick := func(ss ...string) string { return ss[rng.Intn(len(ss))] }
		for i := 0; i < nvars%41; i++ {
			v := catalog.VarFeature{
				Name:          names[rng.Intn(len(names))],
				RawName:       pick(raw, "T"+fmt.Sprint(i), "temperature"),
				Unit:          pick(unit, "", "degC"),
				CanonicalUnit: pick("", "", unit),
				Range:         geo.ValueRange{Min: pick2(rng, lo, lat), Max: pick2(rng, hi, lon)},
				Count:         rng.Intn(4) - 1,
				Excluded:      rng.Intn(3) == 0,
				Parent:        pick("", "", source),
			}
			for n := rng.Intn(3); n > 0; n-- {
				v.Contexts = append(v.Contexts, pick("water", source, unit))
			}
			feat.Variables = append(feat.Variables, v)
		}
		checkPage(t, feat)
	})
}

func pick2(rng *rand.Rand, a, b float64) float64 {
	if rng.Intn(2) == 0 {
		return a
	}
	return b
}

// TestSummaryPageMatchesReferenceOnWrangledArchive renders every
// feature of a wrangled 300-dataset generated archive through both
// renderers, and checks that the facade's DatasetSummary serves the
// same page.
func TestSummaryPageMatchesReferenceOnWrangledArchive(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and wrangles a 300-dataset archive")
	}
	root := t.TempDir()
	if _, err := archive.Generate(root, archive.DefaultGenConfig(300, 7)); err != nil {
		t.Fatal(err)
	}
	sys, err := metamess.New(metamess.Config{ArchiveRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "catalog.snap")
	if err := sys.SaveCatalog(snap); err != nil {
		t.Fatal(err)
	}
	c, err := catalog.Load(snap)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	c.ForEach(func(f *catalog.Feature) {
		n++
		checkPage(t, f)
		if page, err := sys.DatasetSummary(f.Path); err != nil || page != referencePage(search.Summarize(f)) {
			t.Fatalf("DatasetSummary(%q) = %q, %v", f.Path, page, err)
		}
	})
	if n != 300 {
		t.Fatalf("checked %d features, want 300", n)
	}
}
