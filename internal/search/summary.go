package search

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"metamess/internal/catalog"
)

// Summary is the structured form of the poster's "dataset summary page":
// everything the catalog knows about one dataset, rendered from metadata
// alone (the raw data is never touched).
type Summary struct {
	Path       string
	Source     string
	Format     string
	BBox       string
	TimeRange  string
	RowCount   int
	Bytes      int64
	Searchable []SummaryVar
	Excluded   []SummaryVar
}

// SummaryVar is one variable line on the summary page.
type SummaryVar struct {
	Name     string
	RawName  string
	Unit     string
	Range    string
	Count    int
	Contexts []string
	Parent   string
}

// Summarize builds the summary for a feature.
func Summarize(f *catalog.Feature) Summary {
	s := Summary{
		Path:     f.Path,
		Source:   f.Source,
		Format:   f.Format,
		BBox:     f.BBox.String(),
		RowCount: f.RowCount,
		Bytes:    f.Bytes,
	}
	if f.Time.Valid() {
		s.TimeRange = f.Time.Start.UTC().Format(time.RFC3339) + " .. " + f.Time.End.UTC().Format(time.RFC3339)
	}
	for _, v := range f.Variables {
		unit := v.CanonicalUnit
		if unit == "" {
			unit = v.Unit
		}
		sv := SummaryVar{
			Name:     v.Name,
			RawName:  v.RawName,
			Unit:     unit,
			Count:    v.Count,
			Contexts: v.Contexts,
			Parent:   v.Parent,
		}
		if v.Count > 0 {
			sv.Range = fmt.Sprintf("%.3g .. %.3g", v.Range.Min, v.Range.Max)
		}
		if v.Excluded {
			s.Excluded = append(s.Excluded, sv)
		} else {
			s.Searchable = append(s.Searchable, sv)
		}
	}
	sort.Slice(s.Searchable, func(i, j int) bool { return s.Searchable[i].Name < s.Searchable[j].Name })
	sort.Slice(s.Excluded, func(i, j int) bool { return s.Excluded[i].Name < s.Excluded[j].Name })
	return s
}

// AppendSummaryPage appends f's summary page — the text the CLIs print
// and every search hit carries — to dst: the page of Summarize(f),
// written without building the Summary. The variables are ordered by
// the same sort.Slice over the same less as Summarize's, which makes
// the same swaps, so same-named variables tie exactly as they do there.
func AppendSummaryPage(dst []byte, f *catalog.Feature) []byte {
	dst = append(append(dst, "Dataset: "...), f.Path...)
	dst = append(append(dst, "\nSource:  "...), f.Source...)
	dst = append(append(dst, " ("...), f.Format...)
	dst = strconv.AppendInt(append(dst, "), "...), int64(f.RowCount), 10)
	dst = strconv.AppendInt(append(dst, " rows, "...), f.Bytes, 10)
	dst = append(dst, " bytes\nExtent:  "...)
	if b := f.BBox; b.IsEmpty() { // as geo.BBox.String
		dst = append(dst, "[empty]"...)
	} else {
		dst = strconv.AppendFloat(append(dst, '['), b.MinLat, 'f', 5, 64)
		dst = strconv.AppendFloat(append(dst, ','), b.MinLon, 'f', 5, 64)
		dst = strconv.AppendFloat(append(dst, " .. "...), b.MaxLat, 'f', 5, 64)
		dst = strconv.AppendFloat(append(dst, ','), b.MaxLon, 'f', 5, 64)
		dst = append(dst, ']')
	}
	dst = append(dst, '\n')
	if f.Time.Valid() {
		dst = f.Time.Start.UTC().AppendFormat(append(dst, "Time:    "...), time.RFC3339)
		dst = f.Time.End.UTC().AppendFormat(append(dst, " .. "...), time.RFC3339)
		dst = append(dst, '\n')
	}
	vars := f.Variables
	order := make([]int, 0, len(vars))
	for i := range vars {
		if !vars[i].Excluded {
			order = append(order, i)
		}
	}
	searchable := len(order)
	for i := range vars {
		if vars[i].Excluded {
			order = append(order, i)
		}
	}
	for _, part := range [2][]int{order[:searchable], order[searchable:]} {
		sort.Slice(part, func(i, j int) bool { return vars[part[i]].Name < vars[part[j]].Name })
	}
	dst = strconv.AppendInt(append(dst, "Variables ("...), int64(searchable), 10)
	dst = strconv.AppendInt(append(dst, " searchable, "...), int64(len(order)-searchable), 10)
	dst = append(dst, " excluded):\n"...)
	for _, i := range order {
		dst = appendVarLine(dst, &vars[i])
	}
	return dst
}

// appendVarLine appends one variable line of the summary page.
func appendVarLine(dst []byte, v *catalog.VarFeature) []byte {
	dst = append(dst, "  "...)
	dst = append(dst, v.Name...)
	unit := v.CanonicalUnit
	if unit == "" {
		unit = v.Unit
	}
	if unit != "" {
		dst = append(append(append(dst, " ["...), unit...), ']')
	}
	if v.Count > 0 {
		dst = strconv.AppendFloat(append(dst, "  "...), v.Range.Min, 'g', 3, 64)
		dst = strconv.AppendFloat(append(dst, " .. "...), v.Range.Max, 'g', 3, 64)
	}
	dst = strconv.AppendInt(append(dst, "  ("...), int64(v.Count), 10)
	dst = append(dst, " obs"...)
	if v.RawName != v.Name {
		dst = append(append(dst, ", raw: "...), v.RawName...)
	}
	dst = append(dst, ')')
	if len(v.Contexts) > 0 {
		dst = append(dst, " contexts: "...)
		for i, c := range v.Contexts {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, c...)
		}
	}
	if v.Parent != "" {
		dst = append(append(dst, " under: "...), v.Parent...)
	}
	if v.Excluded {
		dst = append(dst, " [excluded from search]"...)
	}
	return append(dst, '\n')
}
