package escape

import (
	"path/filepath"
	"testing"
)

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.txt")
	sites := []Site{
		{Func: "repro/internal/core.kernel.run", Message: "moved to heap: x", Pos: "a.go:1"},
		{Func: "repro/internal/core.kernel.run", Message: "moved to heap: x", Pos: "a.go:9"}, // dup key
		{Func: "repro/internal/sram.CAMStore.Pop", Message: "q escapes to heap", Pos: "b.go:2"},
	}
	if err := WriteBaseline(path, sites); err != nil {
		t.Fatal(err)
	}
	got, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("baseline has %d keys, want 2 (dup collapsed): %v", len(got), got)
	}
	for _, s := range sites {
		if !got[s.Key()] {
			t.Errorf("baseline missing %q", s.Key())
		}
	}
}

func TestReadBaselineMissingFileIsEmpty(t *testing.T) {
	got, err := readBaseline(filepath.Join(t.TempDir(), "nope.txt"))
	if err != nil {
		t.Fatalf("missing baseline must read as empty, got error %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("missing baseline must read as empty, got %v", got)
	}
}

func TestMatchSitesRangeFilter(t *testing.T) {
	funcs := []annotated{
		{pkg: "repro/p", name: "T.hot", file: "/src/f.go", startLine: 10, endLine: 20},
	}
	diags := []diag{
		{file: "/src/f.go", line: 15, message: "x escapes to heap"}, // inside
		{file: "/src/f.go", line: 5, message: "y escapes to heap"},  // before
		{file: "/src/f.go", line: 21, message: "z escapes to heap"}, // after
		{file: "/src/g.go", line: 15, message: "w escapes to heap"}, // other file
	}
	got := matchSites(diags, funcs)
	if len(got) != 1 {
		t.Fatalf("matchSites kept %d sites, want 1: %v", len(got), got)
	}
	if got[0].Func != "repro/p.T.hot" || got[0].Message != "x escapes to heap" {
		t.Errorf("matched wrong site: %+v", got[0])
	}
}

func TestCompareFlagsFreshAndStale(t *testing.T) {
	baseline := map[string]bool{
		"repro/p.T.hot: x escapes to heap":   true, // still observed
		"repro/p.T.gone: y escapes to heap":  true, // function deleted
		"repro/p.T.hot: old escapes to heap": true, // escape fixed
	}
	all := []Site{
		{Func: "repro/p.T.hot", Message: "x escapes to heap", Pos: "f.go:1"},
		{Func: "repro/p.T.hot", Message: "x escapes to heap", Pos: "f.go:7"}, // dup key
		{Func: "repro/p.T.new", Message: "w escapes to heap", Pos: "f.go:9"},
	}
	fresh, stale := compare(baseline, all)
	if len(fresh) != 1 || fresh[0].Func != "repro/p.T.new" {
		t.Errorf("fresh = %v, want only the repro/p.T.new site", fresh)
	}
	want := []string{"repro/p.T.gone: y escapes to heap", "repro/p.T.hot: old escapes to heap"}
	if len(stale) != len(want) || stale[0] != want[0] || stale[1] != want[1] {
		t.Errorf("stale = %q, want %q", stale, want)
	}
}
