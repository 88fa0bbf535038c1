package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// Every -exp name selects exactly one registry entry, "all" selects the
// whole registry in order, and an unknown name is an error that lists
// the valid ones.
func TestSelect(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, s := range Studies {
		for _, n := range s.Names {
			if seen[n] {
				t.Fatalf("study name %q registered twice", n)
			}
			seen[n] = true
			got, err := Select(n)
			if err != nil || len(got) != 1 || got[0].Names[0] != s.Names[0] {
				t.Fatalf("Select(%q) = %d studies, %v", n, len(got), err)
			}
		}
	}
	if all, err := Select("all"); err != nil || len(all) != len(Studies) {
		t.Fatalf("Select(all) = %d studies, %v", len(all), err)
	}
	if _, err := Select("nosuch"); err == nil || !strings.Contains(err.Error(), "table2") {
		t.Fatalf("Select(nosuch) error %v does not list the studies", err)
	}
}

// Text pads right-aligned (positive width) and left-aligned (negative
// width) cells, lets wide cells overflow, drops the header line when no
// column has a head and trims trailing blanks; WriteCSV renders the
// same rows under the heads.
func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Cols: []Col{{"name", -6}, {"n", 4}, {"", 0}}}
	tab.Row("ab", "1", "")
	tab.Row("abcdefgh", "12345", "note")
	want := "T\nname      n\nab        1\nabcdefgh 12345 note\n"
	if got := tab.Text(); got != want {
		t.Errorf("Text:\n%q\nwant\n%q", got, want)
	}
	var b bytes.Buffer
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if want := "name,n,\nab,1,\nabcdefgh,12345,note\n"; b.String() != want {
		t.Errorf("CSV %q, want %q", b.String(), want)
	}
	bare := &Table{Cols: []Col{{"", 3}, {"", 0}}}
	bare.Row("1", "x")
	if got := bare.Text(); got != "  1 x\n" {
		t.Errorf("headless Text %q", got)
	}
}
