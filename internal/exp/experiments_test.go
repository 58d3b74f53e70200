package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSelect pins how ckbench's -exp list resolves against the
// catalog: entries come back in table order whatever order they were
// named in, whitespace around ids is ignored, "all" leaves out the
// opt-in entries unless they are also named, and an unknown id or an
// empty item is an error naming the valid ids. Ids must be unique for
// a name to select one entry.
func TestSelect(t *testing.T) {
	var notOptIn []string
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.ID] || e.ID == "all" {
			t.Errorf("experiment id %q is not unique", e.ID)
		}
		seen[e.ID] = true
		if !e.OptIn {
			notOptIn = append(notOptIn, e.ID)
		}
	}
	cases := []struct {
		list string
		want []string // nil: an error is expected
	}{
		{"t2", []string{"t2"}},
		{" t2 , a1 ", []string{"t2", "a1"}},
		{"a7,t1,s52b", []string{"t1", "s52b", "a7"}},
		{"fork,rec", []string{"rec", "fork"}},
		{"all", notOptIn},
		{"rec,all", append(slices.Clone(notOptIn), "rec")},
		{"t2,t2", []string{"t2"}},
		{"t3", nil},
		{"t2,s52", nil},
		{"T2", nil},
		{"t2,", nil},
		{"", nil},
	}
	for _, tc := range cases {
		sel, err := Select(tc.list)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), strings.Join(IDs(), ", ")) {
				t.Errorf("Select(%q) = %v, %v; want an error listing the valid ids", tc.list, sel, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Select(%q): %v", tc.list, err)
			continue
		}
		var got []string
		for _, e := range sel {
			got = append(got, e.ID)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("Select(%q) = %v, want %v", tc.list, got, tc.want)
		}
	}
}

// TestPaperTables pins the paper tables byte for byte: every
// entry that -exp all selects, rendered as ckbench prints it, must
// equal testdata/paper_tables.golden. A host-side change that moves a
// single virtual cycle of Table 1, Table 2, §5.2 or an ablation fails
// here, not only when it breaks a shape check. Regenerate with
// go test ./internal/exp -run TestPaperTables -update, and only
// for an intended change to the simulated results. The name stays out
// of the -run 'Golden|ShardInvariance' pattern that CI also runs under
// -race -tags cksan,ckinvariants, where Table 2's invariant checks
// alone take over ten minutes.
func TestPaperTables(t *testing.T) {
	sel, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, e := range sel {
		fmt.Fprintf(&out, "=== %s: %s ===\n", strings.ToUpper(e.ID), e.Title)
		res, err := e.Run(false)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintln(&out, res)
	}
	golden := filepath.Join("testdata", "paper_tables.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if string(want) != out.String() {
		t.Fatalf("paper tables diverged from golden:\ngot:\n%s\nwant:\n%s", out.String(), want)
	}
}
