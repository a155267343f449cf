package obs

import (
	"strings"
	"testing"
)

// FuzzParseProm feeds arbitrary bytes to the strict exposition parser.
// The parser must never panic; when it accepts an input, LintProm must
// not panic on it either, and every sample must carry its family's name
// — exactly, or with a suffix the family's type allows. The committed
// corpus under testdata/fuzz/FuzzParseProm holds server and fleet
// exposition excerpts plus malformed lines.
func FuzzParseProm(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fams, err := ParseProm(data)
		if err != nil {
			return
		}
		_ = LintProm(data)
		for name, fam := range fams {
			if fam.Name != name {
				t.Fatalf("family keyed %q is named %q", name, fam.Name)
			}
			for _, s := range fam.Samples {
				if !sampleOf(fam, s.Name) {
					t.Fatalf("sample %s accepted into %s family %s", s.Name, fam.Type, fam.Name)
				}
			}
		}
	})
}

// sampleOf reports whether a sample name belongs to fam: its own name, or
// a histogram's _bucket/_sum/_count or a summary's _sum/_count series.
func sampleOf(fam *PromFamily, name string) bool {
	if name == fam.Name {
		return true
	}
	suffix, ok := strings.CutPrefix(name, fam.Name)
	if !ok {
		return false
	}
	switch fam.Type {
	case "histogram":
		return suffix == "_bucket" || suffix == "_sum" || suffix == "_count"
	case "summary":
		return suffix == "_sum" || suffix == "_count"
	}
	return false
}
