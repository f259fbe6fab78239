package policy

import (
	"strings"
	"testing"
)

// TestExtractTextNonASCIIInSkippedElement: script and style contents are
// dropped whatever their bytes. Lower-casing U+023A grows it from two bytes
// to three and U+0130 shrinks it to one, so closing-tag offsets found in a
// lower-cased copy do not index the markup.
func TestExtractTextNonASCIIInSkippedElement(t *testing.T) {
	for _, tt := range []struct{ markup, want string }{
		{"<style>" + strings.Repeat("Ⱥ", 24) + "</style><p>after</p>", "after"},
		{"<script>" + strings.Repeat("İ", 4) + "a>b</script>after", "after"},
		{"<SCRIPT>x</ScRiPt >after", "after"},
	} {
		if got := ExtractText(tt.markup); got != tt.want {
			t.Errorf("ExtractText(%q) = %q, want %q", tt.markup, got, tt.want)
		}
	}
}

// FuzzExtractText feeds arbitrary markup to the text extraction every
// recorded HTML body goes through in the policies section. Properties: no
// panic, and every output line is non-empty, trimmed and not boilerplate.
func FuzzExtractText(f *testing.F) {
	f.Add(wrap("<p>" + germanPolicy + "</p>"))
	f.Add("<html><script>var a = '<p>';</script><div>Impressum</div><p>" + englishPolicy + "</p></html>")
	f.Fuzz(func(t *testing.T, markup string) {
		text := ExtractText(markup)
		if text == "" {
			return
		}
		for _, line := range strings.Split(text, "\n") {
			if line == "" || line != strings.TrimSpace(line) || isBoilerplate(line) {
				t.Fatalf("ExtractText(%q) has line %q: empty, untrimmed or boilerplate", markup, line)
			}
		}
	})
}
