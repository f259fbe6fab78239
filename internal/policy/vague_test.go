package policy

import (
	"strings"
	"testing"
)

const vaguePolicy = `Datenschutzerklärung: Eine Verarbeitung personenbezogener
Daten kann gegebenenfalls auch zum Schutz lebenswichtiger Interessen oder
unter Umständen zur Erfüllung einer rechtlichen Verpflichtung erfolgen,
soweit erforderlich erscheint. Daten werden möglicherweise auf unbestimmte
Zeit gespeichert und können auch an etwaige Empfänger übermittelt werden.`

func TestVaguenessScore(t *testing.T) {
	if s := VaguenessScore(vaguePolicy); s < VaguenessThreshold {
		t.Errorf("vague policy scored %.2f, below threshold %.2f", s, VaguenessThreshold)
	}
	if s := VaguenessScore(germanPolicy); s >= VaguenessThreshold {
		t.Errorf("precise policy scored %.2f, above threshold", s)
	}
	if VaguenessScore("") != 0 {
		t.Error("empty text should score 0")
	}
}

func TestIsVague(t *testing.T) {
	if !IsVague(vaguePolicy) {
		t.Error("Sachsen-Eins-style text not classified vague")
	}
	if IsVague(germanPolicy) {
		t.Error("precise policy classified vague")
	}
}

// matchedVagueTerms returns the dictionary terms VaguenessScore counts in
// text.
func matchedVagueTerms(text string) []string {
	low, _ := normalizeWS(text)
	var out []string
	for _, term := range vagueTerms {
		if strings.Contains(low, term) {
			out = append(out, term)
		}
	}
	return out
}

func TestVagueTerms(t *testing.T) {
	terms := matchedVagueTerms(vaguePolicy)
	want := map[string]bool{"gegebenenfalls": true, "unter umständen": true, "unbestimmte zeit": true}
	found := map[string]bool{}
	for _, term := range terms {
		found[term] = true
	}
	for w := range want {
		if !found[w] {
			t.Errorf("term %q not reported; got %v", w, terms)
		}
	}
	if len(matchedVagueTerms("alles klar und deutlich")) != 0 {
		t.Error("clear text reported vague terms")
	}
}
