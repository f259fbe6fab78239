package policy

import "strings"

// This file implements the vague-language detection the paper applies to
// the Sachsen Eins policy ("vague statements about possible processing ...
// based on vital interests and legal obligations", citing Lebanoff & Liu's
// vague-word detection): a bilingual dictionary of hedging terms and a
// per-document vagueness score.

// vagueTerms are hedging words/phrases that leave data practices open.
var vagueTerms = []string{
	// German.
	"gegebenenfalls", "unter umständen", "möglicherweise", "eventuell",
	"soweit erforderlich", "erforderlich erscheint", "in der regel",
	"grundsätzlich", "unbestimmte zeit", "kann auch", "können auch",
	"unter anderem", "zum beispiel auch", "etwaige",
	// English.
	"as necessary", "as appropriate", "from time to time", "may also",
	"where applicable", "among other things", "if required", "possibly",
	"indefinite period",
}

// normalizeWS lowercases and collapses all whitespace (policies come as
// wrapped text, so multi-word phrases must match across line breaks).
func normalizeWS(text string) (string, int) {
	fields := strings.Fields(strings.ToLower(text))
	return strings.Join(fields, " "), len(fields)
}

// VaguenessScore returns the number of vague-term occurrences per 100
// words of text — a length-normalized hedging density.
func VaguenessScore(text string) float64 {
	low, words := normalizeWS(text)
	if words == 0 {
		return 0
	}
	hits := 0
	for _, term := range vagueTerms {
		hits += strings.Count(low, term)
	}
	return float64(hits) / float64(words) * 100
}

// VaguenessThreshold is the density above which a policy counts as vague
// (the Sachsen-Eins-style template scores well above it; precise policies
// score near zero).
const VaguenessThreshold = 0.5

// IsVague classifies a policy text as vague.
func IsVague(text string) bool {
	return VaguenessScore(text) >= VaguenessThreshold
}
