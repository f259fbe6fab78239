package policy

import "strings"

// This file is the substitute for the trained policy-detection classifiers
// (Hosseini et al., 99+% F1): a log-odds keyword model distinguishing
// privacy policies from miscellaneous texts (program guides, discount
// offers, usage instructions). The feature design mirrors what makes the
// trained models work: policies are dense in legal/data-practice
// vocabulary and long; misc texts are not.

// policyTerms carry positive log-odds weights (German and English).
var policyTerms = map[string]float64{
	// German.
	"datenschutzerklärung": 3.0, "datenschutz": 2.0,
	"personenbezogene": 3.0, "personenbezogener": 2.5,
	"verarbeitung": 1.5, "verantwortliche": 1.5,
	"dsgvo": 2.5, "datenschutz-grundverordnung": 2.5,
	"auskunftsrecht": 2.0, "widerspruchsrecht": 2.0,
	"rechtsgrundlage": 2.0, "einwilligung": 1.5,
	"berechtigtes": 1.0, "interesse": 0.3,
	"aufsichtsbehörde": 2.0, "speicherdauer": 2.0,
	"empfänger": 1.0, "drittanbieter": 1.5,
	"cookies": 1.0, "ip-adresse": 1.5,
	"betroffenenrechte": 2.5, "auftragsverarbeiter": 2.0,
	// English.
	"privacy": 1.5, "policy": 0.8,
	"personal": 1.2, "processing": 1.2,
	"gdpr": 2.5, "controller": 1.5, "processor": 1.5,
	"consent": 1.2, "legitimate": 1.2,
	"supervisory": 2.0, "erasure": 2.0, "rectification": 2.0,
	"portability": 2.0, "retention": 1.5,
}

// miscTerms carry negative weights: vocabulary of the false-negative class
// the paper corrected manually (discount offers, HbbTV usage instructions,
// program announcements).
var miscTerms = map[string]float64{
	"rabatt": 2.0, "gewinnspiel": 2.0, "angebot": 1.0,
	"jetzt": 0.5, "bestellen": 1.5, "kaufen": 1.5,
	"programm": 0.7, "sendung": 0.7, "folge": 0.7,
	"fernbedienung": 1.0, "drücken": 1.0,
	"discount": 2.0, "offer": 1.0, "buy": 1.5,
	"episode": 1.0, "remote": 0.7, "press": 0.7,
}

// classifyThreshold is the decision boundary on the document score.
const classifyThreshold = 4.0

// Score computes the policy-ness score of plain text.
func Score(text string) float64 {
	words := strings.Fields(strings.ToLower(text))
	var score float64
	for _, w := range words {
		w = strings.Trim(w, ".,;:()!?\"'")
		if v, ok := policyTerms[w]; ok {
			score += v
		}
		if v, ok := miscTerms[w]; ok {
			score -= v
		}
	}
	// Length prior: real policies are long documents.
	if len(words) > 150 {
		score += 1.5
	}
	if len(words) < 40 {
		score -= 2
	}
	return score
}

// IsPolicy classifies plain text as a privacy policy.
func IsPolicy(text string) bool {
	return Score(text) >= classifyThreshold
}
