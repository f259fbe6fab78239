package policy

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// germanPolicy is a condensed but realistic German HbbTV privacy policy.
const germanPolicy = `Datenschutzerklärung für das HbbTV-Angebot

Wir erheben und verarbeiten personenbezogene Daten nur im Rahmen der
Datenschutz-Grundverordnung (DSGVO). Verantwortlicher im Sinne der DSGVO ist
die Beispiel TV GmbH. Bei Aufruf unseres HbbTV-Angebots wird Ihre IP-Adresse
verarbeitet und vor der Speicherung anonymisiert, indem die letzten drei
Ziffern gekürzt werden. Wir nutzen Cookies zur Reichweitenmessung und zur
statistischen Auswertung des Nutzungsverhaltens. Die Rechtsgrundlage ist
Art. 6 Abs. 1 lit. a DSGVO (Einwilligung) sowie unsere berechtigten
Interessen nach Art. 6 Abs. 1 lit. f DSGVO. Eine Weitergabe an Dritte
erfolgt nur an unsere Dienstleister für Webanalyse und interessenbezogene
Werbung. Sie haben ein Auskunftsrecht nach Art. 15 DSGVO, ein Recht auf
Berichtigung nach Art. 16 DSGVO, ein Recht auf Löschung nach Art. 17 DSGVO,
ein Recht auf Einschränkung der Verarbeitung nach Art. 18 DSGVO sowie ein
Beschwerderecht bei der zuständigen Aufsichtsbehörde nach Art. 77 DSGVO.
Über die blaue Taste Ihrer Fernbedienung erreichen Sie die
Datenschutz-Einstellungen. Die Personalisierung von Werbung und das
Profiling erfolgen nur von 17 Uhr bis 6 Uhr.`

// englishPolicy is a minimal English counterpart.
const englishPolicy = `Privacy Policy for our HbbTV service

We collect and process personal data in accordance with the GDPR. The
controller is Example TV Ltd. When you access our HbbTV service we process
your IP address; it is anonymized before storage. We use cookies for
audience measurement and analytics. The legal basis is your consent under
Article 6 and our legitimate interest. Data may be shared with third
parties for advertising. You have the right of access under Article 15, the
right to rectification under Article 16, the right to erasure under Article
17, and the right to lodge a complaint with a supervisory authority under
Article 77. Ad personalization is limited to the period from 5 pm to 6 am.`

// miscText is the false-positive class: a teleshopping offer.
const miscText = `Jetzt bestellen und 20 Prozent Rabatt sichern! Unser
Angebot der Woche: das Multifunktions-Küchenwunder. Drücken Sie die rote
Taste auf Ihrer Fernbedienung und kaufen Sie direkt über den Bildschirm.
Gewinnspiel: Mit etwas Glück gewinnen Sie eine Reise.`

func TestExtractTextStripsMarkupAndBoilerplate(t *testing.T) {
	markup := `<html><head><title>DSE</title><style>body{}</style>
	<script>track();</script></head><body>
	<div>Impressum</div>
	<p>Wir verarbeiten personenbezogene Daten gem&auml;&szlig; DSGVO.</p>
	<div>Startseite | Kontakt</div>
	</body></html>`
	text := ExtractText(markup)
	if !strings.Contains(text, "personenbezogene Daten gemäß DSGVO") {
		t.Errorf("content lost: %q", text)
	}
	for _, bad := range []string{"track();", "body{}", "Impressum", "Startseite"} {
		if strings.Contains(text, bad) {
			t.Errorf("boilerplate %q survived: %q", bad, text)
		}
	}
}

func TestDetectLanguage(t *testing.T) {
	tests := []struct {
		text string
		want Language
	}{
		{germanPolicy, LangGerman},
		{englishPolicy, LangEnglish},
		{germanPolicy + "\n\n" + englishPolicy, LangBilingual},
		{"", LangUnknown},
		{"12345 67890 !!!", LangUnknown},
	}
	for i, tt := range tests {
		if got := DetectLanguage(tt.text); got != tt.want {
			t.Errorf("case %d: DetectLanguage = %v, want %v", i, got, tt.want)
		}
	}
}

func TestClassifier(t *testing.T) {
	if !IsPolicy(germanPolicy) {
		t.Errorf("German policy rejected (score %.1f)", Score(germanPolicy))
	}
	if !IsPolicy(englishPolicy) {
		t.Errorf("English policy rejected (score %.1f)", Score(englishPolicy))
	}
	if IsPolicy(miscText) {
		t.Errorf("teleshopping text accepted (score %.1f)", Score(miscText))
	}
	// Clear of the threshold on both sides, not merely at it.
	if s := Score(germanPolicy); s <= classifyThreshold {
		t.Errorf("policy score = %v, threshold %v", s, classifyThreshold)
	}
	if s := Score(miscText); s >= classifyThreshold {
		t.Errorf("misc score = %v, threshold %v", s, classifyThreshold)
	}
}

func TestSHA1AndSimHash(t *testing.T) {
	if SHA1Hex("a") == SHA1Hex("b") {
		t.Error("SHA1 collision on trivial input")
	}
	a := SimHash(germanPolicy)
	// Near-duplicate: same text with a different channel name.
	b := SimHash(strings.ReplaceAll(germanPolicy, "Beispiel TV", "Muster TV"))
	if d := HammingDistance(a, b); d > SimilarityThreshold {
		t.Errorf("near-duplicates at distance %d", d)
	}
	c := SimHash(englishPolicy)
	if d := HammingDistance(a, c); d <= SimilarityThreshold {
		t.Errorf("unrelated texts at distance %d", d)
	}
}

func TestGroupNearDuplicates(t *testing.T) {
	texts := []string{
		germanPolicy,
		strings.ReplaceAll(germanPolicy, "Beispiel TV", "Muster TV"),
		englishPolicy,
		miscText,
	}
	hashes := make([]uint64, len(texts))
	for i, tx := range texts {
		hashes[i] = SimHash(tx)
	}
	groups := GroupNearDuplicates(hashes)
	// Expect {0,1} together, 2 and 3 apart.
	var pairGroup []int
	for _, g := range groups {
		if len(g) > 1 {
			pairGroup = g
		}
	}
	if len(pairGroup) != 2 || pairGroup[0] != 0 || pairGroup[1] != 1 {
		t.Errorf("groups = %v", groups)
	}
}

func TestAnnotatePractices(t *testing.T) {
	p := AnnotatePractices(germanPolicy)
	for _, want := range []Practice{
		PracticeFirstPartyCollection, PracticeThirdPartySharing,
		PracticeIPAddress, PracticeCookiesUse, PracticeViewingData,
		PracticeAnalytics, PracticeAdvertising,
		PracticeBasisConsent, PracticeBasisLegitInt,
		PracticeIPAnonymization,
	} {
		if !p[want] {
			t.Errorf("practice %s not detected", want)
		}
	}
	if p[PracticeBasisVitalInt] {
		t.Error("vital interests falsely detected")
	}
	misc := AnnotatePractices(miscText)
	if misc[PracticeFirstPartyCollection] || misc[PracticeIPAddress] {
		t.Errorf("misc text annotated with practices: %v", misc)
	}
}

func TestHbbTVSpecificDetectors(t *testing.T) {
	if !MentionsHbbTV(germanPolicy) || !MentionsBlueButton(germanPolicy) {
		t.Error("HbbTV/blue-button mentions not detected")
	}
	if MentionsTDDDG(germanPolicy) {
		t.Error("TDDDG falsely detected")
	}
	if !MentionsTDDDG("Wir verweisen auf § 25 TTDSG (jetzt TDDDG).") {
		t.Error("TDDDG mention missed")
	}
}

func TestDetectGDPRArticles(t *testing.T) {
	arts := DetectGDPRArticles(germanPolicy)
	for _, want := range []GDPRArticle{Art6Basis, Art15Access, Art16Rectify, Art17Erasure, Art18Restrict, Art77Complaint} {
		if !arts[want] {
			t.Errorf("article %s not detected", want)
		}
	}
	if arts[Art20Portable] {
		t.Error("Art. 20 falsely detected")
	}
	cov := RightsCoverage([]string{germanPolicy, englishPolicy})
	if cov[Art15Access] != 2 || cov[Art20Portable] != 0 {
		t.Errorf("coverage = %v", cov)
	}
}

func TestParseAdWindow(t *testing.T) {
	w, ok := ParseAdWindow(germanPolicy)
	if !ok || w.StartHour != 17 || w.EndHour != 6 {
		t.Errorf("German window = %+v, %v", w, ok)
	}
	w2, ok := ParseAdWindow(englishPolicy)
	if !ok || w2.StartHour != 17 || w2.EndHour != 6 {
		t.Errorf("English window = %+v, %v", w2, ok)
	}
	if _, ok := ParseAdWindow(miscText); ok {
		t.Error("window parsed from misc text")
	}
	for _, tt := range adWindowCases {
		w, ok := ParseAdWindow(tt.text)
		if ok != tt.ok || (ok && w != tt.want) {
			t.Errorf("ParseAdWindow(%q) = %+v, %v; want %+v, %v", tt.text, w, ok, tt.want, tt.ok)
		}
	}
}

// adWindowCases cover the am/pm suffix in any letter case and the clock
// bounds: German hours 0-24 (24 is midnight), English hours 1-12.
var adWindowCases = []struct {
	text string
	want AdWindow
	ok   bool
}{
	{"from 5 pM to 6 am", AdWindow{StartHour: 17, EndHour: 6}, true},
	{"FROM 5 PM UNTIL 6 AM", AdWindow{StartHour: 17, EndHour: 6}, true},
	{"from 12 am to 12 pm", AdWindow{StartHour: 0, EndHour: 12}, true},
	{"von 24 Uhr bis 6 Uhr", AdWindow{StartHour: 0, EndHour: 6}, true},
	{"VON 17:00 UHR BIS 6 UHR", AdWindow{StartHour: 17, EndHour: 6}, true},
	{"von 99 Uhr bis 6 Uhr", AdWindow{}, false},
	{"von 17 Uhr bis 25 Uhr", AdWindow{}, false},
	{"from 13 pm to 6 am", AdWindow{}, false},
	{"from 0 am to 6 am", AdWindow{}, false},
}

func TestAdWindowContains(t *testing.T) {
	w := AdWindow{StartHour: 17, EndHour: 6}
	at := func(h int) time.Time {
		return time.Date(2023, 10, 1, h, 30, 0, 0, time.UTC)
	}
	tests := []struct {
		hour int
		want bool
	}{
		{17, true}, {23, true}, {0, true}, {5, true},
		{6, false}, {12, false}, {16, false},
	}
	for _, tt := range tests {
		if got := w.Contains(at(tt.hour)); got != tt.want {
			t.Errorf("Contains(%02d:30) = %v, want %v", tt.hour, got, tt.want)
		}
	}
	day := AdWindow{StartHour: 9, EndHour: 17}
	if !day.Contains(at(12)) || day.Contains(at(18)) {
		t.Error("non-wrapping window broken")
	}
	if !(AdWindow{}).Contains(at(3)) {
		t.Error("degenerate window should contain everything")
	}
}

func TestCheckStatic(t *testing.T) {
	optOutPolicy := `Datenschutzerklärung: Wir verarbeiten personenbezogene
	Daten für personalisierte Werbung. Sie können dem per Opt-Out
	widersprechen: deaktivieren Sie die interessenbezogene Werbung in den
	Einstellungen.`
	p := AnnotatePractices(optOutPolicy)
	cs := CheckStatic(p)
	if len(cs) != 1 || cs[0] != ContradictionOptOut {
		t.Errorf("contradictions = %v", cs)
	}
	if got := CheckStatic(AnnotatePractices(germanPolicy)); len(got) != 0 {
		t.Errorf("compliant policy flagged: %v", got)
	}
}

// Property: SimHash is deterministic and insensitive to leading/trailing
// whitespace.
func TestSimHashProperty(t *testing.T) {
	f := func(pad uint8) bool {
		p := strings.Repeat(" ", int(pad%5))
		return SimHash(p+germanPolicy+p) == SimHash(germanPolicy)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Hamming distance is a metric-ish: symmetric, zero on identity.
func TestHammingProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		return HammingDistance(a, b) == HammingDistance(b, a) &&
			HammingDistance(a, a) == 0 &&
			HammingDistance(a, b) <= 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
