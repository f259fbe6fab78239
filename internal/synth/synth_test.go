package synth

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/hostnet"
	"github.com/hbbtvlab/hbbtvlab/internal/policy"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

func testClock() *clock.Virtual {
	return clock.NewVirtual(time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC))
}

func buildSmall(t *testing.T, seed int64) *World {
	t.Helper()
	return Build(Config{Seed: seed, Scale: 0.05}, testClock())
}

func TestBuildDeterministic(t *testing.T) {
	w1 := buildSmall(t, 42)
	w2 := buildSmall(t, 42)
	if len(w1.Universe) != len(w2.Universe) || len(w1.Channels) != len(w2.Channels) {
		t.Fatalf("sizes differ: %d/%d vs %d/%d",
			len(w1.Universe), len(w1.Channels), len(w2.Universe), len(w2.Channels))
	}
	for i := range w1.Channels {
		a, b := w1.Channels[i], w2.Channels[i]
		if a.Service.Name != b.Service.Name || a.AppHost != b.AppHost || a.Outlier != b.Outlier {
			t.Fatalf("channel %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestBuildSeedsDiffer(t *testing.T) {
	w1 := buildSmall(t, 1)
	w2 := buildSmall(t, 2)
	// Same structure, different random detail (e.g. frequencies).
	same := 0
	for i := range w1.Channels {
		if w1.Channels[i].Service.Transponder.FrequencyMHz ==
			w2.Channels[i].Service.Transponder.FrequencyMHz {
			same++
		}
	}
	if same == len(w1.Channels) {
		t.Error("different seeds produced identical transponder plans")
	}
}

func TestFunnelPopulationShape(t *testing.T) {
	w := Build(Config{Seed: 3, Scale: 1.0}, testClock())
	var radio, encrypted, tv, iptv, withAIT int
	for _, svc := range w.Universe {
		switch {
		case svc.Radio:
			radio++
		case svc.Encrypted:
			encrypted++
		default:
			tv++
		}
		if svc.IPTV {
			iptv++
		}
		if svc.HasAIT() {
			withAIT++
		}
	}
	if got := len(w.Universe); got != paperReceived {
		t.Errorf("universe = %d, want %d", got, paperReceived)
	}
	if radio != paperRadio {
		t.Errorf("radio = %d, want %d", radio, paperRadio)
	}
	if encrypted != paperEncrypted {
		t.Errorf("encrypted = %d, want %d", encrypted, paperEncrypted)
	}
	if iptv != paperIPTV {
		t.Errorf("iptv = %d, want %d", iptv, paperIPTV)
	}
	if got := len(w.Channels); got != paperFinal {
		t.Errorf("channels = %d, want %d", got, paperFinal)
	}
	if withAIT != paperFinal+paperIPTV {
		t.Errorf("services with AIT = %d, want %d", withAIT, paperFinal+paperIPTV)
	}
}

func TestGroupWeightsSumToFinal(t *testing.T) {
	if got := totalGroupWeight(); got != paperFinal {
		t.Fatalf("group weights sum to %d, want %d", got, paperFinal)
	}
}

func TestChannelsHaveValidAITs(t *testing.T) {
	w := buildSmall(t, 7)
	for _, ch := range w.Channels {
		ait, err := dvb.DecodeAIT(ch.Service.AITSection)
		if err != nil {
			t.Fatalf("%s: AIT decode: %v", ch.Service.Name, err)
		}
		auto := ait.Autostart()
		if auto == nil {
			t.Fatalf("%s: no autostart app", ch.Service.Name)
		}
		if !strings.Contains(auto.EntryURL(), ch.AppHost) {
			t.Errorf("%s: entry %q does not point at %q", ch.Service.Name, auto.EntryURL(), ch.AppHost)
		}
	}
}

func TestAllEntryURLsResolve(t *testing.T) {
	w := buildSmall(t, 7)
	client := &http.Client{Transport: &hostnet.Transport{Net: w.Internet}}
	for _, ch := range w.Channels {
		ait, err := dvb.DecodeAIT(ch.Service.AITSection)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Get(ait.Autostart().EntryURL())
		if err != nil {
			t.Fatalf("%s: GET entry: %v", ch.Service.Name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		status := resp.StatusCode
		resp.Body.Close()
		if status != http.StatusOK {
			t.Fatalf("%s: entry status %d", ch.Service.Name, status)
		}
		doc, err := appmodel.ParseHTML(body)
		if err != nil {
			t.Fatalf("%s: entry parse: %v", ch.Service.Name, err)
		}
		if len(doc.Resources) == 0 {
			t.Errorf("%s: entry document has no resources", ch.Service.Name)
		}
	}
}

func TestPolicyTemplatesClassifyAsPolicies(t *testing.T) {
	for i := range policyTemplates {
		html := PolicyHTML(i, "Beispiel", "Kanal Eins")
		text := policy.ExtractText(html)
		if !policy.IsPolicy(text) {
			t.Errorf("template %d not classified as policy (score %.1f)", i, policy.Score(text))
		}
		if lang := policy.DetectLanguage(text); lang != policy.LangGerman {
			t.Errorf("template %d language = %v", i, lang)
		}
	}
	en := policy.ExtractText(EnglishPolicyHTML("Example", "Channel One"))
	if !policy.IsPolicy(en) || policy.DetectLanguage(en) != policy.LangEnglish {
		t.Error("English policy template broken")
	}
	bi := policy.ExtractText(BilingualPolicyHTML(1, "Example", "Channel One"))
	if policy.DetectLanguage(bi) != policy.LangBilingual {
		t.Errorf("bilingual template language = %v", policy.DetectLanguage(bi))
	}
}

func TestChildrenPolicyDeclaresWindow(t *testing.T) {
	html := PolicyHTML(7, "KidsGroup", "Toggo Eins")
	text := policy.ExtractText(html)
	w, ok := policy.ParseAdWindow(text)
	if !ok || w.StartHour != 17 || w.EndHour != 6 {
		t.Fatalf("children template window = %+v, %v", w, ok)
	}
}

func TestOptOutTemplateContradicts(t *testing.T) {
	text := policy.ExtractText(PolicyHTML(11, "HGTV", "HGTV"))
	practices := policy.AnnotatePractices(text)
	if cs := policy.CheckStatic(practices); len(cs) == 0 {
		t.Error("HGTV-style template should produce the opt-out contradiction")
	}
}

func TestNoticeSpecsAllStyles(t *testing.T) {
	for id := 1; id <= 12; id++ {
		spec := NoticeSpec(id)
		if spec == nil {
			t.Fatalf("style %d missing", id)
		}
		if len(spec.Layers) == 0 {
			t.Fatalf("style %d has no layers", id)
		}
		layer := spec.Layers[0]
		if len(layer.Buttons) == 0 {
			t.Fatalf("style %d layer 1 has no buttons", id)
		}
		// The universal nudge: the default focus is the accept button.
		def := layer.Buttons[layer.DefaultFocus]
		if def.Role != appmodel.RoleAcceptAll {
			t.Errorf("style %d default focus = %v, want accept_all", id, def.Role)
		}
		if !def.Highlight {
			t.Errorf("style %d accept button not highlighted", id)
		}
	}
	if NoticeSpec(0) != nil || NoticeSpec(13) != nil {
		t.Error("out-of-range styles should be nil")
	}
}

func TestNoticeStyleSpecifics(t *testing.T) {
	// RTL Zwei (8): category checkboxes on layer 1, pre-ticked.
	s8 := NoticeSpec(8)
	if len(s8.Layers[0].Checkboxes) == 0 {
		t.Error("style 8 must offer category selection on layer 1")
	}
	// ZDF (10) and P7S1-modal (3) are full-screen modal.
	for _, id := range []int{3, 10} {
		s := NoticeSpec(id)
		if !s.Modal || !s.FullScreen {
			t.Errorf("style %d should be full-screen modal", id)
		}
	}
	// Bibel TV (7): pre-ticked analytics box on layer 2.
	s7 := NoticeSpec(7)
	if len(s7.Layers) < 2 || len(s7.Layers[1].Checkboxes) == 0 || !s7.Layers[1].Checkboxes[0].PreTicked {
		t.Error("style 7 must pre-tick analytics on layer 2")
	}
	// COUCHPLAY (11) links a partner list.
	if !NoticeSpec(11).PartnerListLinked {
		t.Error("style 11 must link a partner list")
	}
}

func TestAvailabilityPerRun(t *testing.T) {
	w := buildSmall(t, 11)
	for run, want := range runAvailability {
		avail := w.Availability[run]
		if avail == nil {
			t.Fatalf("no availability for %s", run)
		}
		wantN := scaled(want, 0.05)
		if len(avail) != wantN {
			t.Errorf("%s: %d channels available, want %d", run, len(avail), wantN)
		}
	}
	// Green has the fewest channels, as in Table I.
	if len(w.Availability[store.RunGreen]) >= len(w.Availability[store.RunYellow]) {
		t.Error("Green should have fewer available channels than Yellow")
	}
}

func TestOutlierIsGeneralCategoryCommercial(t *testing.T) {
	w := Build(Config{Seed: 5, Scale: 0.3}, testClock())
	var outliers []*Channel
	for _, ch := range w.Channels {
		if ch.Outlier {
			outliers = append(outliers, ch)
		}
	}
	if len(outliers) != 1 {
		t.Fatalf("outliers = %d, want exactly 1", len(outliers))
	}
	o := outliers[0]
	if o.Group.Category != dvb.CategoryGeneral || o.Group.Public {
		t.Errorf("outlier in group %s (%s, public=%v)", o.Group.Name, o.Group.Category, o.Group.Public)
	}
}

// TestChildrenChannels: the channels exclusively targeting children are
// the children group's 12.
func TestChildrenChannels(t *testing.T) {
	w := Build(Config{Seed: 5, Scale: 1.0}, testClock())
	kids := 0
	for _, ch := range w.Channels {
		if cats := ch.Service.Categories; len(cats) != 1 || cats[0] != dvb.CategoryChildren {
			continue
		}
		kids++
		if !ch.Group.ChildrenGroup {
			t.Errorf("children channel %s not in the children group", ch.Service.Name)
		}
	}
	if kids != 12 {
		t.Errorf("children channels = %d, want 12", kids)
	}
}

func TestTrackerRosterRegistered(t *testing.T) {
	w := buildSmall(t, 7)
	client := &http.Client{Transport: &hostnet.Transport{Net: w.Internet}}
	for _, host := range []string{
		"tvping.com", "xiti.com", "tvstat.net", "adsync-a.com",
		"adsync-b.com", "cmp-central.de", "smartclip.net",
		"google-analytics.com", "tvfonts.eu",
	} {
		resp, err := client.Get("http://" + host + "/")
		if err != nil {
			t.Errorf("tracker %s unreachable: %v", host, err)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func TestTVPingPixelUnderThreshold(t *testing.T) {
	w := buildSmall(t, 7)
	client := &http.Client{Transport: &hostnet.Transport{Net: w.Internet}}
	resp, err := client.Get("http://anychannel.tvping.com/t?c=x")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	ct := resp.Header.Get("Content-Type")
	resp.Body.Close()
	if len(body) >= 45 || !strings.HasPrefix(ct, "image/") {
		t.Errorf("tvping pixel: %d bytes, %s", len(body), ct)
	}
}

func TestXitiReachedViaRedirect(t *testing.T) {
	w := buildSmall(t, 7)
	client := &http.Client{Transport: &hostnet.Transport{Net: w.Internet}}
	resp, err := client.Get("http://ct.tvstat.net/px?c=x")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	got := resp.Request.URL.Host
	resp.Body.Close()
	if got != "xiti.com" {
		t.Errorf("tvstat pixel resolved to %q, want xiti.com", got)
	}
}

func TestScaledHelper(t *testing.T) {
	if scaled(100, 0.05) != 5 || scaled(1, 0.01) != 1 || scaled(396, 1.0) != 396 {
		t.Error("scaled() arithmetic wrong")
	}
}
