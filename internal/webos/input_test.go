package webos

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/hostnet"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

// consentTV builds a TV tuned to a channel whose autostart shows the given
// consent notice (as the base overlay or as an on-top notice).
func consentTV(t *testing.T, spec *appmodel.ConsentSpec, onTop bool, base *appmodel.OverlaySpec) (*TV, *proxy.Recorder) {
	t.Helper()
	doc := &appmodel.Document{Title: "Consent", App: &appmodel.AppSpec{}}
	noticeOverlay := &appmodel.OverlaySpec{
		Type:      appmodel.OverlayPrivacy,
		Privacy:   appmodel.PrivacyConsentNotice,
		Consent:   spec,
		PolicyURL: "http://consent.example.de/policy.html",
	}
	if onTop {
		doc.App.Notice = noticeOverlay
		doc.App.Overlay = base
	} else {
		doc.App.Overlay = noticeOverlay
	}
	markup, err := doc.RenderHTML()
	if err != nil {
		t.Fatal(err)
	}
	in := hostnet.New()
	in.HandleFunc("consent.example.de", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		if r.URL.Path == "/policy.html" {
			fmt.Fprint(w, "<html><body>Datenschutz</body></html>")
			return
		}
		_, _ = w.Write(markup)
	})
	vc := clock.NewVirtual(time.Date(2023, 9, 27, 12, 0, 0, 0, time.UTC))
	rec := proxy.NewRecorder(&hostnet.Transport{Net: in}, vc)
	tv := New(Config{Clock: vc, Transport: rec, Seed: 1, OnSwitch: rec.SwitchChannel})
	tv.PowerOn()
	svc := &dvb.Service{
		ServiceID: 1, Name: "ConsentTV",
		AITSection: dvb.MustEncodeAIT(&dvb.AIT{Applications: []dvb.Application{{
			Control: dvb.ControlAutostart,
			URLBase: "http://consent.example.de/", InitialPath: "index.html",
		}}}),
	}
	if err := tv.TuneTo(svc); err != nil {
		t.Fatal(err)
	}
	return tv, rec
}

func twoLayer(modal bool) *appmodel.ConsentSpec {
	return &appmodel.ConsentSpec{
		StyleID: 1, Brand: "X", Modal: modal,
		Layers: []appmodel.ConsentLayer{
			{Buttons: []appmodel.ConsentButton{
				{Label: "Akzeptieren", Role: appmodel.RoleAcceptAll, Highlight: true},
				{Label: "Einstellungen", Role: appmodel.RoleSettings},
				{Label: "Datenschutz", Role: appmodel.RolePrivacy},
			}},
			{Buttons: []appmodel.ConsentButton{
				{Label: "Akzeptieren", Role: appmodel.RoleAcceptAll},
				{Label: "Bestätigen", Role: appmodel.RoleConfirm},
			}},
		},
	}
}

func TestFocusClamping(t *testing.T) {
	tv, _ := consentTV(t, twoLayer(false), false, nil)
	// Moving left at position 0 stays at 0; right clamps at last button.
	tv.Press(appmodel.KeyLeft)
	tv.Press(appmodel.KeyUp)
	for i := 0; i < 10; i++ {
		tv.Press(appmodel.KeyRight)
	}
	if tv.app.consentFocus != 2 {
		t.Errorf("focus = %d, want clamped to 2", tv.app.consentFocus)
	}
	tv.Press(appmodel.KeyLeft)
	if tv.app.consentFocus != 1 {
		t.Errorf("focus = %d after left", tv.app.consentFocus)
	}
}

func TestSettingsThenBackReturnsToLayer1(t *testing.T) {
	tv, _ := consentTV(t, twoLayer(false), false, nil)
	tv.Press(appmodel.KeyRight) // focus Settings
	tv.Press(appmodel.KeyEnter) // layer 2
	if tv.app.consentLayer != 1 {
		t.Fatalf("layer = %d, want 1", tv.app.consentLayer)
	}
	tv.Press(appmodel.KeyBack)
	if tv.app.consentLayer != 0 {
		t.Errorf("layer = %d after back, want 0", tv.app.consentLayer)
	}
}

func TestBackDismissesNonModalNotice(t *testing.T) {
	tv, _ := consentTV(t, twoLayer(false), false, nil)
	tv.Press(appmodel.KeyBack)
	if tv.Screenshot().Overlay != nil {
		t.Error("non-modal notice not dismissed by BACK")
	}
}

func TestModalNoticeSwallowsColorKeys(t *testing.T) {
	tv, _ := consentTV(t, twoLayer(true), false, nil)
	tv.Press(appmodel.KeyRed) // must not reach the (empty) key map
	shot := tv.Screenshot()
	if shot.Overlay == nil || shot.Overlay.Consent == nil {
		t.Error("modal notice vanished on color key")
	}
	// BACK on layer 1 of a modal notice does nothing.
	tv.Press(appmodel.KeyBack)
	if tv.Screenshot().Overlay == nil {
		t.Error("modal notice dismissed by BACK")
	}
}

func TestPrivacyButtonShowsPolicy(t *testing.T) {
	tv, _ := consentTV(t, twoLayer(false), false, nil)
	tv.Press(appmodel.KeyRight)
	tv.Press(appmodel.KeyRight) // focus "Datenschutz"
	tv.Press(appmodel.KeyEnter)
	shot := tv.Screenshot()
	if shot.Overlay == nil || shot.Overlay.Privacy != appmodel.PrivacyPolicy {
		t.Fatalf("overlay = %+v, want privacy policy view", shot.Overlay)
	}
	if shot.Overlay.PolicyURL == "" {
		t.Error("policy view lost its URL")
	}
}

func TestConfirmOnLayer2Dismisses(t *testing.T) {
	tv, _ := consentTV(t, twoLayer(false), false, nil)
	tv.Press(appmodel.KeyRight)
	tv.Press(appmodel.KeyEnter) // layer 2
	tv.Press(appmodel.KeyRight) // focus Confirm
	tv.Press(appmodel.KeyEnter)
	if tv.Screenshot().Overlay != nil {
		t.Error("confirm did not dismiss the notice")
	}
}

func TestSettingsExhaustedActsAsDecline(t *testing.T) {
	single := &appmodel.ConsentSpec{
		StyleID: 2, Brand: "Y",
		Layers: []appmodel.ConsentLayer{{
			Buttons: []appmodel.ConsentButton{
				{Label: "Akzeptieren", Role: appmodel.RoleAcceptAll},
				{Label: "Einstellungen oder Ablehnen", Role: appmodel.RoleSettingsOrDecline},
			},
		}},
	}
	tv, _ := consentTV(t, single, false, nil)
	tv.Press(appmodel.KeyRight)
	tv.Press(appmodel.KeyEnter)
	var consentVal string
	for _, c := range tv.CookieJar().All() {
		if c.Name == "consent" {
			consentVal = c.Value
		}
	}
	if !strings.HasPrefix(consentVal, "denied-") {
		t.Errorf("consent cookie = %q, want denied-*", consentVal)
	}
}

func TestOnTopNoticeRevealsBaseOverlay(t *testing.T) {
	base := &appmodel.OverlaySpec{Type: appmodel.OverlayMediaLibrary, PrivacyPointer: true}
	tv, _ := consentTV(t, twoLayer(false), true, base)
	// With the notice on top, the screenshot shows the notice.
	if shot := tv.Screenshot(); shot.Overlay == nil || shot.Overlay.Type != appmodel.OverlayPrivacy {
		t.Fatalf("on-top notice not shown: %+v", shot.Overlay)
	}
	// Accepting reveals the media library beneath.
	tv.Press(appmodel.KeyEnter)
	shot := tv.Screenshot()
	if shot.Overlay == nil || shot.Overlay.Type != appmodel.OverlayMediaLibrary {
		t.Fatalf("base overlay not revealed: %+v", shot.Overlay)
	}
}

func TestConsentCookieIsTimestampValued(t *testing.T) {
	tv, _ := consentTV(t, twoLayer(false), false, nil)
	tv.Press(appmodel.KeyEnter) // accept (default focus)
	var val string
	for _, c := range tv.CookieJar().All() {
		if c.Name == "consent" {
			val = c.Value
		}
	}
	// Value format "all-<unixtime>": the timestamp class the ID heuristic
	// must exclude.
	if !strings.HasPrefix(val, "all-") {
		t.Fatalf("consent cookie = %q", val)
	}
	ts := strings.TrimPrefix(val, "all-")
	if len(ts) != 10 {
		t.Errorf("timestamp part = %q", ts)
	}
}

func TestKeysIgnoredWithoutApp(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC))
	rec := proxy.NewRecorder(&hostnet.Transport{Net: hostnet.New()}, vc)
	tv := New(Config{Clock: vc, Transport: rec, Seed: 1})
	tv.PowerOn()
	tv.Press(appmodel.KeyRed) // must not panic
	tv.Watch(10 * time.Second)
	if got := vc.Now().Sub(time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)); got != 10*time.Second {
		t.Errorf("Watch without app advanced %v", got)
	}
}
