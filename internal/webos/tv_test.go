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

// testFixture wires a virtual world: one channel (hbbtv.testtv.de) with an
// autostart app embedding a tracking pixel, a beacon, script cookies, and
// a consent notice behind the blue button.
type testFixture struct {
	clock *clock.Virtual
	rec   *proxy.Recorder
	tv    *TV
	svc   *dvb.Service
}

func consentNotice() *appmodel.ConsentSpec {
	return &appmodel.ConsentSpec{
		StyleID:  1,
		Brand:    "TestTV Group",
		Language: "de",
		Layers: []appmodel.ConsentLayer{
			{
				Buttons: []appmodel.ConsentButton{
					{Label: "Alle akzeptieren", Role: appmodel.RoleAcceptAll, Highlight: true},
					{Label: "Einstellungen", Role: appmodel.RoleSettings},
				},
				DefaultFocus: 0,
			},
			{
				Buttons: []appmodel.ConsentButton{
					{Label: "Alle akzeptieren", Role: appmodel.RoleAcceptAll, Highlight: true},
					{Label: "Nur notwendige", Role: appmodel.RoleOnlyNecessary},
				},
				Checkboxes: []appmodel.ConsentCheckbox{
					{Label: "Notwendig", PreTicked: true, Immutable: true},
					{Label: "Marketing", PreTicked: true},
				},
				DefaultFocus: 0,
			},
		},
	}
}

func testApp() *appmodel.Document {
	return &appmodel.Document{
		Title: "TestTV HbbTV",
		Resources: []appmodel.Resource{
			{Kind: appmodel.ResImage, URL: "http://pixel.trk.example/px?c=testtv", Width: 1, Height: 1},
			{Kind: appmodel.ResScript, URL: "http://cdn.testtv.de/app.js"},
		},
		App: &appmodel.AppSpec{
			Cookies: []appmodel.CookieSpec{
				{Name: "appid", Value: "{session}", MaxAge: 3600},
			},
			Storage: []appmodel.StorageSpec{{Key: "seen", Value: "1"}},
			Beacons: []appmodel.BeaconSpec{{
				URL:             "http://beacon.trk.example/t",
				IntervalSeconds: 10,
				Params:          map[string]string{"uid": "{user}", "chan": "{channel}"},
			}},
			KeyMap: map[appmodel.Key]appmodel.Action{
				appmodel.KeyRed: {Kind: appmodel.ActionNavigate, URL: "http://hbbtv.testtv.de/mediathek.html"},
				appmodel.KeyBlue: {Kind: appmodel.ActionOverlay, Overlay: &appmodel.OverlaySpec{
					Type:      appmodel.OverlayPrivacy,
					Privacy:   appmodel.PrivacyConsentNotice,
					Consent:   consentNotice(),
					PolicyURL: "http://hbbtv.testtv.de/privacy.html",
				}},
			},
		},
	}
}

func mediathekApp() *appmodel.Document {
	return &appmodel.Document{
		Title: "TestTV Mediathek",
		App: &appmodel.AppSpec{
			Overlay: &appmodel.OverlaySpec{
				Type:           appmodel.OverlayMediaLibrary,
				PrivacyPointer: true,
			},
		},
	}
}

func newFixture(t *testing.T) *testFixture {
	t.Helper()
	in := hostnet.New()
	serveDoc := func(host, path string, doc *appmodel.Document) {
		markup, err := doc.RenderHTML()
		if err != nil {
			t.Fatal(err)
		}
		in.HandleFunc(host, func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case path:
				w.Header().Set("Content-Type", "application/vnd.hbbtv.xhtml+xml")
				_, _ = w.Write(markup)
			case "/mediathek.html":
				m, _ := mediathekApp().RenderHTML()
				w.Header().Set("Content-Type", "application/vnd.hbbtv.xhtml+xml")
				_, _ = w.Write(m)
			default:
				http.NotFound(w, r)
			}
		})
	}
	serveDoc("hbbtv.testtv.de", "/index.html", testApp())
	in.HandleFunc("cdn.testtv.de", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/javascript")
		fmt.Fprint(w, "/* app */")
	})
	in.HandleFunc("pixel.trk.example", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "image/gif")
		http.SetCookie(w, &http.Cookie{Name: "trkid", Value: "z9y8x7w6v5", MaxAge: 86400})
		_, _ = w.Write([]byte{0x47, 0x49, 0x46})
	})
	in.HandleFunc("beacon.trk.example", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "image/gif")
		w.WriteHeader(http.StatusOK)
	})

	vc := clock.NewVirtual(time.Date(2023, 9, 27, 14, 0, 0, 0, time.UTC))
	rec := proxy.NewRecorder(&hostnet.Transport{Net: in}, vc)
	tv := New(Config{
		Clock:     vc,
		Transport: rec,
		Seed:      42,
		OnSwitch:  rec.SwitchChannel,
	})

	ait := dvb.MustEncodeAIT(&dvb.AIT{Applications: []dvb.Application{{
		OrganizationID: 99, ApplicationID: 1,
		Control: dvb.ControlAutostart,
		URLBase: "http://hbbtv.testtv.de/", InitialPath: "index.html",
	}}})
	svc := &dvb.Service{
		ServiceID:    700,
		Name:         "TestTV",
		Transponder:  dvb.Transponder{Satellite: dvb.Astra1L, FrequencyMHz: 11111},
		AITSection:   ait,
		CurrentShow:  "Quiz Night",
		CurrentGenre: "Show",
	}
	return &testFixture{clock: vc, rec: rec, tv: tv, svc: svc}
}

func TestTVLoadsAutostartApp(t *testing.T) {
	fx := newFixture(t)
	fx.tv.PowerOn()
	if err := fx.tv.TuneTo(fx.svc); err != nil {
		t.Fatal(err)
	}
	if !fx.tv.HasApp() {
		t.Fatal("no app running after tune")
	}
	flows := fx.rec.Flows()
	// Entry document + pixel + script.
	if len(flows) != 3 {
		t.Fatalf("flows = %d, want 3: %v", len(flows), flowURLs(flows))
	}
	if flows[0].URL.Host != "hbbtv.testtv.de" {
		t.Errorf("first flow = %v", flows[0].URL)
	}
	for _, f := range flows {
		if f.Channel != "TestTV" {
			t.Errorf("flow %v attributed to %q", f.URL, f.Channel)
		}
	}
	// Subresources must carry the document Referer.
	if got := flows[1].Referer(); got != "http://hbbtv.testtv.de/index.html" {
		t.Errorf("pixel referer = %q", got)
	}
	// The third-party pixel set a cookie.
	var found bool
	for _, c := range fx.tv.CookieJar().All() {
		if c.Name == "trkid" && c.Domain == "pixel.trk.example" {
			found = true
		}
	}
	if !found {
		t.Errorf("tracker cookie missing; jar = %+v", fx.tv.CookieJar().All())
	}
	// Script cookie on the app origin with expanded session ID.
	var appid string
	for _, c := range fx.tv.CookieJar().All() {
		if c.Name == "appid" {
			appid = c.Value
		}
	}
	if appid != fx.tv.SessionID() {
		t.Errorf("appid cookie = %q, want session %q", appid, fx.tv.SessionID())
	}
	// localStorage write happened.
	if v, ok := fx.tv.Storage().Get("http://hbbtv.testtv.de", "seen"); !ok || v != "1" {
		t.Errorf("storage = %q, %v", v, ok)
	}
}

func TestTVWatchFiresBeacons(t *testing.T) {
	fx := newFixture(t)
	fx.tv.PowerOn()
	if err := fx.tv.TuneTo(fx.svc); err != nil {
		t.Fatal(err)
	}
	before := fx.rec.Len()
	start := fx.clock.Now()
	fx.tv.Watch(60 * time.Second)
	if got := fx.clock.Now().Sub(start); got != 60*time.Second {
		t.Errorf("Watch advanced clock by %v", got)
	}
	beacons := fx.rec.Flows()[before:]
	if len(beacons) != 6 { // every 10 s over 60 s
		t.Fatalf("beacons = %d, want 6: %v", len(beacons), flowURLs(beacons))
	}
	q := beacons[0].URL.Query()
	if q.Get("uid") != fx.tv.UserID() || q.Get("chan") != "TestTV" {
		t.Errorf("beacon params = %v", q)
	}
}

func TestTVRedButtonNavigates(t *testing.T) {
	fx := newFixture(t)
	fx.tv.PowerOn()
	if err := fx.tv.TuneTo(fx.svc); err != nil {
		t.Fatal(err)
	}
	fx.tv.Press(appmodel.KeyRed)
	shot := fx.tv.Screenshot()
	if shot.Overlay == nil || shot.Overlay.Type != appmodel.OverlayMediaLibrary {
		t.Fatalf("after red button, overlay = %+v", shot.Overlay)
	}
	if !shot.Overlay.PrivacyPointer {
		t.Error("media library should show a privacy pointer")
	}
}

func TestTVConsentFlow(t *testing.T) {
	fx := newFixture(t)
	fx.tv.PowerOn()
	if err := fx.tv.TuneTo(fx.svc); err != nil {
		t.Fatal(err)
	}
	// Blue button shows the consent notice.
	fx.tv.Press(appmodel.KeyBlue)
	shot := fx.tv.Screenshot()
	if shot.Overlay == nil || shot.Overlay.Privacy != appmodel.PrivacyConsentNotice {
		t.Fatalf("after blue, overlay = %+v", shot.Overlay)
	}
	if got := shot.Overlay.Consent.Layers[0].Buttons[0].Role; got != appmodel.RoleAcceptAll {
		t.Fatalf("layer-1 focus button = %v", got)
	}

	// Move focus to "Einstellungen" and activate: the second layer shows.
	fx.tv.Press(appmodel.KeyRight)
	fx.tv.Press(appmodel.KeyEnter)
	shot = fx.tv.Screenshot()
	if shot.Overlay == nil || shot.Overlay.Consent == nil {
		t.Fatal("consent vanished instead of showing layer 2")
	}
	layer := shot.Overlay.Consent.Layers[0] // screenshot shows visible layer
	if len(layer.Checkboxes) != 2 {
		t.Fatalf("layer 2 checkboxes = %+v", layer.Checkboxes)
	}

	// Choose "Nur notwendige".
	fx.tv.Press(appmodel.KeyRight)
	fx.tv.Press(appmodel.KeyEnter)
	if fx.tv.Screenshot().Overlay != nil {
		t.Error("notice still visible after decision")
	}
	var consentVal string
	for _, c := range fx.tv.CookieJar().All() {
		if c.Name == "consent" {
			consentVal = c.Value
		}
	}
	if !strings.HasPrefix(consentVal, "necessary-") {
		t.Errorf("consent cookie = %q", consentVal)
	}
}

func TestTVConsentAcceptDefaultFocus(t *testing.T) {
	fx := newFixture(t)
	fx.tv.PowerOn()
	if err := fx.tv.TuneTo(fx.svc); err != nil {
		t.Fatal(err)
	}
	fx.tv.Press(appmodel.KeyBlue)
	// ENTER without moving focus hits the highlighted "Accept" — the
	// nudging default the paper describes.
	fx.tv.Press(appmodel.KeyEnter)
	var consentVal string
	for _, c := range fx.tv.CookieJar().All() {
		if c.Name == "consent" {
			consentVal = c.Value
		}
	}
	if !strings.HasPrefix(consentVal, "all-") {
		t.Errorf("consent cookie = %q, want all-*", consentVal)
	}
}

func TestTVScreenshotStates(t *testing.T) {
	fx := newFixture(t)
	// Powered off: nothing.
	shot := fx.tv.Screenshot()
	if shot.Channel != "" || shot.HasSignal {
		t.Errorf("powered-off screenshot = %+v", shot)
	}
	fx.tv.PowerOn()

	enc := &dvb.Service{ServiceID: 9, Name: "PayTV", Encrypted: true}
	if err := fx.tv.TuneTo(enc); err != nil {
		t.Fatal(err)
	}
	shot = fx.tv.Screenshot()
	if shot.Overlay == nil || shot.Overlay.Type != appmodel.OverlayCTM {
		t.Errorf("encrypted screenshot = %+v", shot.Overlay)
	}

	inv := &dvb.Service{ServiceID: 10, Name: "Ghost", Invisible: true}
	if err := fx.tv.TuneTo(inv); err != nil {
		t.Fatal(err)
	}
	shot = fx.tv.Screenshot()
	if shot.Overlay == nil || shot.Overlay.Type != appmodel.OverlayNoSignal {
		t.Errorf("invisible screenshot = %+v", shot.Overlay)
	}
}

func TestTVWipeBrowserState(t *testing.T) {
	fx := newFixture(t)
	fx.tv.PowerOn()
	if err := fx.tv.TuneTo(fx.svc); err != nil {
		t.Fatal(err)
	}
	if fx.tv.CookieJar().Len() == 0 || fx.tv.Storage().Len() == 0 {
		t.Fatal("fixture should have set state")
	}
	fx.tv.WipeBrowserState()
	if fx.tv.CookieJar().Len() != 0 || fx.tv.Storage().Len() != 0 {
		t.Error("wipe left state behind")
	}
}

func TestTVTuneWhileOffFails(t *testing.T) {
	fx := newFixture(t)
	if err := fx.tv.TuneTo(fx.svc); err == nil {
		t.Fatal("TuneTo succeeded on a powered-off TV")
	}
}

func TestTVLogsInteractions(t *testing.T) {
	fx := newFixture(t)
	fx.tv.PowerOn()
	if err := fx.tv.TuneTo(fx.svc); err != nil {
		t.Fatal(err)
	}
	fx.tv.Press(appmodel.KeyYellow)
	var kinds []LogKind
	for _, l := range fx.tv.Logs() {
		kinds = append(kinds, l.Kind)
	}
	wantSome := map[LogKind]bool{LogSwitch: false, LogKey: false, LogApp: false}
	for _, k := range kinds {
		if _, ok := wantSome[k]; ok {
			wantSome[k] = true
		}
	}
	for k, seen := range wantSome {
		if !seen {
			t.Errorf("no %s log entry; logs = %v", k, kinds)
		}
	}
}

func flowURLs(flows []*proxy.Flow) []string {
	out := make([]string, len(flows))
	for i, f := range flows {
		out[i] = f.URL.String()
	}
	return out
}
