package headend

import (
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/hostnet"
)

func testClock() *clock.Virtual {
	return clock.NewVirtual(time.Date(2023, 9, 14, 10, 0, 0, 0, time.UTC))
}

// get fetches rawURL and reads its body. The response stays open until
// the test ends: the virtual network lends a response's header only until
// its body is closed, and the callers read it after get returns.
func get(t *testing.T, client *http.Client, rawURL string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(rawURL)
	if err != nil {
		t.Fatalf("GET %s: %v", rawURL, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

func TestTrackerPixelUnderThreshold(t *testing.T) {
	in := hostnet.New()
	NewTrackerService(Tracker{Domain: "tvping.com"}, testClock(), 1).Install(in)
	client := &http.Client{Transport: &hostnet.Transport{Net: in}}
	resp, body := get(t, client, "http://tvping.com/t?c=x")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/gif" {
		t.Errorf("content type = %q", ct)
	}
	if len(body) >= 45 {
		t.Errorf("pixel is %d bytes, want < 45", len(body))
	}
}

func TestTrackerFatPixelOverThreshold(t *testing.T) {
	in := hostnet.New()
	NewTrackerService(Tracker{Domain: "cdn-images.de", FatPixel: true}, testClock(), 1).Install(in)
	client := &http.Client{Transport: &hostnet.Transport{Net: in}}
	_, body := get(t, client, "http://cdn-images.de/px")
	if len(body) < 45 {
		t.Errorf("fat pixel is %d bytes, want >= 45", len(body))
	}
}

func TestTrackerIDCookieMintedOnce(t *testing.T) {
	in := hostnet.New()
	NewTrackerService(Tracker{
		Domain: "xiti.com", CookieName: "xtuid", CookieKind: CookieID,
	}, testClock(), 7).Install(in)

	jarLess := &http.Client{Transport: &hostnet.Transport{Net: in}}
	resp, _ := get(t, jarLess, "http://xiti.com/px")
	cookies := resp.Cookies()
	if len(cookies) != 1 || cookies[0].Name != "xtuid" {
		t.Fatalf("cookies = %v", cookies)
	}
	v := cookies[0].Value
	if len(v) < 10 || len(v) > 25 {
		t.Errorf("ID cookie value %q not in 10-25 char band", v)
	}

	// Presenting the cookie back suppresses re-minting.
	req, _ := http.NewRequest(http.MethodGet, "http://xiti.com/px", nil)
	req.AddCookie(&http.Cookie{Name: "xtuid", Value: v})
	resp2, err := jarLess.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	if len(resp2.Cookies()) != 0 {
		t.Errorf("tracker re-minted an ID: %v", resp2.Cookies())
	}
	resp2.Body.Close()
}

func TestTrackerTimestampCookie(t *testing.T) {
	clk := testClock()
	in := hostnet.New()
	NewTrackerService(Tracker{
		Domain: "consent.cmp.de", CookieName: "ctime", CookieKind: CookieTimestamp,
	}, clk, 3).Install(in)
	client := &http.Client{Transport: &hostnet.Transport{Net: in}}
	resp, _ := get(t, client, "http://consent.cmp.de/px")
	v := resp.Cookies()[0].Value
	if v != "1694685600" { // the fixture clock's Unix time
		t.Errorf("timestamp cookie = %q", v)
	}
}

func TestTrackerFingerprintScript(t *testing.T) {
	in := hostnet.New()
	NewTrackerService(Tracker{Domain: "fp.example.net", Fingerprint: true}, testClock(), 5).Install(in)
	client := &http.Client{Transport: &hostnet.Transport{Net: in}}
	resp, body := get(t, client, "http://fp.example.net/fp.js")
	if ct := resp.Header.Get("Content-Type"); ct != "application/javascript" {
		t.Errorf("content type = %q", ct)
	}
	for _, marker := range []string{"toDataURL", "webgl", "Fingerprint2", "AudioContext"} {
		if !strings.Contains(string(body), marker) {
			t.Errorf("fingerprint script missing marker %q", marker)
		}
	}
}

func TestTrackerPlainScriptHasNoFingerprintMarkers(t *testing.T) {
	in := hostnet.New()
	NewTrackerService(Tracker{Domain: "plain.example.net"}, testClock(), 5).Install(in)
	client := &http.Client{Transport: &hostnet.Transport{Net: in}}
	_, body := get(t, client, "http://plain.example.net/js")
	for _, marker := range []string{"toDataURL", "webgl", "Fingerprint2"} {
		if strings.Contains(string(body), marker) {
			t.Errorf("plain analytics script contains %q", marker)
		}
	}
}

func TestCookieSyncHandshake(t *testing.T) {
	clk := testClock()
	in := hostnet.New()
	NewTrackerService(Tracker{
		Domain: "syncer-a.com", CookieName: "sa_uid", CookieKind: CookieID,
		SyncPartner: "syncer-b.com",
	}, clk, 11).Install(in)
	NewTrackerService(Tracker{
		Domain: "syncer-b.com", CookieName: "sb_uid", CookieKind: CookieID,
	}, clk, 12).Install(in)

	// Use a jar so the redirect carries state like the TV browser.
	jar := newTestJar(clk)
	client := &http.Client{Transport: &hostnet.Transport{Net: in}, Jar: jar}
	resp, _ := get(t, client, "http://syncer-a.com/sync")
	// Following the 302, the final response is b's /match pixel.
	if resp.Request.URL.Host != "syncer-b.com" {
		t.Fatalf("final URL = %v", resp.Request.URL)
	}
	puid := resp.Request.URL.Query().Get("puid")
	if puid == "" {
		t.Fatal("no puid forwarded to partner")
	}
	// The forwarded ID equals a's cookie: that is the sync.
	u, _ := url.Parse("http://syncer-a.com/")
	var aCookie string
	for _, c := range jar.Cookies(u) {
		if c.Name == "sa_uid" {
			aCookie = c.Value
		}
	}
	if aCookie != puid {
		t.Errorf("synced id %q != cookie %q", puid, aCookie)
	}
}

func TestAppServerPagesAndPolicies(t *testing.T) {
	doc := &appmodel.Document{Title: "Entry", App: &appmodel.AppSpec{}}
	in := hostnet.New()
	MustInstallSite(in, ChannelSite{
		Host:     "hbbtv.kanal.de",
		Pages:    map[string]*appmodel.Document{"/index.html": doc},
		Policies: map[string]string{"/privacy.html": "<html><body><h1>Datenschutzerklärung</h1></body></html>"},
		ServerCookies: []http.Cookie{
			{Name: "lb", Value: "node-3", Path: "/"},
		},
	})
	client := &http.Client{Transport: &hostnet.Transport{Net: in}}

	resp, body := get(t, client, "http://hbbtv.kanal.de/index.html")
	if !strings.Contains(string(body), "<title>Entry</title>") {
		t.Errorf("entry body = %q", body)
	}
	if got := resp.Cookies(); len(got) != 1 || got[0].Name != "lb" {
		t.Errorf("server cookies = %v", got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/vnd.hbbtv.xhtml+xml" {
		t.Errorf("content type = %q", ct)
	}

	resp, body = get(t, client, "http://hbbtv.kanal.de/privacy.html")
	if !strings.Contains(string(body), "Datenschutzerklärung") {
		t.Errorf("policy body = %q", body)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html") {
		t.Errorf("policy content type = %q", resp.Header.Get("Content-Type"))
	}

	// Static fallbacks.
	resp, _ = get(t, client, "http://hbbtv.kanal.de/style.css")
	if resp.Header.Get("Content-Type") != "text/css" {
		t.Errorf("css content type = %q", resp.Header.Get("Content-Type"))
	}
	resp, bodyPNG := get(t, client, "http://hbbtv.kanal.de/logo.png")
	if len(bodyPNG) < 45 {
		t.Error("content image must be over the pixel threshold")
	}
	resp, _ = get(t, client, "http://hbbtv.kanal.de/ghost")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp.StatusCode)
	}
}

func TestTrackerWildcardSubdomain(t *testing.T) {
	in := hostnet.New()
	NewTrackerService(Tracker{Domain: "bigtrack.com"}, testClock(), 1).Install(in)
	client := &http.Client{Transport: &hostnet.Transport{Net: in}}
	resp, _ := get(t, client, "http://cdn.eu.bigtrack.com/t")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("wildcard subdomain status = %d", resp.StatusCode)
	}
}
