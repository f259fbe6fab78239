package webos

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/hostnet"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

// refHandler is the reference fixture's one service, answering by its
// request: every "set" query value becomes a Set-Cookie line, "loc" a
// Location and "code" the status (200 without it); /hop/N redirects to
// /hop/N-1 until N is 0. The body echoes the method, URL and request body.
func refHandler(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	for _, c := range q["set"] {
		w.Header().Add("Set-Cookie", c)
	}
	code := http.StatusOK
	if n, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/hop/")); err == nil && n > 0 {
		w.Header().Set("Location", fmt.Sprintf("/hop/%d", n-1))
		code = http.StatusFound
	}
	if loc, ok := q["loc"]; ok {
		w.Header().Set("Location", loc[0])
	}
	if c := q.Get("code"); c != "" {
		code, _ = strconv.Atoi(c)
	}
	body, _ := io.ReadAll(r.Body)
	w.Header().Set("Content-Type", "text/plain")
	w.WriteHeader(code)
	fmt.Fprintf(w, "%s %s %s", r.Method, r.URL, body)
}

// refURL builds a fixture URL whose query asks refHandler for a status, a
// Location and Set-Cookie lines.
func refURL(base, code, loc string, set ...string) string {
	q := url.Values{}
	if code != "" {
		q.Set("code", code)
	}
	if loc != "" {
		q.Set("loc", loc)
	}
	for _, s := range set {
		q.Add("set", s)
	}
	if len(q) == 0 {
		return base
	}
	return base + "?" + q.Encode()
}

// refRequest is one request of a reference case, as the TV issues it.
type refRequest struct {
	method, url, referer, contentType string
	body                              []byte
}

// newRefRecorder is one half of the comparison: a fresh fixture Internet
// behind its own recorder, on its own clock.
func newRefRecorder(t0 time.Time) (*proxy.Recorder, *clock.Virtual) {
	in := hostnet.New()
	in.HandleFunc("*.example", refHandler)
	clk := clock.NewVirtual(t0)
	return proxy.NewRecorder(&hostnet.Transport{Net: in}, clk), clk
}

// quietLog silences the standard logger for tb's lifetime: the client's
// AddCookie logs every cookie value it sanitizes.
func quietLog(tb testing.TB) {
	out := log.Writer()
	log.SetOutput(io.Discard)
	tb.Cleanup(func() { log.SetOutput(out) })
}

// refOutcome is what one request leaves: the final status and body, or
// the error string.
type refOutcome struct {
	status int
	body   string
	err    string
}

// TestTVRequestMatchesClient holds the TV's request loop to what
// net/http.Client with the TV's jar did for the same requests: the same
// recorded flows (method, URL, request headers, bodies), the same jar
// contents and the same results, error strings included.
func TestTVRequestMatchesClient(t *testing.T) {
	quietLog(t)
	t0 := time.Date(2023, 8, 21, 18, 0, 0, 0, time.UTC)
	post := func(url, code, loc string) refRequest {
		return refRequest{method: http.MethodPost, url: refURL(url, code, loc), referer: "http://app.example/index.html",
			contentType: "application/json", body: []byte(`{"canvas":"0123abcd","apis":["a","b"]}`)}
	}
	get := func(url, referer string) refRequest {
		return refRequest{method: http.MethodGet, url: url, referer: referer}
	}
	cases := []struct {
		name string
		// seed is stored in both jars before the requests, straight from
		// the app's script: names and values the sanitizer must rewrite.
		seed []*http.Cookie
		reqs []refRequest
	}{{
		name: "tied cookie order",
		seed: []*http.Cookie{
			{Name: "cr\rlf\nname", Value: `dro"p;pe\d`, Path: "/"},
			{Name: "spaced", Value: "a b,c", Path: "/"},
			{Name: "ctl", Value: "x\x01\x7fy\xffz", Path: "/"},
		},
		reqs: []refRequest{
			get(refURL("http://a.tie.example/set", "", "",
				"z=1; Path=/", "a=2; Path=/", "m=3; Domain=tie.example; Path=/",
				"p=4; Path=/deep", `q="quoted"; Path=/`, "bad=x; Path=nodir"), ""),
			get("http://a.tie.example/deep/page", "http://app.example/"),
			get("http://b.tie.example/", ""),
		},
	}, {
		name: "cross-host 302 setting a cookie on the redirect hop",
		reqs: []refRequest{
			get(refURL("http://sync.a.example/sync", "302",
				refURL("http://match.b.example/match", "", "", "partner=77; Path=/"), "uid=abc123; Path=/"),
				"http://app.example/index.html"),
			get("http://sync.a.example/again", ""),
			get("http://match.b.example/again", ""),
		},
	}, {
		name: "relative Location",
		reqs: []refRequest{get(refURL("http://rel.example/a/b/c", "301", "../d?e=1&e=2"), "")},
	}, {
		name: "https to http with an explicit Referer",
		reqs: []refRequest{get(refURL("https://sec.example/r", "302", "http://plain.example/x"), "http://app.example/index.html")},
	}, {
		name: "hops with an empty Referer",
		reqs: []refRequest{
			get(refURL("https://sec.example/r", "302", "http://plain.example/x"), ""),
			get(refURL("http://plain.example/r", "302", refURL("https://sec.example/s", "307", "/t")), ""),
		},
	}, {
		name: "POST answered by 303",
		reqs: []refRequest{post("http://form.example/submit", "303", "/after")},
	}, {
		name: "POST answered by 307",
		reqs: []refRequest{post("http://form.example/submit", "307", "http://other.example/again")},
	}, {
		name: "POST through 302 then 307",
		reqs: []refRequest{post("http://form.example/submit", "302", refURL("/next", "307", "/last"))},
	}, {
		name: "3xx without Location",
		reqs: []refRequest{get(refURL("http://bare.example/", "302", "", "seen=1"), "")},
	}, {
		name: "11 chained redirects",
		reqs: []refRequest{get("http://chain.example/hop/11", "http://app.example/"), get("http://chain.example/hop/9", "")},
	}, {
		name: "11 chained redirects of a POST",
		reqs: []refRequest{{method: http.MethodPost, url: "http://chain.example/hop/11", contentType: "text/plain", body: []byte("x")}},
	}, {
		name: "unparsable Location",
		reqs: []refRequest{get(refURL("http://bad.example/", "302", "%zz"), "")},
	}, {
		name: "NXDOMAIN on the second hop",
		reqs: []refRequest{
			get(refURL("http://dns.example/", "302", "http://nx.invalid/x", "before=1"), ""),
			post("http://dns.example/p", "307", "https://nx.invalid/y"),
		},
	}, {
		name: "unparsable request URL",
		reqs: []refRequest{get("http://bad host.example/", "")},
	}, {
		name: "empty port",
		reqs: []refRequest{get(refURL("http://port.example:/x", "302", "http://port.example:/y"), "")},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tvRec, tvClk := newRefRecorder(t0)
			tv := New(Config{Clock: tvClk, Transport: tvRec, Seed: 7})
			clientRec, clientClk := newRefRecorder(t0)
			clientJar := NewJar(clientClk)
			client := &http.Client{Transport: clientRec, Jar: clientJar}
			seedURL := &url.URL{Scheme: "http", Host: "a.tie.example", Path: "/app/index.html"}
			tv.CookieJar().SetCookies(seedURL, tc.seed)
			clientJar.SetCookies(seedURL, tc.seed)

			for i, r := range tc.reqs {
				got := tvRequest(tv, r)
				want := clientRequest(t, client, tv.userAgent, r)
				if got != want {
					t.Errorf("request %d (%s %s):\n tv:     %+v\n client: %+v", i, r.method, r.url, got, want)
				}
			}
			compareFlows(t, tvRec.Flows(), clientRec.Flows())
			if got, want := tv.CookieJar().All(), clientJar.All(); !reflect.DeepEqual(got, want) {
				t.Errorf("jars differ:\n tv:     %+v\n client: %+v", got, want)
			}
		})
	}
}

// tvRequest issues r through the TV's own request loop.
func tvRequest(tv *TV, r refRequest) refOutcome {
	u, err := parseRequestURL(r.url)
	if err != nil {
		return refOutcome{err: err.Error()}
	}
	resp, err := tv.send(r.method, u, r.referer, r.contentType, r.body)
	if err != nil {
		return refOutcome{err: err.Error()}
	}
	return refOutcome{status: resp.StatusCode, body: string(readBody(resp))}
}

// clientRequest issues r through the reference: http.NewRequest with the
// TV's headers, sent by net/http.Client.Do.
func clientRequest(t *testing.T, c *http.Client, userAgent string, r refRequest) refOutcome {
	t.Helper()
	var body io.Reader
	if r.body != nil {
		body = strings.NewReader(string(r.body))
	}
	req, err := http.NewRequest(r.method, r.url, body)
	if err != nil {
		return refOutcome{err: err.Error()}
	}
	if r.contentType != "" {
		req.Header.Set("Content-Type", r.contentType)
	}
	if r.referer != "" {
		req.Header.Set("Referer", r.referer)
	}
	req.Header.Set("User-Agent", userAgent)
	resp, err := c.Do(req)
	if err != nil {
		return refOutcome{err: err.Error()}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return refOutcome{status: resp.StatusCode, body: string(b)}
}

// compareFlows checks that two recordings hold the same requests.
func compareFlows(t *testing.T, got, want []*proxy.Flow) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("tv recorded %d flows, client %d:\n tv:     %v\n client: %v",
			len(got), len(want), flowURLs(got), flowURLs(want))
		return
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Method != w.Method || g.URL.String() != w.URL.String() || g.StatusCode != w.StatusCode ||
			!bytes.Equal(g.RequestBody, w.RequestBody) || !reflect.DeepEqual(g.RequestHeaders, w.RequestHeaders) {
			t.Errorf("flow %d differs:\n tv:     %s %s %d %q %v\n client: %s %s %d %q %v", i,
				g.Method, g.URL, g.StatusCode, g.RequestBody, g.RequestHeaders,
				w.Method, w.URL, w.StatusCode, w.RequestBody, w.RequestHeaders)
		}
	}
}

// FuzzCookieHeader: the jar's one-pass Cookie header equals the header
// (*http.Request).AddCookie builds from Jar.Cookies one cookie at a time,
// for any names and values — bytes the sanitizer drops, values it quotes,
// CR and LF in names — and any mix of paths and domains. Its seed corpus
// is testdata/fuzz/FuzzCookieHeader.
func FuzzCookieHeader(f *testing.F) {
	quietLog(f)
	t0 := time.Date(2023, 8, 21, 18, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, n1, v1, n2, v2, n3, v3, path string) {
		j := NewJar(clock.NewVirtual(t0))
		u := &url.URL{Scheme: "http", Host: "www.fuzz.example", Path: "/app/page"}
		j.SetCookies(u, []*http.Cookie{
			{Name: n1, Value: v1, Path: path},
			{Name: n2, Value: v2, Domain: "fuzz.example", Path: "/"},
			{Name: n3, Value: v3},
		})
		req := &http.Request{Header: http.Header{}}
		for _, c := range j.Cookies(u) {
			req.AddCookie(c)
		}
		if got, want := j.CookieHeader(u), req.Header.Get("Cookie"); got != want {
			t.Fatalf("CookieHeader = %q, AddCookie chain = %q", got, want)
		}
	})
}
