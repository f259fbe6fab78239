package proxy

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/hostnet"
)

func testWorld() *hostnet.Internet {
	in := hostnet.New()
	in.HandleFunc("hbbtv.ard.de", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		http.SetCookie(w, &http.Cookie{Name: "ardid", Value: "abc123"})
		fmt.Fprint(w, "<html><body>ARD</body></html>")
	})
	in.HandleFunc("tvping.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "image/gif")
		_, _ = w.Write([]byte("GIF89a"))
	})
	in.HandleFunc("collector.de", func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "len=%d", len(b))
	})
	return in
}

func newTestRecorder() (*Recorder, *clock.Virtual) {
	vc := clock.NewVirtual(time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC))
	inner := &hostnet.Transport{Net: testWorld()}
	return NewRecorder(inner, vc), vc
}

func TestRecorderRecordsFlows(t *testing.T) {
	rec, _ := newTestRecorder()
	rec.SwitchChannel("Das Erste HD", "sid-1")
	client := &http.Client{Transport: rec}

	resp, err := client.Get("http://hbbtv.ard.de/index.html")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "ARD") {
		t.Errorf("body = %q", body)
	}

	flows := rec.Flows()
	if len(flows) != 1 {
		t.Fatalf("recorded %d flows, want 1", len(flows))
	}
	f := flows[0]
	if f.Method != http.MethodGet || f.URL.Host != "hbbtv.ard.de" {
		t.Errorf("flow = %s %s", f.Method, f.URL)
	}
	if f.Channel != "Das Erste HD" || f.ChannelID != "sid-1" {
		t.Errorf("attribution = %q/%q", f.Channel, f.ChannelID)
	}
	if f.HTTPS {
		t.Error("http flow marked HTTPS")
	}
	if f.ContentType() != "text/html" {
		t.Errorf("content type = %q", f.ContentType())
	}
	if cs := f.SetCookies(); len(cs) != 1 || cs[0].Name != "ardid" {
		t.Errorf("set-cookies = %v", cs)
	}
	if f.ResponseSize == 0 {
		t.Error("response size not recorded")
	}
}

func TestRecorderHTTPSFlag(t *testing.T) {
	rec, _ := newTestRecorder()
	rec.SwitchChannel("X", "1")
	client := &http.Client{Transport: rec}
	if _, err := client.Get("https://tvping.com/t?c=x"); err != nil {
		t.Fatal(err)
	}
	if f := rec.Flows()[0]; !f.HTTPS {
		t.Error("https flow not marked HTTPS")
	}
}

func TestRecorderPostBodyCaptured(t *testing.T) {
	rec, _ := newTestRecorder()
	rec.SwitchChannel("X", "1")
	client := &http.Client{Transport: rec}
	resp, err := client.Post("http://collector.de/fp", "application/json", strings.NewReader(`{"canvas":"deadbeef"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "len=21" {
		t.Errorf("server saw %q", body)
	}
	if got := string(rec.Flows()[0].RequestBody); got != `{"canvas":"deadbeef"}` {
		t.Errorf("recorded body = %q", got)
	}
}

// failingBody yields n bytes of 'x', then err; it counts its Close calls.
type failingBody struct {
	n      int
	err    error
	closes int
}

func (b *failingBody) Read(p []byte) (int, error) {
	if b.n == 0 {
		return 0, b.err
	}
	k := min(len(p), b.n)
	for i := range p[:k] {
		p[i] = 'x'
	}
	b.n -= k
	return k, nil
}

func (b *failingBody) Close() error {
	b.closes++
	return nil
}

// TestRecorderRequestBodies: the recorder closes the caller's body exactly
// once and leaves the caller's request alone. A body that fails to read,
// within the recorded prefix or after it, fails the round trip and records
// no flow; a body that reads forwards all its bytes and records the first
// 16 KB of them.
func TestRecorderRequestBodies(t *testing.T) {
	errBroken := errors.New("connection reset mid-body")
	for _, tc := range []struct {
		name    string
		body    *failingBody
		wantErr bool
	}{
		{"fails inside the recorded prefix", &failingBody{n: 100, err: errBroken}, true},
		{"fails after the recorded prefix", &failingBody{n: maxRecordedBody + 100, err: errBroken}, true},
		{"reads to EOF", &failingBody{n: maxRecordedBody + 100, err: io.EOF}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, _ := newTestRecorder()
			req, err := http.NewRequest(http.MethodPost, "http://collector.de/fp", nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Body = tc.body
			resp, err := rec.RoundTrip(req)
			if tc.body.closes != 1 {
				t.Errorf("caller's body closed %d times, want 1", tc.body.closes)
			}
			if req.Body != tc.body {
				t.Error("RoundTrip replaced the caller's req.Body")
			}
			if tc.wantErr {
				if !errors.Is(err, errBroken) {
					t.Fatalf("RoundTrip error = %v, want the body's read error", err)
				}
				if n := rec.Len(); n != 0 {
					t.Errorf("failed body recorded %d flows", n)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if want := fmt.Sprintf("len=%d", maxRecordedBody+100); string(got) != want {
				t.Errorf("server saw %q, want %q", got, want)
			}
			if n := len(rec.Flows()[0].RequestBody); n != maxRecordedBody {
				t.Errorf("recorded %d body bytes, want %d", n, maxRecordedBody)
			}
		})
	}
}

func TestAttributionWindowExpires(t *testing.T) {
	rec, vc := newTestRecorder()
	rec.SwitchChannel("Old", "1")
	vc.Sleep(AttributionWindow + time.Minute)
	client := &http.Client{Transport: rec}
	if _, err := client.Get("http://tvping.com/t"); err != nil {
		t.Fatal(err)
	}
	if f := rec.Flows()[0]; f.Channel != "" {
		t.Errorf("flow outside window attributed to %q", f.Channel)
	}
}

func TestRefererCorrection(t *testing.T) {
	rec, vc := newTestRecorder()
	client := &http.Client{Transport: rec}

	// Channel A loads its app; hbbtv.ard.de becomes known as A's host.
	rec.SwitchChannel("A", "1")
	if _, err := client.Get("http://hbbtv.ard.de/index.html"); err != nil {
		t.Fatal(err)
	}
	vc.Sleep(30 * time.Second)

	// Switch to channel B; a straggler request with A's Referer arrives
	// 2 seconds later and must be re-attributed to A.
	rec.SwitchChannel("B", "2")
	vc.Sleep(2 * time.Second)
	req, _ := http.NewRequest(http.MethodGet, "http://tvping.com/t?c=a", nil)
	req.Header.Set("Referer", "http://hbbtv.ard.de/index.html")
	if _, err := client.Do(req); err != nil {
		t.Fatal(err)
	}

	flows := rec.Flows()
	if got := flows[1].Channel; got != "A" {
		t.Errorf("straggler attributed to %q, want A", got)
	}

	// After the grace period the same request belongs to B.
	vc.Sleep(RefererGrace)
	req2, _ := http.NewRequest(http.MethodGet, "http://tvping.com/t?c=b", nil)
	req2.Header.Set("Referer", "http://hbbtv.ard.de/index.html")
	if _, err := client.Do(req2); err != nil {
		t.Fatal(err)
	}
	if got := rec.Flows()[2].Channel; got != "B" {
		t.Errorf("late request attributed to %q, want B", got)
	}
}

func TestRefererCorrectionDisabled(t *testing.T) {
	rec, vc := newTestRecorder()
	rec.SetRefererCorrection(false)
	client := &http.Client{Transport: rec}
	rec.SwitchChannel("A", "1")
	if _, err := client.Get("http://hbbtv.ard.de/"); err != nil {
		t.Fatal(err)
	}
	rec.SwitchChannel("B", "2")
	vc.Sleep(time.Second)
	req, _ := http.NewRequest(http.MethodGet, "http://tvping.com/t", nil)
	req.Header.Set("Referer", "http://hbbtv.ard.de/")
	if _, err := client.Do(req); err != nil {
		t.Fatal(err)
	}
	if got := rec.Flows()[1].Channel; got != "B" {
		t.Errorf("with correction disabled, attribution = %q, want B", got)
	}
}

func TestRecorderReset(t *testing.T) {
	rec, _ := newTestRecorder()
	rec.SwitchChannel("X", "1")
	client := &http.Client{Transport: rec}
	if _, err := client.Get("http://tvping.com/t"); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 1 {
		t.Fatalf("Len = %d", rec.Len())
	}
	rec.Reset()
	if rec.Len() != 0 {
		t.Errorf("after Reset, Len = %d", rec.Len())
	}
	if _, err := client.Get("http://tvping.com/t"); err != nil {
		t.Fatal(err)
	}
	if f := rec.Flows()[0]; f.Channel != "" {
		t.Errorf("after Reset, channel = %q, want unattributed", f.Channel)
	}
}

// TestServerPlainProxy exercises the real proxy path: client -> proxy ->
// hostnet loopback server.
func TestServerPlainProxy(t *testing.T) {
	world := testWorld()
	upstream, err := hostnet.Serve(world)
	if err != nil {
		t.Fatal(err)
	}
	defer upstream.Close()

	rec := NewRecorder(&RerouteTransport{Addr: upstream.Addr()}, clock.Real{})
	rec.SwitchChannel("Das Erste HD", "sid-1")
	srv, err := NewServer(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &http.Client{Transport: &http.Transport{
		Proxy: http.ProxyURL(srv.URL()),
	}}
	resp, err := client.Get("http://hbbtv.ard.de/index.html")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "ARD") {
		t.Errorf("body via proxy = %q", body)
	}
	flows := rec.Flows()
	if len(flows) != 1 || flows[0].Channel != "Das Erste HD" {
		t.Fatalf("flows = %+v", flows)
	}
	if flows[0].HTTPS {
		t.Error("plain flow marked HTTPS")
	}
}

// TestServerConnectTunnel exercises CONNECT interception: the client opens
// a tunnel and speaks HTTP inside it (TLS already "stripped", as with the
// study's certificate-installing setup).
func TestServerConnectTunnel(t *testing.T) {
	world := testWorld()
	upstream, err := hostnet.Serve(world)
	if err != nil {
		t.Fatal(err)
	}
	defer upstream.Close()

	rec := NewRecorder(&RerouteTransport{Addr: upstream.Addr()}, clock.Real{})
	rec.SwitchChannel("MTV", "sid-9")
	srv, err := NewServer(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Speak the tunnel protocol manually.
	conn, err := (&net0{}).dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "CONNECT tvping.com:443 HTTP/1.1\r\nHost: tvping.com:443\r\n\r\n")
	buf := make([]byte, 1024)
	n, err := conn.Read(buf)
	if err != nil || !strings.Contains(string(buf[:n]), "200") {
		t.Fatalf("CONNECT response: %q err=%v", buf[:n], err)
	}
	fmt.Fprintf(conn, "GET /t?c=mtv HTTP/1.1\r\nHost: tvping.com\r\nConnection: close\r\n\r\n")
	respBytes, _ := io.ReadAll(conn)
	if !strings.Contains(string(respBytes), "GIF89a") {
		t.Fatalf("tunnel response = %q", respBytes)
	}

	flows := rec.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(flows))
	}
	f := flows[0]
	if !f.HTTPS {
		t.Error("CONNECT flow not marked HTTPS")
	}
	if f.URL.Host != "tvping.com" || f.URL.Path != "/t" {
		t.Errorf("flow URL = %v", f.URL)
	}
	if f.Channel != "MTV" {
		t.Errorf("attribution = %q", f.Channel)
	}
}

func TestServerRejectsRelativeURI(t *testing.T) {
	rec, _ := newTestRecorder()
	srv, err := NewServer(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/not-absolute")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

// net0 is a tiny dial helper so the test reads clearly.
type net0 struct{}

func (*net0) dial(addr string) (io.ReadWriteCloser, error) {
	d := &dialerShim{}
	return d.Dial("tcp", addr)
}

type dialerShim struct{}

func (d *dialerShim) Dial(network, addr string) (io.ReadWriteCloser, error) {
	return netDial(network, addr)
}

func TestFlowHelpers(t *testing.T) {
	u, _ := url.Parse("https://sub.example.de:8443/p?q=1")
	f := &Flow{URL: u, ResponseHeaders: http.Header{"Content-Type": []string{"image/png; charset=binary"}}}
	if f.Host() != "sub.example.de" {
		t.Errorf("Host() = %q", f.Host())
	}
	if f.ContentType() != "image/png" {
		t.Errorf("ContentType() = %q", f.ContentType())
	}
	empty := &Flow{RequestHeaders: http.Header{}, ResponseHeaders: http.Header{}}
	if empty.Host() != "" || empty.ContentType() != "" || empty.Referer() != "" {
		t.Error("zero-ish flow helpers should return empty strings")
	}
}
