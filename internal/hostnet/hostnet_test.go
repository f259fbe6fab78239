package hostnet

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
)

func echoHandler(name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Virtual-Host", name)
		fmt.Fprintf(w, "%s:%s", name, r.URL.Path)
	})
}

func TestLookupExactAndWildcard(t *testing.T) {
	in := New()
	in.Handle("ard.de", echoHandler("ard"))
	in.Handle("*.ard.de", echoHandler("ard-wild"))
	in.Handle("tvping.com", echoHandler("tvping"))

	tests := []struct {
		host string
		want string
		ok   bool
	}{
		{"ard.de", "ard", true},
		{"hbbtv.ard.de", "ard-wild", true},
		{"a.b.hbbtv.ard.de", "ard-wild", true},
		{"ARD.DE", "ard", true},
		{"ard.de:8080", "ard", true},
		{"hbbtv.ard.de:443", "ard-wild", true},
		{"[::1]:8080", "", false},
		{"tvping.com", "tvping", true},
		{"zdf.de", "", false},
		{"de", "", false},
	}
	for _, tt := range tests {
		h, ok := in.Lookup(tt.host)
		if ok != tt.ok {
			t.Errorf("Lookup(%q) ok = %v, want %v", tt.host, ok, tt.ok)
			continue
		}
		if !ok {
			continue
		}
		rec := getWriter()
		req, _ := http.NewRequest(http.MethodGet, "http://"+tt.host+"/x", nil)
		h.ServeHTTP(rec, req)
		if got := rec.header.Get("X-Virtual-Host"); got != tt.want {
			t.Errorf("Lookup(%q) routed to %q, want %q", tt.host, got, tt.want)
		}
	}
}

// TestLookupPortlessHostAllocatesNothing: a host without a port — every
// request the TV sends — resolves without building a SplitHostPort error.
func TestLookupPortlessHostAllocatesNothing(t *testing.T) {
	in := New()
	in.Handle("*.ard.de", echoHandler("ard-wild"))
	in.Handle("::1", echoHandler("loopback"))
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := in.Lookup("hbbtv.ard.de"); !ok {
			t.Fatal("lookup failed")
		}
	})
	if allocs != 0 {
		t.Errorf("Lookup of a host without a port allocates %.1f objects, want 0", allocs)
	}
	if _, ok := in.Lookup("[::1]:8080"); !ok {
		t.Error(`Lookup("[::1]:8080") did not strip the port`)
	}
}

func TestTransportRoundTrip(t *testing.T) {
	in := New()
	in.Handle("hbbtv.zdf.de", echoHandler("zdf"))
	tr := &Transport{Net: in}
	client := &http.Client{Transport: tr}

	resp, err := client.Get("http://hbbtv.zdf.de/app/index.html")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "zdf:/app/index.html" {
		t.Errorf("body = %q", body)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestTransportUnknownHost(t *testing.T) {
	tr := &Transport{Net: New()}
	req, _ := http.NewRequest(http.MethodGet, "http://nowhere.invalid/", nil)
	_, err := tr.RoundTrip(req)
	if !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("err = %v, want ErrUnknownHost", err)
	}
}

// TestTransportAdvancesVirtualClock: each round trip moves the clock by
// both halves of the Latency hook's answer, and the hook runs once per
// round trip, so a model drawing from a source draws each request's two
// delays together.
func TestTransportAdvancesVirtualClock(t *testing.T) {
	in := New()
	in.Handle("x.de", echoHandler("x"))
	start := time.Date(2023, 8, 21, 10, 0, 0, 0, time.UTC)
	vc := clock.NewVirtual(start)
	calls := 0
	tr := &Transport{
		Net:   in,
		Clock: vc,
		Latency: func(*http.Request) (int, int) {
			calls++
			return calls, 10 * calls
		},
	}
	var want time.Duration
	for i := 1; i <= 3; i++ {
		req, _ := http.NewRequest(http.MethodGet, "http://x.de/", nil)
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if calls != i {
			t.Fatalf("after %d round trips the hook ran %d times", i, calls)
		}
		want += time.Duration(i+10*i) * time.Millisecond
		if got := vc.Now().Sub(start); got != want {
			t.Fatalf("after %d round trips the clock moved %v, want %v", i, got, want)
		}
	}
}

func TestTransportErrorStatus(t *testing.T) {
	in := New()
	in.HandleFunc("err.de", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusNotFound)
	})
	tr := &Transport{Net: in}
	req, _ := http.NewRequest(http.MethodGet, "http://err.de/missing", nil)
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestTransportPostBody(t *testing.T) {
	in := New()
	in.HandleFunc("collector.de", func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "got:%s", b)
	})
	client := &http.Client{Transport: &Transport{Net: in}}
	resp, err := client.Post("http://collector.de/beacon", "text/plain", strings.NewReader("deviceid=LG43UK"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "got:deviceid=LG43UK" {
		t.Errorf("body = %q", body)
	}
}

func TestTransportFollowsRedirects(t *testing.T) {
	in := New()
	in.HandleFunc("a.de", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "http://b.de/synced?uid=42", http.StatusFound)
	})
	in.HandleFunc("b.de", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "uid=%s", r.URL.Query().Get("uid"))
	})
	client := &http.Client{Transport: &Transport{Net: in}}
	resp, err := client.Get("http://a.de/sync")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "uid=42" {
		t.Errorf("redirect chain body = %q", body)
	}
}

func TestServeLoopback(t *testing.T) {
	in := New()
	in.Handle("live.example.tv", echoHandler("live"))
	srv, err := Serve(in)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Dial the loopback address but set the Host header to the virtual
	// host, as the CONNECT proxy does.
	req, _ := http.NewRequest(http.MethodGet, "http://"+srv.Addr()+"/p", nil)
	req.Host = "live.example.tv"
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "live:/p" {
		t.Errorf("loopback body = %q", body)
	}
}

func TestServeLoopbackUnknownHost(t *testing.T) {
	srv, err := Serve(New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodGet, "http://"+srv.Addr()+"/", nil)
	req.Host = "ghost.example"
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", resp.StatusCode)
	}
}

func TestHostsListing(t *testing.T) {
	in := New()
	in.Handle("b.de", echoHandler("b"))
	in.Handle("a.de", echoHandler("a"))
	in.Handle("*.c.de", echoHandler("c"))
	got := in.Hosts()
	want := []string{"*.c.de", "a.de", "b.de"}
	if len(got) != len(want) {
		t.Fatalf("Hosts() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Hosts() = %v, want %v", got, want)
		}
	}
}
