package hostnet

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"github.com/hbbtvlab/hbbtvlab/internal/faults"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

// leaseGet sends one GET through tr and returns the response, still open.
func leaseGet(t *testing.T, tr *Transport, rawURL string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestTransportLease: a response holds the handler's header map and body
// bytes until its body is closed; the first Close detaches it and hands
// the next response an empty writer, a second Close changes nothing, and
// a fault that cuts the body keeps its writer until the cut body is
// closed, also when a recorder reads the cut body first.
func TestTransportLease(t *testing.T) {
	in := New()
	in.HandleFunc("lease.de", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Path", r.URL.Path)
		_, _ = io.WriteString(w, strings.Repeat(r.URL.Path, 100))
	})
	tr := &Transport{Net: in}

	t.Run("header and body are the handler's until Close", func(t *testing.T) {
		resp := leaseGet(t, tr, "http://lease.de/a")
		// Round trips that run while the response is open take other
		// writers, so they write nothing into it.
		for i := 0; i < 20; i++ {
			other := leaseGet(t, tr, "http://lease.de/other")
			other.Body.Close()
		}
		if got := resp.Header.Get("X-Path"); got != "/a" {
			t.Errorf("header X-Path = %q, want /a", got)
		}
		if got := string(bodyBytes(t, resp)); got != strings.Repeat("/a", 100) {
			t.Errorf("BodyBytes = %q", got)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil || string(body) != strings.Repeat("/a", 100) {
			t.Errorf("read %q, %v", body, err)
		}
		resp.Body.Close()
	})

	t.Run("Close detaches the response", func(t *testing.T) {
		resp := leaseGet(t, tr, "http://lease.de/b")
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if resp.Header != nil {
				t.Errorf("after Close %d the header is %v, want nil", i+1, resp.Header)
			}
			if b := bodyBytes(t, resp); len(b) != 0 {
				t.Errorf("after Close %d BodyBytes = %q, want empty", i+1, b)
			}
			if n, err := resp.Body.Read(make([]byte, 8)); n != 0 || err != io.EOF {
				t.Errorf("after Close %d Read = %d, %v, want 0, EOF", i+1, n, err)
			}
			if err := resp.Body.Close(); err != nil {
				t.Errorf("Close %d: %v", i+2, err)
			}
		}
	})

	t.Run("a recycled writer starts empty", func(t *testing.T) {
		in.HandleFunc("full.de", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Only-Full", "1")
			w.WriteHeader(http.StatusNotFound)
			_, _ = io.WriteString(w, "full")
		})
		in.HandleFunc("bare.de", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusFound)
		})
		for i := 0; i < 10; i++ {
			full := leaseGet(t, tr, "http://full.de/")
			full.Body.Close()
			bare := leaseGet(t, tr, "http://bare.de/")
			if bare.StatusCode != http.StatusFound || len(bare.Header) != 0 || len(bodyBytes(t, bare)) != 0 {
				t.Fatalf("bare response after a full one: %d %v %q", bare.StatusCode, bare.Header, bodyBytes(t, bare))
			}
			bare.Body.Close()
		}
	})

	t.Run("a stale Close ends no other lease", func(t *testing.T) {
		for i := 0; i < 50; i++ {
			first := leaseGet(t, tr, "http://lease.de/first")
			first.Body.Close()
			a := leaseGet(t, tr, "http://lease.de/held-a")
			first.Body.Close() // stale: first's writer may be a's by now
			b := leaseGet(t, tr, "http://lease.de/held-b")
			if reflect.ValueOf(a.Header).Pointer() == reflect.ValueOf(b.Header).Pointer() {
				t.Fatal("two open responses share a header map")
			}
			ab, bb := bodyBytes(t, a), bodyBytes(t, b)
			if len(ab) == 0 || len(bb) == 0 || &ab[0] == &bb[0] {
				t.Fatal("two open responses share a body array")
			}
			if a.Header.Get("X-Path") != "/held-a" || string(ab) != strings.Repeat("/held-a", 100) {
				t.Fatalf("held response a reads %q and %q", a.Header.Get("X-Path"), ab)
			}
			a.Body.Close()
			b.Body.Close()
		}
	})

	t.Run("cut bodies keep their writer until Close", func(t *testing.T) {
		for _, tc := range []struct {
			kind    faults.Kind
			readErr error
		}{
			{faults.KindTruncate, nil},
			{faults.KindReset, faults.ErrReset},
		} {
			for _, viaRecorder := range []bool{false, true} {
				ftr, vc, _, _ := faultyTransport(t, "cut.example.de", tc.kind)
				ftr.Net.HandleFunc("other.example.de", func(w http.ResponseWriter, r *http.Request) {
					w.Header().Set("Content-Type", "text/plain")
					_, _ = w.Write(bytes.Repeat([]byte("y"), 1000))
				})
				var rt http.RoundTripper = ftr
				rec := proxy.NewRecorder(ftr, vc)
				readErr := tc.readErr
				if viaRecorder {
					// The recorder reads a reset body itself and hands on
					// the bytes it read.
					rt, readErr = rec, nil
				}
				req, _ := http.NewRequest(http.MethodGet, "http://cut.example.de/page", nil)
				resp, err := rt.RoundTrip(req)
				if err != nil {
					t.Fatal(err)
				}
				// Requests after the cut one take writers from the pool;
				// none of them may be the cut response's.
				for i := 0; i < 20; i++ {
					other, err := faultGet(t, ftr, "other.example.de")
					if err != nil {
						t.Fatal(err)
					}
					other.Body.Close()
				}
				body, err := io.ReadAll(resp.Body)
				if !errors.Is(err, readErr) {
					t.Errorf("%v (recorder %v): read error %v, want %v", tc.kind, viaRecorder, err, readErr)
				}
				if len(body) == 0 || len(body) >= 1000 || strings.Trim(string(body), "x") != "" {
					t.Errorf("%v (recorder %v): kept prefix is %d bytes %q, want a non-empty run of x shorter than 1000",
						tc.kind, viaRecorder, len(body), body)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "text/plain" {
					t.Errorf("%v (recorder %v): Content-Type %q before Close", tc.kind, viaRecorder, ct)
				}
				if viaRecorder {
					f := rec.Flows()[0]
					if f.ResponseHeaders.Get("Content-Type") != "text/plain" || string(f.ResponseBody) != string(body) {
						t.Errorf("%v: recorded %v and %q, want the header and the kept prefix", tc.kind, f.ResponseHeaders, f.ResponseBody)
					}
				}
				resp.Body.Close()
				if resp.Header != nil {
					t.Errorf("%v (recorder %v): header survives Close", tc.kind, viaRecorder)
				}
			}
		}
	})
}

// TestTransportRoundTripAllocations pins a steady-state round trip plus
// Close: the handler's one header value and the response are all it
// allocates, since the writer's header map and body buffer come back from
// the pool. The bound is the count measured on go1.24/amd64.
func TestTransportRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops writers at random under -race")
	}
	const measured = 2
	body := bytes.Repeat([]byte("p"), 4<<10)
	in := New()
	in.HandleFunc("img.example.de", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "image/png")
		_, _ = w.Write(body)
	})
	tr := &Transport{Net: in}
	req, err := http.NewRequest(http.MethodGet, "http://img.example.de/logo.png", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Body = http.NoBody // server-shaped, as the TV sends
	roundTrip := func() {
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(bodyBytes(t, resp)) != len(body) {
			t.Fatal("short body")
		}
		resp.Body.Close()
	}
	roundTrip()
	allocs := testing.AllocsPerRun(200, roundTrip)
	t.Logf("one round trip: %.0f allocations", allocs)
	if allocs > measured {
		t.Errorf("a round trip plus Close allocates %.0f objects, want <= %d", allocs, measured)
	}
}
