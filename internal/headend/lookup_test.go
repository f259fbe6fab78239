package headend

import (
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// FuzzTrackerLookups: the tracker's scanners agree with the standard
// library. queryValue finds what url.ParseQuery(raw)[key][0] holds —
// through ';' pairs, '+' and bad escapes — and cookieValue finds what
// (*http.Request).Cookie(name) returns from the same Cookie lines. Its
// seed corpus is testdata/fuzz/FuzzTrackerLookups.
func FuzzTrackerLookups(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw, key, line1, line2, name string) {
		// Newer Go releases stop parsing past a few thousand pairs; the
		// property is stated below any such cap.
		if strings.Count(raw, "&") > 500 || strings.Count(line1+line2, ";") > 500 {
			t.Skip("beyond the standard library's pair caps")
		}
		q, _ := url.ParseQuery(raw)
		if got, want := queryValue(raw, key), q.Get(key); got != want {
			t.Fatalf("queryValue(%q, %q) = %q, url.ParseQuery gives %q", raw, key, got, want)
		}
		h := http.Header{"Cookie": {line1, line2}}
		got, ok := cookieValue(h, name)
		c, err := (&http.Request{Header: h}).Cookie(name)
		if ok != (err == nil) || (ok && got != c.Value) {
			t.Fatalf("cookieValue(%q, %q) = %q, %v; Request.Cookie gives %+v, %v", h["Cookie"], name, got, ok, c, err)
		}
	})
}
