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
// (*http.Request).Cookie(name) returns from the same Cookie lines, also
// when it is given name split at any '_' into a name and a site. Its seed
// corpus is testdata/fuzz/FuzzTrackerLookups.
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
		c, err := (&http.Request{Header: h}).Cookie(name)
		got, ok := cookieValue(h, name, "")
		if ok != (err == nil) || (ok && got != c.Value) {
			t.Fatalf("cookieValue(%q, %q) = %q, %v; Request.Cookie gives %+v, %v", h["Cookie"], name, got, ok, c, err)
		}
		for i := 1; i < len(name)-1; i++ {
			if name[i] != '_' {
				continue
			}
			got, ok := cookieValue(h, name[:i], name[i+1:])
			if ok != (err == nil) || (ok && got != c.Value) {
				t.Fatalf("cookieValue(%q, %q, %q) = %q, %v; Request.Cookie(%q) gives %+v, %v",
					h["Cookie"], name[:i], name[i+1:], got, ok, name, c, err)
			}
		}
	})
}
