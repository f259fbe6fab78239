package proxy

import (
	"net/http"
	"net/url"
	"testing"
)

func TestFlowSetCookiesMultiple(t *testing.T) {
	u, _ := url.Parse("http://t.example/px")
	h := http.Header{}
	h.Add("Set-Cookie", "a=1; Path=/")
	h.Add("Set-Cookie", "b=2; Path=/; Max-Age=60")
	f := &Flow{URL: u, ResponseHeaders: h}
	cs := f.SetCookies()
	if len(cs) != 2 || cs[0].Name != "a" || cs[1].Name != "b" {
		t.Fatalf("SetCookies = %v", cs)
	}
	if cs[1].MaxAge != 60 {
		t.Errorf("MaxAge = %d", cs[1].MaxAge)
	}
}

func TestFlowContentTypeVariants(t *testing.T) {
	mk := func(ct string) *Flow {
		return &Flow{ResponseHeaders: http.Header{"Content-Type": []string{ct}}}
	}
	tests := []struct{ in, want string }{
		{"text/html; charset=utf-8", "text/html"},
		{"  image/gif  ", "image/gif"},
		{"application/javascript;charset=UTF-8", "application/javascript"},
		{"", ""},
		// Type and subtype are case-insensitive (RFC 9110 §8.3.1).
		{"Image/GIF", "image/gif"},
		{" TEXT/Html ; charset=UTF-8", "text/html"},
	}
	for _, tt := range tests {
		if got := mk(tt.in).ContentType(); got != tt.want {
			t.Errorf("ContentType(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestIsTextualClassification(t *testing.T) {
	tests := []struct {
		ct   string
		want bool
	}{
		{"text/html; charset=utf-8", true},
		{"text/plain", true},
		{"application/javascript", true},
		{"application/json", true},
		{"application/vnd.hbbtv.xhtml+xml", true},
		{"image/gif", false},
		{"application/octet-stream", false},
		{"video/mp4", false},
		{"Text/HTML; charset=UTF-8", true},
		{"APPLICATION/JSON", true},
		{"IMAGE/GIF", false},
	}
	for _, tt := range tests {
		if got := isTextual(tt.ct); got != tt.want {
			t.Errorf("isTextual(%q) = %v, want %v", tt.ct, got, tt.want)
		}
	}
}

func TestFlowHostWithNilURL(t *testing.T) {
	f := &Flow{}
	if f.Host() != "" {
		t.Error("nil URL should yield empty host")
	}
}
