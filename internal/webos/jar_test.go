package webos

import (
	"net/http"
	"net/url"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
)

func mustURL(t *testing.T, s string) *url.URL {
	t.Helper()
	u, err := url.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestJarHostOnlyCookie(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC))
	j := NewJar(vc)
	u := mustURL(t, "http://hbbtv.ard.de/app/index.html")
	j.SetCookies(u, []*http.Cookie{{Name: "sid", Value: "1"}})

	if got := j.Cookies(u); len(got) != 1 || got[0].Name != "sid" {
		t.Fatalf("Cookies(same URL) = %v", got)
	}
	// Host-only: other subdomains must not receive it.
	if got := j.Cookies(mustURL(t, "http://other.ard.de/")); len(got) != 0 {
		t.Errorf("host-only cookie leaked to sibling: %v", got)
	}
	all := j.All()
	if len(all) != 1 || !all[0].HostOnly || all[0].Domain != "hbbtv.ard.de" {
		t.Errorf("All() = %+v", all)
	}
}

func TestJarDomainCookie(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC))
	j := NewJar(vc)
	u := mustURL(t, "http://hbbtv.ard.de/")
	j.SetCookies(u, []*http.Cookie{{Name: "net", Value: "1", Domain: ".ard.de"}})

	if got := j.Cookies(mustURL(t, "http://cdn.ard.de/")); len(got) != 1 {
		t.Errorf("domain cookie not shared with subdomain: %v", got)
	}
	if got := j.Cookies(mustURL(t, "http://ard.de/")); len(got) != 1 {
		t.Errorf("domain cookie not sent to apex: %v", got)
	}
	if got := j.Cookies(mustURL(t, "http://notard.de/")); len(got) != 0 {
		t.Errorf("domain cookie leaked: %v", got)
	}
}

func TestJarRejectsForeignDomain(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC))
	j := NewJar(vc)
	u := mustURL(t, "http://tracker.com/")
	j.SetCookies(u, []*http.Cookie{{Name: "x", Value: "1", Domain: "ard.de"}})
	if j.Len() != 0 {
		t.Fatalf("jar accepted a cookie for an unrelated domain: %+v", j.All())
	}
}

func TestJarMaxAgeExpiry(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC))
	j := NewJar(vc)
	u := mustURL(t, "http://x.de/")
	j.SetCookies(u, []*http.Cookie{{Name: "short", Value: "1", MaxAge: 60}})
	if got := j.Cookies(u); len(got) != 1 {
		t.Fatalf("fresh cookie missing: %v", got)
	}
	vc.Advance(61 * time.Second)
	if got := j.Cookies(u); len(got) != 0 {
		t.Errorf("expired cookie still served: %v", got)
	}
	if got := j.All(); len(got) != 0 {
		t.Errorf("expired cookie still in All(): %v", got)
	}
}

func TestJarNegativeMaxAgeDeletes(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC))
	j := NewJar(vc)
	u := mustURL(t, "http://x.de/")
	j.SetCookies(u, []*http.Cookie{{Name: "k", Value: "1"}})
	j.SetCookies(u, []*http.Cookie{{Name: "k", Value: "", MaxAge: -1}})
	if got := j.Cookies(u); len(got) != 0 {
		t.Errorf("deleted cookie still present: %v", got)
	}
}

// TestJarPathMatching: a cookie scoped to /app reaches /app and below only.
// A path attribute that does not start with "/" is ignored for the default
// path (RFC 6265 §5.2.4), here also /app.
func TestJarPathMatching(t *testing.T) {
	for _, attr := range []string{"/app", "app"} {
		vc := clock.NewVirtual(time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC))
		j := NewJar(vc)
		u := mustURL(t, "http://x.de/app/page")
		j.SetCookies(u, []*http.Cookie{{Name: "scoped", Value: "1", Path: attr}})

		tests := []struct {
			path string
			want int
		}{
			{"/app", 1},
			{"/app/deeper", 1},
			{"/application", 0},
			{"/", 0},
		}
		for _, tt := range tests {
			got := j.Cookies(mustURL(t, "http://x.de"+tt.path))
			if len(got) != tt.want {
				t.Errorf("Path=%q, request path %q: got %d cookies, want %d", attr, tt.path, len(got), tt.want)
			}
		}
	}
}

// TestJarCookieOrder: RFC 6265 §5.4 order — longer paths first, then
// earlier creation — with cookies created at one instant ordered by
// domain, path and name, whatever order they were stored in.
func TestJarCookieOrder(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC))
	j := NewJar(vc)
	u := mustURL(t, "http://www.x.de/a/b")
	j.SetCookies(u, []*http.Cookie{{Name: "old", Value: "1", Path: "/"}})
	vc.Advance(time.Minute)
	j.SetCookies(u, []*http.Cookie{
		{Name: "z", Value: "1", Path: "/"},
		{Name: "dom", Value: "1", Path: "/", Domain: "x.de"},
		{Name: "a", Value: "1", Path: "/"},
		{Name: "deep", Value: "1", Path: "/a"},
	})
	var got []string
	for _, c := range j.Cookies(u) {
		got = append(got, c.Name)
	}
	want := []string{"deep", "old", "a", "z", "dom"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Cookies order = %v, want %v", got, want)
	}
	if h := j.CookieHeader(u); h != "deep=1; old=1; a=1; z=1; dom=1" {
		t.Errorf("CookieHeader = %q", h)
	}
}

func TestJarDefaultPath(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC))
	j := NewJar(vc)
	j.SetCookies(mustURL(t, "http://x.de/a/b/page.html"), []*http.Cookie{{Name: "d", Value: "1"}})
	all := j.All()
	if len(all) != 1 || all[0].Path != "/a/b" {
		t.Fatalf("default path = %+v", all)
	}
}

func TestJarUpdateKeepsCreationTime(t *testing.T) {
	start := time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC)
	vc := clock.NewVirtual(start)
	j := NewJar(vc)
	u := mustURL(t, "http://x.de/")
	j.SetCookies(u, []*http.Cookie{{Name: "k", Value: "1"}})
	vc.Advance(time.Hour)
	j.SetCookies(u, []*http.Cookie{{Name: "k", Value: "2"}})
	all := j.All()
	if len(all) != 1 || all[0].Value != "2" {
		t.Fatalf("All() = %+v", all)
	}
	if !all[0].Created.Equal(start) {
		t.Errorf("update reset creation time: %v", all[0].Created)
	}
}

func TestJarClear(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC))
	j := NewJar(vc)
	j.SetCookies(mustURL(t, "http://x.de/"), []*http.Cookie{{Name: "k", Value: "1"}})
	j.Clear()
	if j.Len() != 0 {
		t.Error("Clear left cookies behind")
	}
}

// TestJarCookieHeaderMemo: the memoized Cookie line equals a fresh build,
// the AddCookie chain over Cookies, for three URLs that differ in host or
// path, after an add, a replace, a MaxAge < 0 delete and Clear, and when
// the clock passes a matched cookie's expiry. Each URL is asked twice per
// step, so the second answer comes from the memo; a repeated request for
// an unchanged jar allocates nothing.
func TestJarCookieHeaderMemo(t *testing.T) {
	quietLog(t)
	vc := clock.NewVirtual(time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC))
	j := NewJar(vc)
	app := mustURL(t, "http://www.memo.example/app/page")
	urls := []*url.URL{app, mustURL(t, "http://cdn.memo.example/app/page"), mustURL(t, "http://www.memo.example/")}
	check := func(step string) {
		t.Helper()
		for _, u := range urls {
			req := &http.Request{Header: http.Header{}}
			for _, c := range j.Cookies(u) {
				req.AddCookie(c)
			}
			want := req.Header.Get("Cookie")
			for range 2 {
				if got := j.CookieHeader(u); got != want {
					t.Fatalf("%s: CookieHeader(%s) = %q, fresh build %q", step, u, got, want)
				}
			}
		}
	}
	check("empty jar")
	j.SetCookies(app, []*http.Cookie{{Name: "a", Value: "1", Path: "/"}})
	check("add")
	j.SetCookies(app, []*http.Cookie{{Name: "a", Value: "2", Path: "/"}})
	check("replace")
	j.SetCookies(app, []*http.Cookie{
		{Name: "d", Value: "dom", Domain: "memo.example", Path: "/"},
		{Name: "p", Value: "deep", Path: "/app"},
	})
	check("domain and path cookies")
	j.SetCookies(app, []*http.Cookie{{Name: "a", MaxAge: -1, Path: "/"}})
	check("MaxAge < 0 delete")
	j.SetCookies(app, []*http.Cookie{{Name: "short", Value: "s", Path: "/", MaxAge: 30}})
	check("short-lived cookie")
	if allocs := testing.AllocsPerRun(50, func() { j.CookieHeader(app) }); allocs != 0 {
		t.Errorf("a memoized Cookie line costs %.1f allocations, want 0", allocs)
	}
	vc.Advance(29 * time.Second)
	check("before the expiry")
	vc.Advance(time.Second)
	check("at the expiry")
	j.Clear()
	check("Clear")
}

// TestJarCookieHeaderConcurrent reads Cookie lines from several goroutines
// while others write the jar, so under -race any memo access outside the
// jar's lock is a report; every line read must be one a fresh build could
// give at some point of the writes.
func TestJarCookieHeaderConcurrent(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC))
	j := NewJar(vc)
	u := mustURL(t, "http://www.memo.example/app")
	valid := map[string]bool{"": true}
	for v := 0; v < 10; v++ {
		valid["k="+string(rune('0'+v))] = true
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if g%2 == 0 {
					j.SetCookies(u, []*http.Cookie{{Name: "k", Value: string(rune('0' + i%10)), Path: "/"}})
					if i%50 == 49 {
						j.Clear()
					}
					continue
				}
				if line := j.CookieHeader(u); !valid[line] {
					t.Errorf("CookieHeader = %q, not a line any write made", line)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Property: a cookie set on any host is always returned for that exact URL
// until it expires.
func TestJarSetGetProperty(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC))
	f := func(nameSeed, valSeed uint8, maxAge uint16) bool {
		j := NewJar(vc)
		name := "c" + string(rune('a'+nameSeed%26))
		val := "v" + string(rune('a'+valSeed%26))
		u := mustURL(t, "http://prop.example.de/x")
		j.SetCookies(u, []*http.Cookie{{Name: name, Value: val, MaxAge: int(maxAge) + 1}})
		got := j.Cookies(u)
		return len(got) == 1 && got[0].Name == name && got[0].Value == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLocalStorage(t *testing.T) {
	s := NewLocalStorage()
	s.Set("http://a.de", "k1", "v1")
	s.Set("http://a.de", "k2", "v2")
	s.Set("http://b.de", "k1", "other")

	if v, ok := s.Get("http://a.de", "k1"); !ok || v != "v1" {
		t.Errorf("Get = %q, %v", v, ok)
	}
	if _, ok := s.Get("http://a.de", "nope"); ok {
		t.Error("Get returned a missing key")
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	all := s.All()
	if len(all) != 3 || all[0].Origin != "http://a.de" || all[0].Key != "k1" {
		t.Errorf("All = %+v", all)
	}
	s.Clear()
	if s.Len() != 0 {
		t.Error("Clear failed")
	}
}
