package filterlist

import (
	"bufio"
	"errors"
	"testing"
)

// FuzzFilterList feeds arbitrary list text and URLs to both parsers and
// the matcher. Properties: no panic; a parse error wraps the scanner's
// bufio.ErrTooLong, the only way reading a string can fail; and a list
// built by Parse(a) then Append(b) matches the URL exactly as Parse of
// a + "\n" + b does, the returned rule text included — the property the
// derived-rule extension relies on when it appends to a base list.
func FuzzFilterList(f *testing.F) {
	f.Add("||tracker.com^\n@@||tracker.com/ok^", "/adserver/*\n|http://ads.", "http://cdn.tracker.com/px?x=1")
	f.Add("! comment\n[Adblock]\nexample.com##.ad\n/re/\n||a.de^$third-party", "@@/adserver/ok", "https://a.de/adserver/ok")
	f.Add("0.0.0.0 stats.tv.de\n127.0.0.1 px.de.\n# hosts", "||stats.tv.de/p^", "http://stats.tv.de/p?q")
	f.Fuzz(func(t *testing.T, a, b, rawURL string) {
		for _, parse := range []func(string, string) (*List, error){Parse, ParseHosts} {
			l, err := parse("fuzz", a)
			if err != nil {
				if !errors.Is(err, bufio.ErrTooLong) {
					t.Fatalf("parse error %v does not wrap bufio.ErrTooLong", err)
				}
				continue
			}
			l.Match(rawURL)
		}
		appended, err := Parse("fuzz", a)
		if err != nil {
			return
		}
		joined, joinErr := Parse("fuzz", a+"\n"+b)
		if err := appended.Append(b); (err != nil) != (joinErr != nil) {
			t.Fatalf("Append(%q) error %v, Parse of the joined text error %v", b, err, joinErr)
		} else if err != nil {
			return
		}
		if appended.Len() != joined.Len() {
			t.Fatalf("Append gives %d rules, the joined text %d", appended.Len(), joined.Len())
		}
		r1, ok1 := appended.Match(rawURL)
		r2, ok2 := joined.Match(rawURL)
		if r1 != r2 || ok1 != ok2 {
			t.Fatalf("Match(%q): appended list (%q, %v), joined list (%q, %v)", rawURL, r1, ok1, r2, ok2)
		}
	})
}

// wcMatchBacktrack is the recursive matcher wcMatch replaced, kept as its
// reference: it tries every split at every '*'.
func wcMatchBacktrack(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '*':
			for len(p) > 0 && p[0] == '*' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if wcMatchBacktrack(p, s[i:]) {
					return true
				}
			}
			return false
		case '^':
			if len(s) == 0 {
				p = p[1:]
				continue
			}
			if !isSeparator(s[0]) {
				return false
			}
			p, s = p[1:], s[1:]
		default:
			if len(s) == 0 || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}

// TestWildcardMatchEqualsBacktracking compares wcMatch with the
// backtracking reference on every pattern of up to five bytes over
// {a, b, /, *, ^} and every input of up to five bytes over {a, b, /}.
func TestWildcardMatchEqualsBacktracking(t *testing.T) {
	all := func(alphabet string, maxLen int) []string {
		out := []string{""}
		for prev := out; maxLen > 0; maxLen-- {
			var next []string
			for _, w := range prev {
				for i := 0; i < len(alphabet); i++ {
					next = append(next, w+alphabet[i:i+1])
				}
			}
			out, prev = append(out, next...), next
		}
		return out
	}
	inputs := all("ab/", 5)
	for _, p := range all("ab/*^", 5) {
		for _, s := range inputs {
			if got, want := wcMatch(p, s), wcMatchBacktrack(p, s); got != want {
				t.Fatalf("wcMatch(%q, %q) = %v, backtracking reference %v", p, s, got, want)
			}
		}
	}
}
