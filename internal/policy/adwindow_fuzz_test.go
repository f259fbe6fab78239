package policy

import "testing"

// FuzzParseAdWindow feeds arbitrary policy text to the parser behind the
// "5 pm to 6 am" check. Properties: no panic; an accepted window has both
// hours on the 24-hour clock; and flipping the case of ASCII letters does
// not change the result, since both phrasings match case-insensitively.
func FuzzParseAdWindow(f *testing.F) {
	for _, text := range []string{germanPolicy, englishPolicy, miscText} {
		f.Add(text)
	}
	for _, tt := range adWindowCases {
		f.Add(tt.text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		w, ok := ParseAdWindow(text)
		if ok && (w.StartHour < 0 || w.StartHour > 23 || w.EndHour < 0 || w.EndHour > 23) {
			t.Fatalf("ParseAdWindow(%q) = %+v: hour off the 24-hour clock", text, w)
		}
		flipped := flipASCIICase(text)
		if fw, fok := ParseAdWindow(flipped); fw != w || fok != ok {
			t.Fatalf("ParseAdWindow(%q) = %+v, %v but ParseAdWindow(%q) = %+v, %v",
				text, w, ok, flipped, fw, fok)
		}
	})
}

// flipASCIICase swaps the case of every ASCII letter. Bytes of multi-byte
// UTF-8 sequences are never ASCII, so the result stays valid UTF-8.
func flipASCIICase(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case 'a' <= c && c <= 'z':
			b[i] = c - 'a' + 'A'
		case 'A' <= c && c <= 'Z':
			b[i] = c - 'A' + 'a'
		}
	}
	return string(b)
}
