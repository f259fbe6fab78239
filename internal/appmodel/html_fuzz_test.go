package appmodel

import (
	"bytes"
	"testing"
)

// FuzzParseHTML feeds arbitrary markup to the application parser the TV
// runtime runs on every HbbTV page it loads. Properties: no panic; and
// where parsing succeeds and RenderHTML accepts the document, render∘parse
// reaches a fixed point: parsing the rendered bytes succeeds and renders
// them again unchanged.
func FuzzParseHTML(f *testing.F) {
	rendered, err := sampleDocument().RenderHTML()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rendered)
	f.Add([]byte(`<html><head><title>Hand &amp; Written</title><script src='http://a.de/x.js'></script></head>` +
		`<body><img src=http://px.example.com/i width=1 height=1><iframe src="http://ads.example/f"></iframe></body></html>`))
	f.Fuzz(func(t *testing.T, markup []byte) {
		doc, err := ParseHTML(markup)
		if err != nil {
			return
		}
		once, err := doc.RenderHTML()
		if err != nil {
			return
		}
		again, err := ParseHTML(once)
		if err != nil {
			t.Fatalf("rendered document does not parse: %v\n%s", err, once)
		}
		twice, err := again.RenderHTML()
		if err != nil {
			t.Fatalf("re-parsed document does not render: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("render∘parse is not at a fixed point:\n%s\n---\n%s", once, twice)
		}
	})
}
