package appmodel

import (
	"encoding/json"
	"fmt"
	"html"
	"math"
	"strings"
)

// manifestType is the MIME type of the embedded application manifest.
const manifestType = "application/hbbtv+json"

// RenderHTML serializes the document to HTML5-ish markup. Subresources
// become real elements; the behaviour manifest is embedded as JSON.
func (d *Document) RenderHTML() ([]byte, error) {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	fmt.Fprintf(&b, "<title>%s</title>\n", html.EscapeString(d.Title))
	for _, r := range d.Resources {
		switch r.Kind {
		case ResCSS:
			fmt.Fprintf(&b, "<link rel=\"stylesheet\" href=\"%s\">\n", html.EscapeString(r.URL))
		case ResScript:
			fmt.Fprintf(&b, "<script src=\"%s\"></script>\n", html.EscapeString(r.URL))
		}
	}
	var xhr []string
	for _, r := range d.Resources {
		if r.Kind == ResXHR {
			xhr = append(xhr, r.URL)
		}
	}
	if d.App != nil || len(xhr) > 0 {
		var spec AppSpec
		if d.App != nil {
			spec = *d.App
		}
		spec.XHR = append(append([]string(nil), spec.XHR...), xhr...)
		manifest, err := json.Marshal(&spec)
		if err != nil {
			return nil, fmt.Errorf("appmodel: marshal manifest: %w", err)
		}
		// JSON inside <script> must not contain "</script>"; escape '<'.
		safe := strings.ReplaceAll(string(manifest), "<", "\\u003c")
		fmt.Fprintf(&b, "<script type=%q>%s</script>\n", manifestType, safe)
	}
	b.WriteString("</head>\n<body>\n")
	for _, r := range d.Resources {
		switch r.Kind {
		case ResImage:
			w, h := r.Width, r.Height
			if w == 0 {
				w = 1
			}
			if h == 0 {
				h = 1
			}
			fmt.Fprintf(&b, "<img src=\"%s\" width=\"%d\" height=\"%d\" alt=\"\">\n",
				html.EscapeString(r.URL), w, h)
		case ResIFrame:
			fmt.Fprintf(&b, "<iframe src=\"%s\"></iframe>\n", html.EscapeString(r.URL))
		}
	}
	b.WriteString("</body>\n</html>\n")
	return []byte(b.String()), nil
}

// ParseHTML parses markup produced by RenderHTML (or hand-written markup
// using the same conventions) back into a Document. It is a tolerant
// scanner, not a spec-complete HTML parser: the TV runtime only needs
// subresource references and the embedded manifest — the same subset a
// crawler extracts.
func ParseHTML(markup []byte) (*Document, error) {
	s := string(markup)
	doc := &Document{}

	if t, ok := between(s, "<title>", "</title>"); ok {
		doc.Title = html.UnescapeString(t)
	}

	// Embedded manifest. XHR entries are restored as resources (appended
	// after the markup-scanned ones below).
	var xhr []string
	if block, ok := scriptBlock(s, manifestType); ok {
		var app AppSpec
		if err := json.Unmarshal([]byte(block), &app); err != nil {
			return nil, fmt.Errorf("appmodel: parse manifest: %w", err)
		}
		xhr = app.XHR
		app.XHR = nil
		doc.App = &app
	}

	// Subresources, in document order.
	for _, tag := range scanTags(s) {
		switch tag.name {
		case "script":
			if src := tag.attrs["src"]; src != "" {
				doc.Resources = append(doc.Resources, Resource{Kind: ResScript, URL: src})
			}
		case "img":
			if src := tag.attrs["src"]; src != "" {
				doc.Resources = append(doc.Resources, Resource{
					Kind:   ResImage,
					URL:    src,
					Width:  atoiDefault(tag.attrs["width"], 1),
					Height: atoiDefault(tag.attrs["height"], 1),
				})
			}
		case "iframe":
			if src := tag.attrs["src"]; src != "" {
				doc.Resources = append(doc.Resources, Resource{Kind: ResIFrame, URL: src})
			}
		case "link":
			if strings.EqualFold(tag.attrs["rel"], "stylesheet") && tag.attrs["href"] != "" {
				doc.Resources = append(doc.Resources, Resource{Kind: ResCSS, URL: tag.attrs["href"]})
			}
		}
	}
	for _, u := range xhr {
		doc.Resources = append(doc.Resources, Resource{Kind: ResXHR, URL: u})
	}
	return doc, nil
}

// atoiDefault parses a non-negative decimal size, returning def for an
// empty, non-numeric or out-of-range value. A value that wrapped around
// would render as a negative number, which does not parse back.
func atoiDefault(s string, def int) int {
	if s == "" {
		return def
	}
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return def
		}
		d := int(c - '0')
		if n > (math.MaxInt-d)/10 {
			return def
		}
		n = n*10 + d
	}
	return n
}

func between(s, open, close string) (string, bool) {
	i := strings.Index(s, open)
	if i < 0 {
		return "", false
	}
	rest := s[i+len(open):]
	j := strings.Index(rest, close)
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

// scriptBlock extracts the body of the first <script> element whose type
// attribute equals typ.
func scriptBlock(s, typ string) (string, bool) {
	for _, tag := range scanTags(s) {
		if tag.name != "script" || tag.attrs["type"] != typ {
			continue
		}
		rest := s[tag.end:]
		j := strings.Index(rest, "</script>")
		if j < 0 {
			return "", false
		}
		return rest[:j], true
	}
	return "", false
}

type tagInfo struct {
	name  string
	attrs map[string]string
	end   int // byte offset just after the closing '>'
}

// scanTags yields every opening tag with its attributes. Attribute values
// may be double-quoted, single-quoted, or bare.
func scanTags(s string) []tagInfo {
	var tags []tagInfo
	for i := 0; i < len(s); {
		lt := strings.IndexByte(s[i:], '<')
		if lt < 0 {
			break
		}
		i += lt
		if i+1 >= len(s) || !isNameStart(s[i+1]) {
			i++
			continue
		}
		gt := strings.IndexByte(s[i:], '>')
		if gt < 0 {
			break
		}
		inner := s[i+1 : i+gt]
		name, attrs := parseTag(inner)
		tags = append(tags, tagInfo{name: name, attrs: attrs, end: i + gt + 1})
		i += gt + 1
	}
	return tags
}

func isNameStart(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func parseTag(inner string) (string, map[string]string) {
	inner = strings.TrimSuffix(inner, "/")
	fields := splitTagFields(inner)
	if len(fields) == 0 {
		return "", nil
	}
	name := strings.ToLower(fields[0])
	attrs := make(map[string]string, len(fields)-1)
	for _, f := range fields[1:] {
		k, v, found := strings.Cut(f, "=")
		k = strings.ToLower(strings.TrimSpace(k))
		if k == "" {
			continue
		}
		if !found {
			attrs[k] = ""
			continue
		}
		v = strings.TrimSpace(v)
		if len(v) >= 2 && (v[0] == '"' || v[0] == '\'') && v[len(v)-1] == v[0] {
			v = v[1 : len(v)-1]
		}
		attrs[k] = html.UnescapeString(v)
	}
	return name, attrs
}

// splitTagFields splits tag innards on whitespace while respecting quotes.
func splitTagFields(s string) []string {
	var fields []string
	var cur strings.Builder
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			cur.WriteByte(c)
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
			cur.WriteByte(c)
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			if cur.Len() > 0 {
				fields = append(fields, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteByte(c)
		}
	}
	if cur.Len() > 0 {
		fields = append(fields, cur.String())
	}
	return fields
}
