// Package policy implements the Section VII pipeline over privacy policies
// found in recorded traffic: plain-text extraction (Boilerpipe substitute),
// language detection by stopword majority voting, machine classification of
// policy vs miscellaneous text, SHA-1 exact deduplication, SimHash
// near-duplicate grouping, MAPP-taxonomy data-practice annotation, a GDPR
// phrase dictionary, and policy-vs-traffic contradiction checks (including
// the paper's "5 pm to 6 am" case).
package policy

import (
	"html"
	"strings"
)

// boilerplateMarkers identify nav/footer blocks that carry no disclosure
// content; blocks dominated by them are dropped, as Boilerpipe drops
// link-dense boilerplate.
var boilerplateMarkers = []string{
	"impressum", "startseite", "kontakt", "sitemap", "agb",
	"home", "back", "zurück", "menü", "menu", "©", "copyright",
	"alle rechte vorbehalten", "all rights reserved",
}

// ExtractText converts policy HTML to plain text: tags are stripped,
// scripts/styles removed, entities decoded, and short boilerplate blocks
// dropped.
func ExtractText(markup string) string {
	text := stripTags(markup)
	var out []string
	for _, block := range strings.Split(text, "\n") {
		block = strings.TrimSpace(block)
		if block == "" {
			continue
		}
		if isBoilerplate(block) {
			continue
		}
		out = append(out, block)
	}
	return strings.Join(out, "\n")
}

func isBoilerplate(block string) bool {
	// Long blocks are content; short blocks matching navigation markers
	// are boilerplate.
	if len(block) >= 120 {
		return false
	}
	low := strings.ToLower(block)
	for _, m := range boilerplateMarkers {
		if strings.Contains(low, m) {
			return true
		}
	}
	return false
}

// stripTags removes markup, turning block-level boundaries into newlines.
// Script and style element contents are dropped entirely.
func stripTags(markup string) string {
	var b strings.Builder
	s := markup
	for {
		lt := strings.IndexByte(s, '<')
		if lt < 0 {
			b.WriteString(s)
			break
		}
		b.WriteString(s[:lt])
		s = s[lt:]
		gt := strings.IndexByte(s, '>')
		if gt < 0 {
			break
		}
		tag := strings.ToLower(s[1:gt])
		name := tag
		if i := strings.IndexAny(name, " \t\n/"); i >= 0 {
			name = name[:i]
		}
		switch name {
		case "script", "style":
			// Offsets must index s itself: Unicode lower-casing can
			// change byte lengths, so fold ASCII letters only.
			end := indexASCIIFold(s[gt:], "</"+name)
			if end < 0 {
				s = ""
				continue
			}
			s = s[gt+end:]
			// Skip past the closing tag.
			if gt2 := strings.IndexByte(s, '>'); gt2 >= 0 {
				s = s[gt2+1:]
			} else {
				s = ""
			}
			continue
		case "p", "div", "br", "h1", "h2", "h3", "h4", "li", "tr", "table", "section", "article":
			b.WriteByte('\n')
		}
		s = s[gt+1:]
	}
	return html.UnescapeString(b.String())
}

// indexASCIIFold is strings.Index with ASCII letters matched in either
// case; needle must be lower case. Every other byte matches exactly, so
// the returned offset is one into s.
func indexASCIIFold(s, needle string) int {
	for i := 0; i+len(needle) <= len(s); i++ {
		j := 0
		for j < len(needle) && lowerASCII(s[i+j]) == needle[j] {
			j++
		}
		if j == len(needle) {
			return i
		}
	}
	return -1
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}
