package appmodel

import (
	"strconv"
	"strings"
)

// Vars is the set of runtime variables the TV substitutes into template
// strings in cookie values and beacon parameters. Templates use {name}
// syntax, e.g. "uid={user}&chan={channel}".
//
// These are the values the paper found leaking: the watched channel,
// the current show and its genre, a session and user identifier, and
// device properties (manufacturer, model, OS, language, local time).
type Vars struct {
	Channel      string
	ChannelID    string
	Show         string
	Genre        string
	SessionID    string
	UserID       string
	Manufacturer string
	Model        string
	OS           string
	Language     string
	LocalTime    string
	UnixTime     int64
}

// lookup resolves a template variable name; ok is false for unknown names.
// The switch replaces the strings.Replacer Expand used to build per call:
// beacons expand several parameters per fire, hundreds of thousands of
// times per run, and constructing a replacer trie each time dominated the
// measurement profile.
func (v *Vars) lookup(name string) (val string, ok bool) {
	switch name {
	case "channel":
		return v.Channel, true
	case "channelId":
		return v.ChannelID, true
	case "show":
		return v.Show, true
	case "genre":
		return v.Genre, true
	case "session":
		return v.SessionID, true
	case "user":
		return v.UserID, true
	case "manufacturer":
		return v.Manufacturer, true
	case "model":
		return v.Model, true
	case "os":
		return v.OS, true
	case "language":
		return v.Language, true
	case "localtime":
		return v.LocalTime, true
	case "unixtime":
		return strconv.FormatInt(v.UnixTime, 10), true
	}
	return "", false
}

// ReadsClock reports whether s references a clock variable, {localtime}
// or {unixtime}: the two that move while an app runs on one channel. A
// reference counts when its "{name}" appears verbatim, which every
// substitution Expand makes requires, so a template for which ReadsClock
// is false expands alike at every instant.
func ReadsClock(s string) bool {
	return strings.Contains(s, "{localtime}") || strings.Contains(s, "{unixtime}")
}

// Expand substitutes {var} references in s. Unknown references are left
// verbatim so that malformed templates remain observable in traffic.
func (v Vars) Expand(s string) string {
	i := strings.IndexByte(s, '{')
	if i < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 16)
	b.WriteString(s[:i])
	s = s[i:]
	for {
		// s starts at a '{'. A reference is "{name}" with a known name;
		// anything else passes through unchanged.
		end := strings.IndexByte(s, '}')
		if end < 0 {
			b.WriteString(s)
			return b.String()
		}
		if val, ok := v.lookup(s[1:end]); ok {
			b.WriteString(val)
			s = s[end+1:]
		} else {
			// Not a reference: emit the '{' and rescan from the next byte
			// (the skipped span may itself contain a '{').
			b.WriteByte('{')
			s = s[1:]
		}
		i = strings.IndexByte(s, '{')
		if i < 0 {
			b.WriteString(s)
			return b.String()
		}
		b.WriteString(s[:i])
		s = s[i:]
	}
}
