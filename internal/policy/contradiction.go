package policy

import (
	"regexp"
	"strconv"
	"strings"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// This file implements the policy-vs-traffic contradiction checks of
// Section VII-C, chief among them the paper's titular case: a children's
// channel group whose policy limits ad personalization and profiling to
// "5 pm to 6 am", while tracking requests were observed outside that
// window.

// AdWindow is a declared time window during which profiling/ad
// personalization is permitted. The window may span midnight
// (StartHour > EndHour), as 17:00–06:00 does.
type AdWindow struct {
	StartHour int
	EndHour   int
}

// Contains reports whether t's local hour falls inside the window.
func (w AdWindow) Contains(t time.Time) bool {
	h := t.Hour()
	if w.StartHour == w.EndHour {
		return true // degenerate 24h window
	}
	if w.StartHour < w.EndHour {
		return h >= w.StartHour && h < w.EndHour
	}
	return h >= w.StartHour || h < w.EndHour
}

var (
	windowDE = regexp.MustCompile(`(?i)von\s+(\d{1,2})(?::00)?\s*uhr\s+bis\s+(\d{1,2})(?::00)?\s*uhr`)
	windowEN = regexp.MustCompile(`(?i)from\s+(\d{1,2})\s*(am|pm)\s+(?:to|until)\s+(\d{1,2})\s*(am|pm)`)
)

// ParseAdWindow extracts a declared time window from policy text, handling
// German 24h phrasing ("von 17 Uhr bis 6 Uhr") and English am/pm phrasing
// ("from 5 pm to 6 am"). A phrase naming an hour its clock does not have
// ("25 Uhr", "13 pm") declares no window.
func ParseAdWindow(text string) (AdWindow, bool) {
	if m := windowDE.FindStringSubmatch(text); m != nil {
		start, okStart := hour24(m[1])
		end, okEnd := hour24(m[2])
		if okStart && okEnd {
			return AdWindow{StartHour: start, EndHour: end}, true
		}
	}
	if m := windowEN.FindStringSubmatch(text); m != nil {
		start, okStart := hour12(m[1], m[2])
		end, okEnd := hour12(m[3], m[4])
		if okStart && okEnd {
			return AdWindow{StartHour: start, EndHour: end}, true
		}
	}
	return AdWindow{}, false
}

// hour24 reads a 24-hour clock hour (0-24, where 24 is midnight).
func hour24(digits string) (int, bool) {
	h, err := strconv.Atoi(digits)
	if err != nil || h > 24 {
		return 0, false
	}
	return h % 24, true
}

// hour12 converts a 12-hour clock hour (1-12) with its am/pm suffix to
// 0-23. The suffix matched case-insensitively, so it compares the same way.
func hour12(digits, suffix string) (int, bool) {
	h, err := strconv.Atoi(digits)
	if err != nil || h < 1 || h > 12 {
		return 0, false
	}
	h %= 12
	if strings.EqualFold(suffix, "pm") {
		h += 12
	}
	return h, true
}

// WindowViolation is one tracking request observed outside the declared
// window on a covered channel.
type WindowViolation struct {
	Run     store.RunName
	Channel string
	Host    string
	Time    time.Time
}

// CheckAdWindow finds the tracking requests on the given channels outside
// the declared window: the index rows whose kind meets the paper's
// tracking definition, reported in row order.
func CheckAdWindow(cols *store.Columns, channels []string, w AdWindow) []WindowViolation {
	covered := make([]bool, cols.Channels.Len())
	for _, c := range channels {
		if id, ok := cols.Channels.Lookup(c); ok {
			covered[id] = true
		}
	}
	var out []WindowViolation
	for i, ch := range cols.ChannelID {
		if ch < 0 || !covered[ch] || !cols.Kind[i].Tracking() {
			continue
		}
		f := cols.Flows[i]
		if w.Contains(f.Time) {
			continue
		}
		out = append(out, WindowViolation{
			Run: cols.RunName(i), Channel: f.Channel, Host: cols.Host(i), Time: f.Time,
		})
	}
	return out
}

// Contradiction is a detected mismatch between a policy's declarations and
// observed behavior or legal requirements.
type Contradiction string

// Contradiction kinds.
const (
	// ContradictionAdWindow: tracking outside the declared profiling window.
	ContradictionAdWindow Contradiction = "tracking_outside_declared_window"
	// ContradictionOptOut: targeted advertising framed as opt-out, which
	// requires opt-in consent under the GDPR.
	ContradictionOptOut Contradiction = "opt_out_for_targeted_ads"
	// ContradictionUndisclosed3P: third-party tracking observed without a
	// third-party sharing declaration.
	ContradictionUndisclosed3P Contradiction = "undisclosed_third_party_sharing"
)

// CheckStatic evaluates the per-policy contradictions that need no traffic:
// opt-out framing combined with advertising purposes.
func CheckStatic(practices map[Practice]bool) []Contradiction {
	var out []Contradiction
	if practices[PracticeOptOutFraming] && practices[PracticeAdvertising] {
		out = append(out, ContradictionOptOut)
	}
	return out
}

// CheckThirdPartyDisclosure flags policies that do not declare third-party
// sharing although the channel's traffic contains third-party trackers.
func CheckThirdPartyDisclosure(practices map[Practice]bool, observedThirdPartyTrackers bool) []Contradiction {
	if observedThirdPartyTrackers && !practices[PracticeThirdPartySharing] {
		return []Contradiction{ContradictionUndisclosed3P}
	}
	return nil
}
