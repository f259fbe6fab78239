package synth

import (
	"fmt"
	"math/rand"
	"net/http"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/headend"
)

// This file builds each channel's HbbTV application: the autostart
// document and the pages behind the four colored buttons. The documents
// are what the TV actually fetches, parses, and executes; every analysis
// observation (pixels, fingerprints, leaks, cookies, notices, policies)
// is an emergent property of these pages.

// pickTail selects a long-tail tracker with a popularity skew: low indices
// are common, high indices rare — producing the paper's long-tail shape
// with only ~25 parties above ten channels.
func pickTail(rng *rand.Rand) string {
	idx := int(float64(longTailCount) * rng.Float64() * rng.Float64())
	if idx >= longTailCount {
		idx = longTailCount - 1
	}
	return longTailDomain(idx)
}

// channelRand returns the channel's deterministic private RNG.
func (w *World) channelRand(slug string) *rand.Rand {
	h := uint64(1469598103934665603)
	for _, b := range []byte(slug) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(int64(h) ^ w.Cfg.Seed))
}

// cdnImage is the body of every cdn.<fp> image: 4 KB of zeros, a genuine
// content image rather than a pixel. Handlers only read it.
var cdnImage [4096]byte

func (w *World) ensureGroupServices(g *OperatorGroup) {
	if w.groupHosts == nil {
		w.groupHosts = make(map[string]bool)
	}
	if w.groupHosts[g.FirstParty] {
		return
	}
	w.groupHosts[g.FirstParty] = true
	// cdn.<fp>: static assets.
	w.Internet.HandleFunc("cdn."+g.FirstParty, func(wr http.ResponseWriter, r *http.Request) {
		switch {
		case hasSuffix(r.URL.Path, ".css"):
			wr.Header().Set("Content-Type", "text/css")
			fmt.Fprintf(wr, "/* %s */ body{margin:0}", g.FirstParty)
		case hasSuffix(r.URL.Path, ".json"):
			wr.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(wr, `{"epg":[{"show":"now"},{"show":"next"}],"host":%q}`, g.FirstParty)
		case hasSuffix(r.URL.Path, ".js"):
			wr.Header().Set("Content-Type", "application/javascript")
			fmt.Fprintf(wr, "/* %s loader */ function boot(){}", g.FirstParty)
		default:
			wr.Header().Set("Content-Type", "image/png")
			_, _ = wr.Write(cdnImage[:])
		}
	})
	// cdn-secure.<fp>: the HTTPS asset host used by color-button pages.
	w.Internet.Handle("cdn-secure."+g.FirstParty, w.mustLookup("cdn."+g.FirstParty))
	// lic.<fp>: the HTTPS license/entitlement endpoint.
	w.Internet.HandleFunc("lic."+g.FirstParty, func(wr http.ResponseWriter, r *http.Request) {
		wr.Header().Set("Content-Type", "application/json")
		fmt.Fprint(wr, `{"entitled":true}`)
	})
	// stats.<fp>: the group's own audience-measurement pixel (first-party
	// tracking: 88% of fingerprinting and much pixel traffic is
	// first-party in the study).
	w.installTracker(headend.NewTrackerService(headend.Tracker{
		Domain:     "stats." + g.FirstParty,
		CookieName: "ps_vid",
		CookieKind: headend.CookieID,
	}, w.clk, int64(len(g.FirstParty))*977+w.Cfg.Seed))
	if g.FingerprintFirstParty {
		w.installTracker(headend.NewTrackerService(headend.Tracker{
			Domain:      "fp." + g.FirstParty,
			Fingerprint: true,
		}, w.clk, int64(len(g.FirstParty))*571+w.Cfg.Seed))
	}
}

func (w *World) mustLookup(host string) http.Handler {
	h, ok := w.Internet.Lookup(host)
	if !ok {
		panic("synth: host not registered: " + host)
	}
	return h
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

// installChannelSite builds and registers the channel's application server.
func (w *World) installChannelSite(ch *Channel) {
	g := ch.Group
	w.ensureGroupServices(g)
	rng := w.channelRand(ch.Slug)

	usesTVPing := g.UsesTVPing && rng.Float64() < 0.5 || ch.Outlier
	usesXiti := g.UsesXiti && rng.Float64() < 0.5
	fingerprint3P := !g.FingerprintFirstParty && rng.Float64() < 0.06
	fpDomain := thirdPartyFingerprinters[rng.Intn(len(thirdPartyFingerprinters))]
	tailTracker := pickTail(rng)
	hasMediathek := rng.Float64() < 0.55 || ch.Outlier
	hasGame := rng.Float64() < 0.35 || ch.Slug == locationAdSlug
	hasDashboard := rng.Float64() < 0.45
	noticeOnStart := g.NoticeStyle != 0 && noticeOnAutostart(g)
	deviceCollector := deviceCollectors[rng.Intn(len(deviceCollectors))]
	profileCollector := profileCollectors[rng.Intn(len(profileCollectors))]

	policyURL := ""
	if ch.PolicyPath != "" {
		policyURL = "http://" + ch.AppHost + ch.PolicyPath
	}

	site := headend.ChannelSite{
		Host:  ch.AppHost,
		Pages: map[string]*appmodel.Document{},
	}
	if rng.Float64() < 0.25 {
		site.ServerCookies = []http.Cookie{{
			Name:  "chsid",
			Value: fmt.Sprintf("%08x%08x", rng.Uint32(), rng.Uint32()),
			Path:  "/", MaxAge: 90 * 24 * 3600,
		}}
	}
	if ch.PolicyPath != "" {
		site.Policies = map[string]string{ch.PolicyPath: w.policyFor(ch)}
	}

	hasBlue := (g.NoticeStyle != 0 || g.Public) && rng.Float64() < 0.12
	site.Pages["/index.html"] = w.autostartDoc(ch, rng, autostartOpts{
		usesTVPing: usesTVPing, usesXiti: usesXiti,
		fingerprint3P: fingerprint3P, fpDomain: fpDomain,
		noticeOnStart: noticeOnStart, policyURL: policyURL,
		deviceCollector: deviceCollector, profileCollector: profileCollector,
		tailTracker:  tailTracker,
		hasMediathek: hasMediathek, hasGame: hasGame, hasDashboard: hasDashboard,
		hasSettings: hasBlue,
	})
	if hasMediathek {
		site.Pages["/mediathek.html"] = w.mediathekDoc(ch, rng, usesTVPing, policyURL, tailTracker)
	}
	if hasBlue {
		site.Pages["/settings.html"] = w.settingsDoc(ch, rng, policyURL)
	}
	if hasGame {
		site.Pages["/game.html"] = w.gameDoc(ch, rng, usesTVPing, tailTracker)
	}
	if hasDashboard {
		site.Pages["/dashboard.html"] = w.dashboardDoc(ch, rng, usesTVPing, policyURL)
	}
	headend.MustInstallSite(w.Internet, site)
}

// mediaOverlay builds the media-library overlay; a few channels instead
// show a "channel tech message" (service unavailable), the CTM code of the
// screenshot codebook, which the study only saw in the color-button runs.
func mediaOverlay(rng *rand.Rand) *appmodel.OverlaySpec {
	if rng.Float64() < 0.08 {
		return &appmodel.OverlaySpec{
			Type: appmodel.OverlayCTM,
			Text: "Dienst derzeit nicht verfügbar (Fehler 201)",
		}
	}
	return &appmodel.OverlaySpec{
		Type:            appmodel.OverlayMediaLibrary,
		PrivacyPointer:  true,
		PointerObscured: rng.Float64() < 0.5,
	}
}

// noticeOnAutostart lists the groups whose consent notice shows during
// plain viewing (the study saw privacy info on 70 channels in the General
// run); the other groups only show notices behind the blue button.
func noticeOnAutostart(g *OperatorGroup) bool {
	switch g.Name {
	case "RTL", "KidsGroup", "RTLZwei", "HGTV", "KroneTV", "Shopping-QVC":
		return true
	default:
		return false
	}
}

func (w *World) policyFor(ch *Channel) string {
	switch {
	case ch.EnglishPolicy:
		return EnglishPolicyHTML(ch.Group.Name, ch.Service.Name)
	case ch.BilingualPolicy:
		return BilingualPolicyHTML(ch.Group.PolicyTemplate, ch.Group.Name, ch.Service.Name)
	}
	// Most channels serve their group's shared policy verbatim; about one
	// in ten gets a channel-branded variant — these near-identical copies
	// are what the SimHash grouping finds.
	rng := w.channelRand(ch.Slug + "-policy")
	name := ch.Group.Name
	if rng.Float64() < 0.1 {
		name = ch.Service.Name
	}
	return PolicyHTML(ch.Group.PolicyTemplate, ch.Group.Name, name)
}

type autostartOpts struct {
	usesTVPing, usesXiti  bool
	fingerprint3P         bool
	fpDomain              string
	noticeOnStart         bool
	policyURL             string
	deviceCollector       string
	profileCollector      string
	tailTracker           string
	hasMediathek, hasGame bool
	hasDashboard          bool
	hasSettings           bool
}

func (w *World) autostartDoc(ch *Channel, rng *rand.Rand, o autostartOpts) *appmodel.Document {
	g := ch.Group
	doc := &appmodel.Document{
		Title: ch.Service.Name + " HbbTV",
		Resources: []appmodel.Resource{
			{Kind: appmodel.ResCSS, URL: "http://cdn." + g.FirstParty + "/app.css"},
			{Kind: appmodel.ResScript, URL: "http://cdn." + g.FirstParty + "/loader.js"},
			{Kind: appmodel.ResImage, URL: "http://stats." + g.FirstParty + "/px?c=" + ch.Slug, Width: 1, Height: 1},
			{Kind: appmodel.ResCSS, URL: "http://tvfonts.eu/hbbtv-fonts.css"},
		},
		App: &appmodel.AppSpec{
			KeyMap: map[appmodel.Key]appmodel.Action{},
			Beacons: []appmodel.BeaconSpec{
				{
					URL:             "http://stats." + g.FirstParty + "/px",
					IntervalSeconds: 10,
					Params:          map[string]string{"c": ch.Slug, "s": "{session}"},
				},
				{
					URL:             "http://cdn." + g.FirstParty + "/epg.json",
					IntervalSeconds: 60,
					Params:          map[string]string{"c": ch.Slug},
				},
			},
		},
	}
	if rng.Float64() < 0.3 {
		doc.App.Cookies = append(doc.App.Cookies,
			appmodel.CookieSpec{Name: "zapid", Value: "{session}", MaxAge: 3600})
	}
	if rng.Float64() < 0.4 {
		doc.App.Storage = []appmodel.StorageSpec{{Key: "hbbtv." + ch.Slug + ".seen", Value: "{unixtime}"}}
	}
	// A sparse HTTPS heartbeat (license/entitlement check) gives the
	// General run its sub-1% HTTPS share.
	if rng.Float64() < 0.15 {
		doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
			URL:             "https://lic." + g.FirstParty + "/check",
			IntervalSeconds: 120,
			Params:          map[string]string{"c": ch.Slug},
		})
	}
	if o.usesTVPing {
		doc.Resources = append(doc.Resources, appmodel.Resource{
			Kind: appmodel.ResImage, URL: "http://" + ch.Slug + "." + DomainTVPing + "/t?c=" + ch.Slug,
			Width: 1, Height: 1,
		})
		doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
			URL:             "http://" + ch.Slug + "." + DomainTVPing + "/t",
			IntervalSeconds: 2 + rng.Intn(3),
			Params: map[string]string{
				"c": ch.Slug, "s": "{session}", "u": "{user}",
			},
		})
	}

	// A few channels encode a Web tracker directly into the signal-loaded
	// page (the paper saw google-analytics endpoints in the AIT/entry).
	if rng.Float64() < 0.04 {
		doc.Resources = append(doc.Resources, appmodel.Resource{
			Kind: appmodel.ResImage, URL: "http://" + DomainGA + "/collect?v=1&tid=UA-" + ch.Slug,
			Width: 1, Height: 1,
		})
		doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
			URL:             "http://" + DomainGA + "/collect",
			IntervalSeconds: 300,
			Params:          map[string]string{"v": "1", "tid": "UA-" + ch.Slug},
		})
	}
	// Some channels use the TV-audience panel service (on the Pi-hole and
	// Perflyst lists but not Kamran's).
	if rng.Float64() < 0.1 {
		doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
			URL:             "http://" + "sensic.net" + "/px",
			IntervalSeconds: 300,
			Params:          map[string]string{"c": ch.Slug},
		})
	}
	if g.FingerprintFirstParty {
		doc.App.Fingerprint = &appmodel.FingerprintSpec{
			ScriptURL: "http://fp." + g.FirstParty + "/fp.js",
			ReportURL: "http://fp." + g.FirstParty + "/collect",
			APIs:      []string{"canvas", "webgl"},
		}
	} else if o.fingerprint3P {
		doc.App.Fingerprint = &appmodel.FingerprintSpec{
			ScriptURL: "http://" + o.fpDomain + "/fp.js",
			ReportURL: "http://" + o.fpDomain + "/collect",
			APIs:      []string{"canvas"},
		}
	}
	if g.LeakDevice && rng.Float64() < 0.65 {
		doc.App.LeakTechnical = []string{"http://" + o.deviceCollector + "/d"}
	}
	if g.LeakGenre && rng.Float64() < 0.55 {
		doc.App.LeakBehavioral = []string{"http://" + o.profileCollector + "/b"}
	}
	// Occasionally the autostart page pulls a long-tail tracker.
	if rng.Float64() < 0.3 {
		doc.Resources = append(doc.Resources, appmodel.Resource{
			Kind: appmodel.ResImage, URL: "http://" + o.tailTracker + "/px?c=" + ch.Slug,
			Width: 1, Height: 1,
		})
	}
	// Many apps preload their privacy text; children's apps always do.
	if o.policyURL != "" && (g.ChildrenGroup || rng.Float64() < 0.6) {
		doc.Resources = append(doc.Resources, appmodel.Resource{Kind: appmodel.ResXHR, URL: o.policyURL})
	}
	// Colored buttons.
	if o.hasMediathek {
		doc.App.KeyMap[appmodel.KeyRed] = appmodel.Action{Kind: appmodel.ActionNavigate, URL: "/mediathek.html"}
	}
	if o.hasSettings {
		doc.App.KeyMap[appmodel.KeyBlue] = appmodel.Action{Kind: appmodel.ActionNavigate, URL: "/settings.html"}
	}
	if o.hasGame {
		doc.App.KeyMap[appmodel.KeyGreen] = appmodel.Action{Kind: appmodel.ActionNavigate, URL: "/game.html"}
	}
	if o.hasDashboard {
		doc.App.KeyMap[appmodel.KeyYellow] = appmodel.Action{Kind: appmodel.ActionNavigate, URL: "/dashboard.html"}
	}
	if o.noticeOnStart {
		doc.App.Notice = &appmodel.OverlaySpec{
			Type:           appmodel.OverlayPrivacy,
			Privacy:        appmodel.PrivacyConsentNotice,
			Consent:        NoticeSpec(g.NoticeStyle),
			PolicyURL:      o.policyURL,
			VisibleFromSec: 15,
			VisibleToSec:   140,
		}
	}
	return doc
}

func (w *World) mediathekDoc(ch *Channel, rng *rand.Rand, usesTVPing bool, policyURL, tailTracker string) *appmodel.Document {
	g := ch.Group
	extraTail := pickTail(rng)
	doc := &appmodel.Document{
		Title: ch.Service.Name + " Mediathek",
		Resources: []appmodel.Resource{
			{Kind: appmodel.ResCSS, URL: "https://cdn-secure." + g.FirstParty + "/media.css"},
			{Kind: appmodel.ResScript, URL: "https://cdn-secure." + g.FirstParty + "/media.js"},
			{Kind: appmodel.ResImage, URL: "https://cdn-secure." + g.FirstParty + "/teaser1.png", Width: 320, Height: 180},
			{Kind: appmodel.ResImage, URL: "http://stats." + g.FirstParty + "/px?c=" + ch.Slug + "&p=media", Width: 1, Height: 1},
			{Kind: appmodel.ResImage, URL: "http://" + tailTracker + "/px?c=" + ch.Slug, Width: 1, Height: 1},
			{Kind: appmodel.ResImage, URL: "http://" + extraTail + "/px?c=" + ch.Slug + "&p=media", Width: 1, Height: 1},
		},
		App: &appmodel.AppSpec{
			Cookies: []appmodel.CookieSpec{{Name: "media_last", Value: "{unixtime}", MaxAge: 7 * 24 * 3600}},
			Overlay: mediaOverlay(rng),
			KeyMap: map[appmodel.Key]appmodel.Action{
				appmodel.KeyBlue: {Kind: appmodel.ActionNavigate, URL: "/settings.html"},
			},
		},
	}
	if !g.Public {
		doc.Resources = append(doc.Resources, appmodel.Resource{
			Kind: appmodel.ResIFrame, URL: "https://ads." + DomainSmartclip + "/frame?site=" + ch.Slug,
		})
		// Rotating ad slots keep requesting creatives from the ad network.
		doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
			URL:             "http://ads." + DomainSmartclip + "/ad",
			IntervalSeconds: 120,
			Params:          map[string]string{"site": ch.Slug, "slot": "media"},
		})
	}
	if noticeOnAutostart(g) {
		doc.App.Notice = &appmodel.OverlaySpec{
			Type:         appmodel.OverlayPrivacy,
			Privacy:      appmodel.PrivacyConsentNotice,
			Consent:      NoticeSpec(g.NoticeStyle),
			PolicyURL:    policyURL,
			VisibleToSec: 60,
		}
	}
	if g.SyncPair {
		doc.Resources = append(doc.Resources, appmodel.Resource{
			Kind: appmodel.ResImage, URL: "http://" + DomainSyncA + "/sync?c=" + ch.Slug, Width: 1, Height: 1,
		})
	}
	if policyURL != "" {
		doc.Resources = append(doc.Resources, appmodel.Resource{Kind: appmodel.ResXHR, URL: policyURL})
	}
	doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
		URL:             "https://cdn-secure." + g.FirstParty + "/hls/segment",
		IntervalSeconds: 30,
		Params:          map[string]string{"c": ch.Slug},
	})
	// Browsing the library keeps fetching teaser images — genuine content
	// traffic, which keeps the tracking-pixel share of color-run traffic
	// near the paper's ~56-62% instead of ~100%.
	doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
		URL:             "http://cdn." + g.FirstParty + "/teaser.png",
		IntervalSeconds: 8,
		Params:          map[string]string{"c": ch.Slug},
	})
	if g.UsesXiti {
		doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
			URL:             "http://ct." + DomainTVStat + "/px",
			IntervalSeconds: 240,
			Params:          map[string]string{"c": ch.Slug, "p": "media"},
		})
	}
	if usesTVPing {
		interval := 1
		burst := 0
		if ch.Outlier {
			interval, burst = 1, 60
		}
		doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
			URL:             "http://" + ch.Slug + "." + DomainTVPing + "/t",
			IntervalSeconds: interval,
			Burst:           burst,
			Params:          map[string]string{"c": ch.Slug, "s": "{session}", "u": "{user}", "p": "media"},
		})
	}
	return doc
}

func (w *World) settingsDoc(ch *Channel, rng *rand.Rand, policyURL string) *appmodel.Document {
	g := ch.Group
	doc := &appmodel.Document{
		Title: ch.Service.Name + " Datenschutz",
		Resources: []appmodel.Resource{
			{Kind: appmodel.ResScript, URL: "https://consent." + DomainCMP + "/cmp.js"},
		},
		App: &appmodel.AppSpec{
			Beacons: []appmodel.BeaconSpec{{
				URL:             "https://consent." + DomainCMP + "/heartbeat",
				IntervalSeconds: 30,
				Params:          map[string]string{"c": ch.Slug},
			}},
		},
	}
	if policyURL != "" {
		doc.Resources = append(doc.Resources, appmodel.Resource{Kind: appmodel.ResXHR, URL: policyURL})
	}
	switch {
	case g.NoticeStyle != 0:
		doc.App.Overlay = &appmodel.OverlaySpec{
			Type:      appmodel.OverlayPrivacy,
			Privacy:   appmodel.PrivacyConsentNotice,
			Consent:   NoticeSpec(g.NoticeStyle),
			PolicyURL: policyURL,
		}
	case g.Public:
		// Public broadcasters show the hybrid split screen: policy text
		// plus current cookie settings.
		doc.App.Overlay = &appmodel.OverlaySpec{
			Type:      appmodel.OverlayPrivacy,
			Privacy:   appmodel.PrivacyHybrid,
			PolicyURL: policyURL,
		}
	default:
		doc.App.Overlay = &appmodel.OverlaySpec{
			Type:      appmodel.OverlayPrivacy,
			Privacy:   appmodel.PrivacyPolicy,
			PolicyURL: policyURL,
		}
	}
	return doc
}

func (w *World) gameDoc(ch *Channel, rng *rand.Rand, usesTVPing bool, tailTracker string) *appmodel.Document {
	g := ch.Group
	overlayText := "Gewinnspiel: Jetzt mitmachen!"
	if ch.Slug == locationAdSlug {
		// The location-targeted ad the paper's manual inspection found.
		overlayText = "Schlaf-gut Melatonin – jetzt in Apotheken in " +
			MeasurementCity + " erhältlich!"
	}
	doc := &appmodel.Document{
		Title: ch.Service.Name + " Spiel",
		Resources: []appmodel.Resource{
			{Kind: appmodel.ResScript, URL: "https://cdn-secure." + g.FirstParty + "/game.js"},
			{Kind: appmodel.ResImage, URL: "http://" + tailTracker + "/px?c=" + ch.Slug + "&p=game", Width: 1, Height: 1},
		},
		App: &appmodel.AppSpec{
			Cookies: []appmodel.CookieSpec{
				{Name: "game_score", Value: "0", MaxAge: 24 * 3600},
				{Name: "game_uid", Value: "{user}", MaxAge: 30 * 24 * 3600},
			},
			Overlay: &appmodel.OverlaySpec{
				Type:         appmodel.OverlayOther,
				Text:         overlayText,
				VisibleToSec: 130,
			},
		},
	}
	if g.SyncPair {
		doc.Resources = append(doc.Resources, appmodel.Resource{
			Kind: appmodel.ResImage, URL: "http://" + DomainSyncA + "/sync?c=" + ch.Slug + "&p=game", Width: 1, Height: 1,
		})
	}
	doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
		URL:             "https://cdn-secure." + g.FirstParty + "/game/state",
		IntervalSeconds: 30,
		Params:          map[string]string{"c": ch.Slug},
	})
	if !g.Public {
		doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
			URL:             "http://ads." + DomainSmartclip + "/ad",
			IntervalSeconds: 300,
			Params:          map[string]string{"site": ch.Slug, "slot": "game"},
		})
	}
	doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
		URL:             "http://cdn." + g.FirstParty + "/sprite.png",
		IntervalSeconds: 15,
		Params:          map[string]string{"c": ch.Slug},
	})
	if usesTVPing {
		doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
			URL:             "http://" + ch.Slug + "." + DomainTVPing + "/t",
			IntervalSeconds: 5,
			Params:          map[string]string{"c": ch.Slug, "u": "{user}", "p": "game"},
		})
	}
	return doc
}

func (w *World) dashboardDoc(ch *Channel, rng *rand.Rand, usesTVPing bool, policyURL string) *appmodel.Document {
	g := ch.Group
	doc := &appmodel.Document{
		Title: ch.Service.Name + " Dashboard",
		Resources: []appmodel.Resource{
			{Kind: appmodel.ResCSS, URL: "http://cdn." + g.FirstParty + "/dash.css"},
			{Kind: appmodel.ResImage, URL: "http://stats." + g.FirstParty + "/px?c=" + ch.Slug + "&p=dash", Width: 1, Height: 1},
		},
		App: &appmodel.AppSpec{
			Overlay: mediaOverlay(rng),
		},
	}
	doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
		URL:             "https://cdn-secure." + g.FirstParty + "/thumbs/refresh",
		IntervalSeconds: 120,
		Params:          map[string]string{"c": ch.Slug},
	})
	doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
		URL:             "http://cdn." + g.FirstParty + "/tile.png",
		IntervalSeconds: 10,
		Params:          map[string]string{"c": ch.Slug},
	})
	if g.UsesXiti {
		doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
			URL:             "http://ct." + DomainTVStat + "/px",
			IntervalSeconds: 300,
			Params:          map[string]string{"c": ch.Slug, "p": "dash"},
		})
	}
	if !g.Public {
		doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
			URL:             "http://ads." + DomainSmartclip + "/ad",
			IntervalSeconds: 450,
			Params:          map[string]string{"site": ch.Slug, "slot": "dash"},
		})
	}
	doc.Resources = append(doc.Resources, appmodel.Resource{
		Kind: appmodel.ResImage, URL: "http://" + pickTail(rng) + "/px?c=" + ch.Slug + "&p=dash",
		Width: 1, Height: 1,
	})
	if noticeOnAutostart(g) {
		doc.App.Notice = &appmodel.OverlaySpec{
			Type:         appmodel.OverlayPrivacy,
			Privacy:      appmodel.PrivacyConsentNotice,
			Consent:      NoticeSpec(g.NoticeStyle),
			PolicyURL:    policyURL,
			VisibleToSec: 60,
		}
	}
	if usesTVPing {
		doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
			URL:             "http://" + ch.Slug + "." + DomainTVPing + "/t",
			IntervalSeconds: 1,
			Params:          map[string]string{"c": ch.Slug, "s": "{session}", "u": "{user}", "p": "dash"},
		})
	}
	if policyURL != "" {
		// The dashboard reloads the policy document periodically (policy
		// texts were most frequent in the Yellow run's traffic).
		doc.App.Beacons = append(doc.App.Beacons, appmodel.BeaconSpec{
			URL:             policyURL,
			IntervalSeconds: 120,
		})
	}
	return doc
}
