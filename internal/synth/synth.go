// Package synth generates the calibrated synthetic HbbTV world the
// measurement framework runs against: the universe of broadcast services
// received from three satellites (with the paper's filtering funnel:
// radio, encrypted, invisible, traffic-less, IPTV), the operator groups
// and their HbbTV applications, the tracker population (dominant pixel
// host, platform analytics, fingerprinters, cookie-sync pairs, a long tail
// of HbbTV-specific services missing from Web filter lists), the twelve
// consent-notice stylings, and the privacy-policy corpus — all seeded and
// deterministic.
//
// The generator encodes the published marginals of the study; the
// measurement and analysis pipeline then reproduces the reported shapes by
// actually executing against this world.
package synth

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/headend"
	"github.com/hbbtvlab/hbbtvlab/internal/hostnet"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// Config parameterizes world generation.
type Config struct {
	// Seed drives all randomness; equal seeds yield equal worlds.
	Seed int64
	// Scale multiplies the channel population. 1.0 reproduces paper scale
	// (3,575 received services, 396 analyzed); tests use small scales.
	Scale float64
}

// Channel is one analyzed HbbTV channel with its generation-time facts
// (used by tests and by EXPERIMENTS.md verification, never by analyses).
type Channel struct {
	Service *dvb.Service
	Group   *OperatorGroup
	Slug    string
	// AppHost is the channel's first-party application host.
	AppHost string
	// PolicyPath is the policy document path on AppHost ("" = none).
	PolicyPath string
	// Outlier marks the single channel with the extreme Red-run beacon
	// volume (59k requests in the study).
	Outlier bool
	// EnglishPolicy / BilingualPolicy override the group's German policy.
	EnglishPolicy   bool
	BilingualPolicy bool
}

// World is the generated ecosystem.
type World struct {
	Cfg Config
	// Universe is every broadcast service the receiver can see.
	Universe []*dvb.Service
	// Channels are the HbbTV channels (the funnel's expected survivors).
	Channels []*Channel
	// Internet hosts all operator and tracker services.
	Internet *hostnet.Internet
	// Trackers is the installed tracker roster.
	Trackers []headend.Tracker
	// Availability lists, per measurement run, the channels on air.
	Availability map[store.RunName]map[string]bool

	clk        clock.Clock
	groupHosts map[string]bool
	// trackerSvcs is the registry of running tracker services in install
	// order. World construction is deterministic, so the order is a stable
	// coordinate system: checkpointed tracker state is keyed by index and
	// validated by domain (domains alone are ambiguous — a few collectors
	// are installed under both the device and profile rosters).
	trackerSvcs []*headend.TrackerService
}

// installTracker registers the service on the virtual Internet and in the
// world's deterministic service registry (the checkpoint layer's
// coordinate system for handler state).
func (w *World) installTracker(svc *headend.TrackerService) {
	svc.Install(w.Internet)
	w.trackerSvcs = append(w.trackerSvcs, svc)
}

// Fork returns a world that answers every request as a fresh Build of
// w's config on clk would, without building it again. Only the tracker
// services hold handler state, so the fork shares everything else with w
// — universe, channels, availability, application servers and the
// stateless handler functions — clones the registry, and reinstalls a
// fresh copy of every tracker service in install order, so TrackerStates
// and RestoreTrackerStates line up with a fresh build's. The copies start
// from their construction seeds whatever w's services have served, so a
// fork taken after the funnel measured on w is exact. Hosts registered on
// w after Build carry over to the fork, except a tracker service's own
// hosts, which its fresh copy takes back.
func (w *World) Fork(clk clock.Clock) *World {
	f := &World{
		Cfg:          w.Cfg,
		Universe:     w.Universe,
		Channels:     w.Channels,
		Internet:     w.Internet.Clone(),
		Trackers:     w.Trackers,
		Availability: w.Availability,
		clk:          clk,
		trackerSvcs:  make([]*headend.TrackerService, 0, len(w.trackerSvcs)),
	}
	for _, svc := range w.trackerSvcs {
		f.installTracker(svc.Fresh(clk))
	}
	return f
}

// TrackerStates captures the mutable handler state of every installed
// tracker service, in install order. Equal seeds build worlds with equal
// registries, so the snapshot restores onto a freshly built world of the
// same seed via RestoreTrackerStates.
func (w *World) TrackerStates() []store.TrackerState {
	out := make([]store.TrackerState, len(w.trackerSvcs))
	for i, svc := range w.trackerSvcs {
		draws, nextID := svc.State()
		out[i] = store.TrackerState{Domain: svc.Domain(), Draws: draws, NextID: nextID}
	}
	return out
}

// RestoreTrackerStates fast-forwards this (freshly built) world's tracker
// services to a captured TrackerStates snapshot. The registry must line
// up service for service; a mismatch means the snapshot was taken on a
// different world and is rejected.
func (w *World) RestoreTrackerStates(states []store.TrackerState) error {
	if len(states) != len(w.trackerSvcs) {
		return fmt.Errorf("synth: restore tracker state: snapshot has %d services, world has %d (different world?)", len(states), len(w.trackerSvcs))
	}
	for i, st := range states {
		svc := w.trackerSvcs[i]
		if st.Domain != svc.Domain() {
			return fmt.Errorf("synth: restore tracker state: service %d is %s in the snapshot but %s in the world (different world?)", i, st.Domain, svc.Domain())
		}
		if err := svc.Restore(st.Draws, st.NextID); err != nil {
			return fmt.Errorf("synth: restore tracker state: %w", err)
		}
	}
	return nil
}

// ChannelBySlug returns the channel with the given slug, or nil.
func (w *World) ChannelBySlug(slug string) *Channel {
	for _, c := range w.Channels {
		if c.Slug == slug {
			return c
		}
	}
	return nil
}

// Funnel targets at scale 1.0, mirroring Section IV-B. The paper's own
// step counts are slightly inconsistent (1,149 remaining − 782 traffic-less
// − 1 IPTV ≠ 396); we preserve the endpoints that every analysis depends
// on (3,575 received; 396 analyzed) and the quoted intermediate ratios.
const (
	paperReceived  = 3575
	paperRadio     = 425
	paperEncrypted = 1104 // 3,150 TV − 2,046 free-to-air
	paperFinal     = 396
	paperNoTraffic = 782
	paperIPTV      = 1
)

// Per-run availability targets (Table I) at scale 1.0.
var runAvailability = map[store.RunName]int{
	store.RunGeneral: 374,
	store.RunRed:     375,
	store.RunGreen:   215,
	store.RunBlue:    309,
	store.RunYellow:  381,
}

// MeasurementCity is the physical location of the measurement setup; one
// channel airs a location-targeted ad naming it (the paper's "Other
// Observations" case: a sleeping-aid ad naming pharmacies in the city).
const MeasurementCity = "Gelsenkirchen"

// locationAdSlug is the channel carrying that ad.
const locationAdSlug = "independentshops01"

// shows is the EPG pool: show title + genre pairs.
var shows = []struct{ title, genre string }{
	{"Tatort", "Krimi"},
	{"Tagesschau", "Nachrichten"},
	{"Wer wird Millionaer", "Quiz"},
	{"Die Hoehle der Loewen", "Show"},
	{"Terra X", "Dokumentation"},
	{"Bundesliga aktuell", "Sport"},
	{"Feuerwehrmann Sam", "Kinderprogramm"},
	{"Shopping Queen", "Show"},
	{"Rosenheim-Cops", "Krimi"},
	{"Musikvideos am Morgen", "Musik"},
}

// Build generates the world. The clock is used by tracker services for
// timestamp cookies.
func Build(cfg Config, clk clock.Clock) *World {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{
		Cfg:          cfg,
		Internet:     hostnet.New(),
		Availability: make(map[store.RunName]map[string]bool),
		clk:          clk,
	}
	w.buildTrackers(clk, rng)
	w.buildChannels(rng)
	w.buildFillerServices(rng)
	w.buildAvailability(rng)
	return w
}

func scaled(n int, scale float64) int {
	v := int(float64(n)*scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// buildChannels creates the analyzed HbbTV channels group by group and
// installs their application servers.
func (w *World) buildChannels(rng *rand.Rand) {
	sats := []dvb.Satellite{dvb.Astra1L, dvb.HotBird, dvb.Eutelsat}
	sid := uint16(1000)
	total := 0
	for gi := range groups {
		g := &groups[gi]
		count := scaled(g.Weight, w.Cfg.Scale)
		for i := 0; i < count; i++ {
			total++
			sid++
			slug := fmt.Sprintf("%s%02d", strings.ToLower(strings.ReplaceAll(g.Name, ".", "")), i+1)
			name := fmt.Sprintf("%s %d", g.Name, i+1)
			show := shows[rng.Intn(len(shows))]
			lang := pickLanguage(rng, total)
			cats := []dvb.ServiceCategory{g.Category}
			if g.Category != dvb.CategoryChildren && rng.Float64() < 0.2 {
				cats = append(cats, dvb.CategoryGeneral)
			}
			svc := &dvb.Service{
				ServiceID: sid,
				Name:      name,
				Transponder: dvb.Transponder{
					Satellite:    sats[total%3],
					FrequencyMHz: 10700 + rng.Intn(2000),
					Polarization: dvb.Polarization(1 + rng.Intn(2)),
					SymbolRate:   27500,
				},
				Language:     lang,
				Categories:   cats,
				CurrentShow:  show.title,
				CurrentGenre: show.genre,
				FlakySignal:  rng.Float64() < 0.12,
			}
			if g.Category == dvb.CategoryChildren {
				svc.CurrentShow, svc.CurrentGenre = "Feuerwehrmann Sam", "Kinderprogramm"
			}
			ch := &Channel{
				Service: svc,
				Group:   g,
				Slug:    slug,
				AppHost: slug + "." + g.FirstParty,
			}
			if g.PolicyTemplate >= 0 {
				ch.PolicyPath = "/datenschutz.html"
			}
			// One English and one bilingual policy live on music channels
			// (they appeared in the Red run of the study).
			if g.Name == "MusicNets" && i == 0 {
				ch.EnglishPolicy = true
			}
			if g.Name == "MusicNets" && i == 1 {
				ch.BilingualPolicy = true
			}
			svc.SDTSection = dvb.MustEncodeSDT(&dvb.SDT{
				TransportStreamID: uint16(1100 + gi),
				Entries: []dvb.SDTEntry{{
					ServiceID: sid,
					Type:      dvb.ServiceTypeTV,
					Provider:  g.Name,
					Name:      name,
					Running:   true,
				}},
			})
			svc.EITSection = dvb.MustEncodeEIT(&dvb.EIT{
				ServiceID: sid,
				Events: []dvb.Event{{
					EventID:  1,
					Start:    time.Date(2023, 8, 21, 8, 0, 0, 0, time.UTC),
					Duration: 18 * time.Hour,
					Title:    svc.CurrentShow,
					Genre:    svc.CurrentGenre,
					Language: "deu",
				}},
			})
			svc.AITSection = dvb.MustEncodeAIT(&dvb.AIT{
				Version: 1,
				Applications: []dvb.Application{{
					OrganizationID: uint32(100 + gi),
					ApplicationID:  uint16(i + 1),
					Control:        dvb.ControlAutostart,
					URLBase:        "http://" + ch.AppHost + "/",
					InitialPath:    "index.html",
				}},
			})
			w.Channels = append(w.Channels, ch)
			w.Universe = append(w.Universe, svc)
		}
	}
	// The single extreme-volume channel of the Red run lives in the
	// "General" category (Fig. 7's ~60k outlier data point).
	var generals []*Channel
	for _, ch := range w.Channels {
		if ch.Group.Category == dvb.CategoryGeneral && !ch.Group.Public {
			generals = append(generals, ch)
		}
	}
	if len(generals) > 0 {
		generals[rng.Intn(len(generals))].Outlier = true
	} else if len(w.Channels) > 0 {
		w.Channels[rng.Intn(len(w.Channels))].Outlier = true
	}
	// Install application servers (one site per channel).
	for _, ch := range w.Channels {
		w.installChannelSite(ch)
	}
}

func pickLanguage(rng *rand.Rand, ordinal int) string {
	// 369/396 German, 12 English, 6 multi, 3 French, 1 Italian.
	switch {
	case ordinal%33 == 7:
		return "en"
	case ordinal%66 == 13:
		return "de/fr"
	case ordinal%132 == 29:
		return "fr"
	case ordinal == 111:
		return "it"
	default:
		return "de"
	}
}

// buildFillerServices adds the non-analyzed parts of the universe: radio,
// encrypted, invisible, traffic-less TV channels, and one IPTV channel.
func (w *World) buildFillerServices(rng *rand.Rand) {
	sats := []dvb.Satellite{dvb.Astra1L, dvb.HotBird, dvb.Eutelsat}
	s := w.Cfg.Scale
	sid := uint16(20000)
	add := func(n int, f func(i int, svc *dvb.Service)) {
		for i := 0; i < n; i++ {
			sid++
			svc := &dvb.Service{
				ServiceID: sid,
				Transponder: dvb.Transponder{
					Satellite:    sats[rng.Intn(3)],
					FrequencyMHz: 10700 + rng.Intn(2000),
					Polarization: dvb.Polarization(1 + rng.Intn(2)),
					SymbolRate:   27500,
				},
				Language: "de",
			}
			f(i, svc)
			typ := byte(dvb.ServiceTypeTV)
			if svc.Radio {
				typ = dvb.ServiceTypeRadio
			}
			svc.SDTSection = dvb.MustEncodeSDT(&dvb.SDT{
				TransportStreamID: 1100,
				Entries: []dvb.SDTEntry{{
					ServiceID: sid,
					Type:      typ,
					Name:      svc.Name,
					Scrambled: svc.Encrypted,
					Running:   !svc.Invisible,
				}},
			})
			w.Universe = append(w.Universe, svc)
		}
	}
	add(scaled(paperRadio, s), func(i int, svc *dvb.Service) {
		svc.Name = fmt.Sprintf("Radio %d", i+1)
		svc.Radio = true
	})
	add(scaled(paperEncrypted, s), func(i int, svc *dvb.Service) {
		svc.Name = fmt.Sprintf("Pay TV %d", i+1)
		svc.Encrypted = true
	})
	// Invisible / empty-name services: received − radio − encrypted −
	// traffic-less − IPTV − analyzed.
	invisible := scaled(paperReceived, s) - scaled(paperRadio, s) -
		scaled(paperEncrypted, s) - scaled(paperNoTraffic, s) - paperIPTV -
		len(w.Channels)
	if invisible < 0 {
		invisible = 0
	}
	add(invisible, func(i int, svc *dvb.Service) {
		if i%5 == 0 {
			svc.Name = "" // empty-name entries are filtered too
		} else {
			svc.Name = fmt.Sprintf("Ghost %d", i+1)
		}
		svc.Invisible = true
	})
	add(scaled(paperNoTraffic, s), func(i int, svc *dvb.Service) {
		svc.Name = fmt.Sprintf("Linear Only %d", i+1)
		// Regular free-to-air TV without an AIT: no HTTP(S) traffic.
	})
	add(paperIPTV, func(i int, svc *dvb.Service) {
		svc.Name = "IPTV Relay"
		svc.IPTV = true
		svc.AITSection = dvb.MustEncodeAIT(&dvb.AIT{Applications: []dvb.Application{{
			Control: dvb.ControlAutostart,
			URLBase: "http://iptv-relay.example/", InitialPath: "stream.html",
		}}})
	})
	w.Internet.HandleFunc("iptv-relay.example", func(wr http.ResponseWriter, r *http.Request) {
		wr.Header().Set("Content-Type", "text/html")
		fmt.Fprint(wr, "<html><body>IPTV stream</body></html>")
	})
}

// buildAvailability assigns, per run, which channels are on air.
func (w *World) buildAvailability(rng *rand.Rand) {
	names := make([]string, len(w.Channels))
	for i, c := range w.Channels {
		names[i] = c.Service.Name
	}
	// Iterate runs in their fixed order: map iteration would consume the
	// shared RNG nondeterministically.
	for _, run := range store.AllRuns {
		target := runAvailability[run]
		n := scaled(target, w.Cfg.Scale)
		if n > len(names) {
			n = len(names)
		}
		perm := rng.Perm(len(names))
		avail := make(map[string]bool, n)
		for _, idx := range perm[:n] {
			avail[names[idx]] = true
		}
		// Teleshopping broadcasts around the clock: the location-ad
		// channel is on air in every run (swapped in for a sampled one
		// to keep the per-run count on target).
		if ad := w.ChannelBySlug(locationAdSlug); ad != nil && !avail[ad.Service.Name] {
			avail[names[perm[0]]] = false
			delete(avail, names[perm[0]])
			avail[ad.Service.Name] = true
		}
		w.Availability[run] = avail
	}
}
