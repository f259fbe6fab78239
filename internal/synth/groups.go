package synth

import "github.com/hbbtvlab/hbbtvlab/internal/dvb"

// OperatorGroup describes a broadcaster group: many channels sharing one
// HbbTV first-party platform, one consent-notice styling, one policy
// template, and one tracker mix. The three biggest platforms (the public
// ARD network, the private "red button" platform, and the RTL group)
// dominate the ecosystem graph, exactly as the paper's top hubs do.
type OperatorGroup struct {
	Name string
	// FirstParty is the group's HbbTV platform eTLD+1 (the AIT URLs point
	// at a host under it).
	FirstParty string
	// Weight is the group's share of the 396 analyzed channels.
	Weight int
	// Category is the dominant primary category of the group's channels.
	Category dvb.ServiceCategory
	// Public marks public broadcasters (fewer trackers, no consent
	// notices in the wild — pointers are rarer on public channels too).
	Public bool
	// NoticeStyle is the consent-notice styling (1..12; 0 = none).
	NoticeStyle int
	// PolicyTemplate indexes into the policy template set (-1 = none).
	PolicyTemplate int
	// UsesTVPing marks groups whose apps embed the dominant pixel host.
	UsesTVPing bool
	// UsesXiti marks group platforms whose loader scripts pull in the
	// xiti-style analytics (embedded BY the platform, not the channel).
	UsesXiti bool
	// FingerprintFirstParty marks groups serving fingerprint scripts from
	// their own platform host.
	FingerprintFirstParty bool
	// SyncPair enables the cookie-syncing tracker pair on this group.
	SyncPair bool
	// LeakDevice / LeakGenre control the Section V-B data leakage.
	LeakDevice bool
	LeakGenre  bool
	// ChildrenGroup marks the Super-RTL-like children's group with the
	// "5 pm to 6 am" policy statement.
	ChildrenGroup bool
	// OptOutPolicy marks the HGTV-like group with opt-out framing.
	OptOutPolicy bool
}

// groups is the calibrated operator roster. Weights sum to 396 (the
// paper's final channel set); the per-group structure reproduces the
// ecosystem shape: ard.de, redbutton.de, and rtl-hbbtv.de as top hubs,
// a tail of small platforms, and twelve consent-notice stylings.
var groups = []OperatorGroup{
	{Name: "ARD", FirstParty: "ard.de", Weight: 70, Category: dvb.CategoryRegional,
		Public: true, PolicyTemplate: 0, UsesXiti: true, LeakGenre: true},
	{Name: "RedButton", FirstParty: "redbutton.de", Weight: 60, Category: dvb.CategoryGeneral,
		NoticeStyle: 12, PolicyTemplate: 1, UsesTVPing: true, UsesXiti: true,
		LeakDevice: true, LeakGenre: true},
	{Name: "RTL", FirstParty: "rtl-hbbtv.de", Weight: 45, Category: dvb.CategoryGeneral,
		NoticeStyle: 1, PolicyTemplate: 2, UsesTVPing: true, UsesXiti: true,
		FingerprintFirstParty: true, SyncPair: true, LeakDevice: true, LeakGenre: true},
	{Name: "ProSiebenSat.1", FirstParty: "prosiebensat1-hbbtv.de", Weight: 30, Category: dvb.CategoryGeneral,
		NoticeStyle: 2, PolicyTemplate: 3, UsesTVPing: true, UsesXiti: true,
		SyncPair: true, LeakDevice: true, LeakGenre: true},
	{Name: "ZDF", FirstParty: "zdf.de", Weight: 14, Category: dvb.CategoryGeneral,
		Public: true, NoticeStyle: 10, PolicyTemplate: 4, UsesXiti: true, LeakGenre: true},
	{Name: "Discovery", FirstParty: "dmax-hbbtv.de", Weight: 16, Category: dvb.CategoryDocumentary,
		NoticeStyle: 5, PolicyTemplate: 5, UsesTVPing: true, FingerprintFirstParty: true,
		LeakDevice: true},
	{Name: "Shopping-QVC", FirstParty: "qvc-interactive.de", Weight: 18, Category: dvb.CategoryShopping,
		NoticeStyle: 4, PolicyTemplate: 6, UsesTVPing: true, LeakDevice: true},
	{Name: "Shopping-HSE", FirstParty: "hse-red.de", Weight: 14, Category: dvb.CategoryShopping,
		NoticeStyle: 6, PolicyTemplate: 6, UsesTVPing: true},
	{Name: "KidsGroup", FirstParty: "toggo-hbbtv.de", Weight: 12, Category: dvb.CategoryChildren,
		NoticeStyle: 1, PolicyTemplate: 7, UsesTVPing: true, LeakDevice: true, LeakGenre: true,
		ChildrenGroup: true},
	{Name: "MusicNets", FirstParty: "musictv-apps.eu", Weight: 14, Category: dvb.CategoryMusic,
		NoticeStyle: 12, PolicyTemplate: 8, UsesTVPing: true},
	{Name: "NewsNets", FirstParty: "newsnet-hbbtv.de", Weight: 18, Category: dvb.CategoryNews,
		NoticeStyle: 12, PolicyTemplate: 9, UsesTVPing: true, UsesXiti: true, LeakGenre: true},
	{Name: "MovieNets", FirstParty: "cineapp.tv", Weight: 16, Category: dvb.CategoryMovies,
		NoticeStyle: 3, PolicyTemplate: 10, UsesTVPing: true, FingerprintFirstParty: true,
		LeakDevice: true},
	{Name: "SportNets", FirstParty: "sportapps.tv", Weight: 15, Category: dvb.CategorySports,
		NoticeStyle: 9, PolicyTemplate: 8, UsesTVPing: true},
	{Name: "BibelTV", FirstParty: "bibeltv-hbbtv.de", Weight: 4, Category: dvb.CategoryReligious,
		NoticeStyle: 7, PolicyTemplate: 9, LeakGenre: true},
	{Name: "RTLZwei", FirstParty: "rtl2-hbbtv.de", Weight: 6, Category: dvb.CategoryGeneral,
		NoticeStyle: 8, PolicyTemplate: 2, UsesTVPing: true, LeakDevice: true},
	{Name: "HGTV", FirstParty: "hgtv-app.de", Weight: 4, Category: dvb.CategoryDocumentary,
		NoticeStyle: 11, PolicyTemplate: 11, UsesTVPing: true, OptOutPolicy: true},
	{Name: "KroneTV", FirstParty: "krone-hbbtv.at", Weight: 4, Category: dvb.CategoryNews,
		NoticeStyle: 12, PolicyTemplate: 12, UsesTVPing: true, LeakGenre: true},
	{Name: "Regionals", FirstParty: "regio-hbbtv.de", Weight: 20, Category: dvb.CategoryRegional,
		PolicyTemplate: 13, LeakGenre: true},
	{Name: "SachsenEins", FirstParty: "sachsen1.tv", Weight: 2, Category: dvb.CategoryRegional,
		PolicyTemplate: 14},
	{Name: "IndependentShops", FirstParty: "teleshop-apps.de", Weight: 14, Category: dvb.CategoryShopping,
		NoticeStyle: 4, PolicyTemplate: 6, UsesTVPing: true},
}
