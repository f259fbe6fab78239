// Package store is the study's data sink (its BigQuery substitute): it
// holds, per measurement run, the recorded flows, the TV's cookie jar and
// localStorage dumps, the screenshots, the interaction logs, and the
// channel metadata — and offers the query helpers the analyses are built
// on.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
	"github.com/hbbtvlab/hbbtvlab/internal/webos"
)

// RunName identifies one of the five measurement runs.
type RunName string

// The five measurement runs of the study.
const (
	RunGeneral RunName = "General"
	RunRed     RunName = "Red"
	RunGreen   RunName = "Green"
	RunBlue    RunName = "Blue"
	RunYellow  RunName = "Yellow"
)

// AllRuns lists the runs in the paper's table order.
var AllRuns = []RunName{RunGeneral, RunRed, RunGreen, RunBlue, RunYellow}

// ChannelInfo is the per-channel metadata recorded with each run.
type ChannelInfo struct {
	Name       string
	ID         string
	Satellite  string
	Language   string
	Categories []dvb.ServiceCategory
	// Show and Genre record the program aired during the measurement —
	// the behavioral data the leakage analysis searches for in traffic.
	Show  string
	Genre string
}

// PrimaryCategory mirrors dvb.Service.PrimaryCategory.
func (c *ChannelInfo) PrimaryCategory() dvb.ServiceCategory {
	if len(c.Categories) == 0 {
		return ""
	}
	return c.Categories[0]
}

// TargetsChildren reports whether the satellite operator's metadata marks
// this channel as exclusively targeting children.
func (c *ChannelInfo) TargetsChildren() bool {
	return len(c.Categories) == 1 && c.Categories[0] == dvb.CategoryChildren
}

// OutcomeStatus classifies how one channel's visit ended within a run.
type OutcomeStatus string

// The channel outcome states. A channel with no outcome record predates
// outcome tracking (older datasets) and should be treated as ok.
const (
	// OutcomeOK: the visit completed (possibly after retries).
	OutcomeOK OutcomeStatus = "ok"
	// OutcomeSkipped: the channel was never attempted — off-air during
	// the run, or the run was cancelled before reaching it.
	OutcomeSkipped OutcomeStatus = "skipped"
	// OutcomeFailed: every attempt failed; the channel contributed no
	// measurement data to this run.
	OutcomeFailed OutcomeStatus = "failed"
	// OutcomeQuarantined: the channel was benched after failing in too
	// many consecutive runs and was not attempted.
	OutcomeQuarantined OutcomeStatus = "quarantined"
)

// ChannelOutcome is the structured per-channel visit record a resilient
// campaign keeps instead of aborting: which channels made it into the run,
// which were retried, and why the rest are missing.
type ChannelOutcome struct {
	Channel string
	Status  OutcomeStatus
	// Attempts counts visit attempts (0 for skipped/quarantined channels).
	Attempts int
	// Error is the final attempt's error for failed channels, or a short
	// reason for skipped/quarantined ones.
	Error string
}

// RunData is everything collected during one measurement run.
type RunData struct {
	Name        RunName
	Date        time.Time
	Channels    []ChannelInfo
	Flows       []*proxy.Flow
	Cookies     []webos.StoredCookie
	Storage     []webos.StorageItem
	Screenshots []webos.Screenshot
	Logs        []webos.LogEntry
	// Outcomes records one entry per channel the run considered, in the
	// study's canonical channel order. Empty for datasets predating
	// outcome tracking.
	Outcomes []ChannelOutcome
	// RecoveredPanics counts channels whose application panicked during
	// the run and was recovered by the measurement framework (the panic
	// details are in Logs as error entries).
	RecoveredPanics int
}

// Channel returns the metadata for the named channel, or nil.
func (r *RunData) Channel(name string) *ChannelInfo {
	for i := range r.Channels {
		if r.Channels[i].Name == name {
			return &r.Channels[i]
		}
	}
	return nil
}

// CountHTTPS returns (plain, https) request counts.
func (r *RunData) CountHTTPS() (plain, https int) {
	for _, f := range r.Flows {
		if f.HTTPS {
			https++
		} else {
			plain++
		}
	}
	return plain, https
}

// HTTPSShare returns the fraction of requests that were HTTPS.
func (r *RunData) HTTPSShare() float64 {
	plain, https := r.CountHTTPS()
	total := plain + https
	if total == 0 {
		return 0
	}
	return float64(https) / float64(total)
}

// Dataset is the complete study data set across all runs.
type Dataset struct {
	Runs []*RunData
	// Telemetry is the final telemetry snapshot of the measurement engine
	// that produced this dataset (nil when telemetry was disabled). It is
	// persisted by Save/Load next to the run data but deliberately
	// excluded from Digest: the digest fingerprints the measurement data
	// itself, so enabling observability can never change it.
	Telemetry *telemetry.Snapshot
	// Shard is the self-describing shard manifest of a fleet-campaign
	// shard dataset (nil for complete datasets). Like Telemetry it is
	// persisted by Save/Load but excluded from Digest: the digest of a
	// merged dataset must equal the single-process run's, and the
	// partition a shard came from is topology, not measurement data.
	Shard *ShardManifest
	// Trace is the engine's completed span trace (nil when tracing was
	// disabled). Like Telemetry it is persisted by Save/Load but excluded
	// from Digest: spans describe where the virtual time of the
	// measurement went, not the measurement itself.
	Trace *telemetry.Trace
}

// Run returns the named run, or nil.
func (d *Dataset) Run(name RunName) *RunData {
	for _, r := range d.Runs {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// ChannelNames returns the union of channel names across all runs.
func (d *Dataset) ChannelNames() []string {
	seen := make(map[string]struct{})
	var out []string
	for _, r := range d.Runs {
		for _, c := range r.Channels {
			if _, ok := seen[c.Name]; !ok {
				seen[c.Name] = struct{}{}
				out = append(out, c.Name)
			}
		}
	}
	return out
}

// ChannelInfo returns the first run's metadata for the named channel.
func (d *Dataset) ChannelInfo(name string) *ChannelInfo {
	for _, r := range d.Runs {
		if c := r.Channel(name); c != nil {
			return c
		}
	}
	return nil
}

// flowRecord is the flattened NDJSON export schema.
type flowRecord struct {
	Run       RunName   `json:"run"`
	Time      time.Time `json:"time"`
	Method    string    `json:"method"`
	URL       string    `json:"url"`
	HTTPS     bool      `json:"https"`
	Status    int       `json:"status"`
	Size      int64     `json:"size"`
	Type      string    `json:"contentType"`
	Referer   string    `json:"referer,omitempty"`
	Channel   string    `json:"channel,omitempty"`
	ChannelID string    `json:"channelId,omitempty"`
}

// ExportFlows writes all flows as NDJSON — the "push to BigQuery" step.
func (d *Dataset) ExportFlows(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range d.Runs {
		for _, f := range r.Flows {
			rec := flowRecord{
				Run:       r.Name,
				Time:      f.Time,
				Method:    f.Method,
				URL:       f.URL.String(),
				HTTPS:     f.HTTPS,
				Status:    f.StatusCode,
				Size:      f.ResponseSize,
				Type:      f.ContentType(),
				Referer:   f.Referer(),
				Channel:   f.Channel,
				ChannelID: f.ChannelID,
			}
			if err := enc.Encode(&rec); err != nil {
				return fmt.Errorf("store: export flow: %w", err)
			}
		}
	}
	return bw.Flush()
}

// Summary is a compact per-run description for reports and logs.
type Summary struct {
	Run             RunName `json:"run"`
	Channels        int     `json:"channels"`
	HTTPRequests    int     `json:"httpRequests"`
	HTTPSShare      float64 `json:"httpsShare"`
	Cookies         int     `json:"cookies"`
	Storage         int     `json:"localStorage"`
	Screenshots     int     `json:"screenshots"`
	LogEntries      int     `json:"logEntries"`
	RecoveredPanics int     `json:"recoveredPanics,omitempty"`
	// Resilience tallies, from the run's per-channel outcome records.
	FailedChannels      int `json:"failedChannels,omitempty"`
	SkippedChannels     int `json:"skippedChannels,omitempty"`
	QuarantinedChannels int `json:"quarantinedChannels,omitempty"`
	// RetriedChannels counts channels that needed more than one attempt.
	RetriedChannels int `json:"retriedChannels,omitempty"`
}

// Summaries returns a per-run overview.
func (d *Dataset) Summaries() []Summary {
	out := make([]Summary, 0, len(d.Runs))
	for _, r := range d.Runs {
		s := Summary{
			Run:             r.Name,
			Channels:        len(r.Channels),
			HTTPRequests:    len(r.Flows),
			HTTPSShare:      r.HTTPSShare(),
			Cookies:         len(r.Cookies),
			Storage:         len(r.Storage),
			Screenshots:     len(r.Screenshots),
			LogEntries:      len(r.Logs),
			RecoveredPanics: r.RecoveredPanics,
		}
		for _, o := range r.Outcomes {
			switch o.Status {
			case OutcomeFailed:
				s.FailedChannels++
			case OutcomeSkipped:
				s.SkippedChannels++
			case OutcomeQuarantined:
				s.QuarantinedChannels++
			}
			if o.Attempts > 1 {
				s.RetriedChannels++
			}
		}
		out = append(out, s)
	}
	return out
}
