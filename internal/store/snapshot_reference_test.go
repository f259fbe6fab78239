package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/url"

	"github.com/hbbtvlab/hbbtvlab/internal/intern"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

// This file holds the serial snapshot writer: one pass over every run's
// metadata and flows, interning each string, body and header block into
// the global tables as it goes. It is the reference the chunked writer
// (encodeRuns) must reproduce byte for byte, at every GOMAXPROCS and in
// the sequence of writes its destination sees.

// writeContainerSerial is the reference for writeContainer. It emits magic
// and version, the lead sections, the string, blob and header tables, one
// run section per run, the trailing sections, and the end marker.
func writeContainerSerial(w io.Writer, lead []jsonSection, runs []*RunData, trail []jsonSection) error {
	tab := intern.NewStrings(1024)
	tab.Intern("") // ID 0 is the empty string
	blobs := newBlobTable()
	scratch := flowSnapScratch{reqTab: newHeaderTable(false), respTab: newHeaderTable(true)}
	// The run sections fill the tables, which precede them in the file, so
	// they are encoded into memory first.
	runSecs := make([][]byte, 0, len(runs))
	for _, run := range runs {
		sec, err := encodeRunSnapshot(run, tab, blobs, &scratch)
		if err != nil {
			return err
		}
		runSecs = append(runSecs, sec)
	}

	// A bufio.Writer keeps its first write error and returns it from every
	// later call, so only the marshals and the final Flush are checked.
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(snapshotMagic)
	bw.WriteByte(snapshotVer)
	if err := writeJSONSections(bw, lead); err != nil {
		return err
	}
	var sw snapWriter
	writeTable(bw, &sw, secStrings, tab.All())
	writeTable(bw, &sw, secBlobs, blobs.blobs)
	writeTable(bw, &sw, secReqHdrs, scratch.reqTab.blocks)
	writeTable(bw, &sw, secRespHdrs, scratch.respTab.blocks)
	for _, sec := range runSecs {
		writeSection(bw, secRun, sec)
	}
	if err := writeJSONSections(bw, trail); err != nil {
		return err
	}
	// The end marker makes truncation at a section boundary detectable —
	// without it a file cut between sections loads "cleanly" with runs
	// silently missing.
	writeSection(bw, secEnd, nil)
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	return nil
}

// encodeRunSnapshot encodes one run section: binary metadata over the
// string table, then the binary flow records.
func encodeRunSnapshot(run *RunData, tab *intern.Strings, blobs *blobTable, scratch *flowSnapScratch) ([]byte, error) {
	var w snapWriter
	w.str(tab, string(run.Name))
	w.time(run.Date)
	// Channels passes through nil-vs-empty verbatim in the JSON format, so
	// the count is shifted by one to keep the distinction: 0 = nil.
	if run.Channels == nil {
		w.uvarint(0)
	} else {
		w.uvarint(uint64(len(run.Channels)) + 1)
		for i := range run.Channels {
			c := &run.Channels[i]
			w.str(tab, c.Name)
			w.str(tab, c.ID)
			w.str(tab, c.Satellite)
			w.str(tab, c.Language)
			w.uvarint(uint64(len(c.Categories)))
			for _, cat := range c.Categories {
				w.str(tab, string(cat))
			}
			w.str(tab, c.Show)
			w.str(tab, c.Genre)
		}
	}
	w.uvarint(uint64(len(run.Cookies)))
	for i := range run.Cookies {
		c := &run.Cookies[i]
		w.str(tab, c.Name)
		w.str(tab, c.Value)
		w.str(tab, c.Domain)
		w.str(tab, c.Path)
		w.time(c.Expires)
		w.time(c.Created)
		if c.HostOnly {
			w.byte(1)
		} else {
			w.byte(0)
		}
		w.str(tab, c.SetBy)
	}
	w.uvarint(uint64(len(run.Storage)))
	for i := range run.Storage {
		s := &run.Storage[i]
		w.str(tab, s.Origin)
		w.str(tab, s.Key)
		w.str(tab, s.Value)
	}
	w.uvarint(uint64(len(run.Screenshots)))
	for i := range run.Screenshots {
		s := &run.Screenshots[i]
		w.time(s.Time)
		w.str(tab, s.Channel)
		w.str(tab, s.ChannelID)
		if s.HasSignal {
			w.byte(1)
		} else {
			w.byte(0)
		}
		w.str(tab, s.Show)
		if s.Overlay == nil {
			w.uvarint(0)
		} else {
			// Overlays repeat from a small set of consent/app specs, so
			// their JSON form interns well — and the loader parses each
			// distinct overlay once.
			raw, err := json.Marshal(s.Overlay)
			if err != nil {
				return nil, fmt.Errorf("store: snapshot: marshal overlay: %w", err)
			}
			w.uvarint(uint64(tab.InternBytes(raw)) + 1)
		}
	}
	w.uvarint(uint64(len(run.Logs)))
	for i := range run.Logs {
		l := &run.Logs[i]
		w.time(l.Time)
		w.str(tab, string(l.Kind))
		w.str(tab, l.Detail)
	}
	w.uvarint(uint64(len(run.Outcomes)))
	for i := range run.Outcomes {
		o := &run.Outcomes[i]
		w.str(tab, o.Channel)
		w.str(tab, string(o.Status))
		w.varint(int64(o.Attempts))
		w.str(tab, o.Error)
	}
	w.varint(int64(run.RecoveredPanics))
	w.uvarint(uint64(len(run.Flows)))
	var cw snapWriter
	for lo := 0; lo < len(run.Flows); lo += snapFlowChunk {
		hi := min(lo+snapFlowChunk, len(run.Flows))
		cw.buf = cw.buf[:0]
		for _, f := range run.Flows[lo:hi] {
			encodeFlowSnapshot(&cw, f, tab, blobs, scratch)
		}
		w.bytes(cw.buf)
	}
	return w.buf, nil
}

func encodeFlowSnapshot(w *snapWriter, f *proxy.Flow, tab *intern.Strings, blobs *blobTable, scratch *flowSnapScratch) {
	// The URL is stored decomposed when reassembling its four components
	// is provably identical to re-parsing its string form, so the loader
	// can skip url.Parse. plainURL settles that without the round trip for
	// nearly every recorded flow.
	fast := url.URL{Scheme: f.URL.Scheme, Host: f.URL.Host, Path: f.URL.Path, RawQuery: f.URL.RawQuery}
	fastOK := *f.URL == fast && plainURL(&fast)
	var urlStr string
	if !fastOK {
		urlStr = f.URL.String()
		reparsed, err := url.Parse(urlStr)
		fastOK = err == nil && *reparsed == fast
	}

	var flags byte
	if f.HTTPS {
		flags |= flowFlagHTTPS
	}
	if fastOK {
		flags |= flowFlagFastURL
	}
	if !f.Time.IsZero() {
		flags |= flowFlagHasTime
		if !fitsUnixNano(f.Time) {
			flags |= flowFlagWideTime
		}
	}
	w.byte(flags)
	w.varint(f.ID)
	switch {
	case flags&flowFlagWideTime != 0:
		w.wideTime(f.Time)
	case flags&flowFlagHasTime != 0:
		w.varint(f.Time.UnixNano())
	}
	w.uvarint(uint64(tab.Intern(f.Method)))
	if fastOK {
		w.uvarint(uint64(tab.Intern(f.URL.Scheme)))
		w.uvarint(uint64(tab.Intern(f.URL.Host)))
		w.uvarint(uint64(tab.Intern(f.URL.Path)))
		w.uvarint(uint64(tab.Intern(f.URL.RawQuery)))
	} else {
		w.uvarint(uint64(tab.Intern(urlStr)))
	}
	w.uvarint(scratch.reqTab.ref(f.RequestHeaders, tab, scratch))
	w.uvarint(blobs.ref(f.RequestBody))
	w.varint(int64(f.StatusCode))
	w.uvarint(scratch.respTab.ref(f.ResponseHeaders, tab, scratch))
	w.varint(f.ResponseSize)
	w.uvarint(blobs.ref(f.ResponseBody))
	w.uvarint(uint64(tab.Intern(f.Channel)))
	w.uvarint(uint64(tab.Intern(f.ChannelID)))
}
