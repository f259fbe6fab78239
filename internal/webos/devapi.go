package webos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
)

// DevAPI exposes the TV over a Luna-bus-style JSON/HTTP control interface
// on loopback — the study drove its LG TV through the webOS Developer API
// with a Python remote-control script (PyWebOSTV). DevAPI is that surface:
// power, channel switching, key injection, watching, screenshots, channel
// metadata, and logs. The TV is not safe for concurrent use, so the API
// serializes all commands.
type DevAPI struct {
	mu      sync.Mutex
	tv      *TV
	bouquet *dvb.Bouquet
	ln      net.Listener
	srv     *http.Server
}

// ServeDevAPI starts the control server for tv. The bouquet resolves
// channel names for switch requests. Callers must Close the API.
func ServeDevAPI(tv *TV, bouquet *dvb.Bouquet) (*DevAPI, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("webos: devapi listen: %w", err)
	}
	a := &DevAPI{tv: tv, bouquet: bouquet, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/power", a.handlePower)
	mux.HandleFunc("/api/switch", a.handleSwitch)
	mux.HandleFunc("/api/press", a.handlePress)
	mux.HandleFunc("/api/watch", a.handleWatch)
	mux.HandleFunc("/api/screenshot", a.handleScreenshot)
	mux.HandleFunc("/api/channels", a.handleChannels)
	mux.HandleFunc("/api/logs", a.handleLogs)
	mux.HandleFunc("/api/state", a.handleState)
	a.srv = &http.Server{Handler: mux}
	go func() { _ = a.srv.Serve(ln) }()
	return a, nil
}

// Addr returns the API's listen address.
func (a *DevAPI) Addr() string { return a.ln.Addr().String() }

// Close shuts the API down.
func (a *DevAPI) Close() error { return a.srv.Close() }

func (a *DevAPI) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (a *DevAPI) fail(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func decodeBody(r *http.Request, v any) error {
	defer r.Body.Close()
	return json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(v)
}

func (a *DevAPI) handlePower(w http.ResponseWriter, r *http.Request) {
	var req struct {
		On bool `json:"on"`
	}
	if err := decodeBody(r, &req); err != nil {
		a.fail(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if req.On {
		a.tv.PowerOn()
	} else {
		a.tv.PowerOff()
	}
	a.writeJSON(w, map[string]bool{"powered": req.On})
}

func (a *DevAPI) handleSwitch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Channel string `json:"channel"`
	}
	if err := decodeBody(r, &req); err != nil {
		a.fail(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	svc := a.bouquet.ByName(req.Channel)
	if svc == nil {
		a.fail(w, http.StatusNotFound, "unknown channel %q", req.Channel)
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.tv.TuneTo(svc); err != nil {
		a.fail(w, http.StatusConflict, "tune: %v", err)
		return
	}
	a.writeJSON(w, map[string]any{
		"channel":   svc.Name,
		"serviceId": svc.ServiceID,
		"hasApp":    a.tv.HasApp(),
	})
}

func (a *DevAPI) handlePress(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Key string `json:"key"`
	}
	if err := decodeBody(r, &req); err != nil {
		a.fail(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tv.Press(appmodel.Key(req.Key))
	a.writeJSON(w, map[string]string{"pressed": req.Key})
}

func (a *DevAPI) handleWatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Seconds int `json:"seconds"`
	}
	if err := decodeBody(r, &req); err != nil {
		a.fail(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	if req.Seconds <= 0 || req.Seconds > 86400 {
		a.fail(w, http.StatusBadRequest, "seconds out of range")
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tv.Watch(time.Duration(req.Seconds) * time.Second)
	a.writeJSON(w, map[string]int{"watched": req.Seconds})
}

func (a *DevAPI) handleScreenshot(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	shot := a.tv.Screenshot()
	a.mu.Unlock()
	a.writeJSON(w, shot)
}

func (a *DevAPI) handleChannels(w http.ResponseWriter, r *http.Request) {
	type chMeta struct {
		Name      string `json:"channelName"`
		ServiceID uint16 `json:"serviceId"`
		Radio     bool   `json:"radio"`
		Encrypted bool   `json:"scrambled"`
		Invisible bool   `json:"invisible"`
		Satellite string `json:"satellite"`
		HasAIT    bool   `json:"hbbtv"`
	}
	out := make([]chMeta, 0, len(a.bouquet.Services))
	for _, s := range a.bouquet.Services {
		out = append(out, chMeta{
			Name: s.Name, ServiceID: s.ServiceID,
			Radio: s.Radio, Encrypted: s.Encrypted, Invisible: s.Invisible,
			Satellite: s.Transponder.Satellite.Name,
			HasAIT:    s.HasAIT(),
		})
	}
	a.writeJSON(w, out)
}

func (a *DevAPI) handleLogs(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	logs := a.tv.Logs()
	a.mu.Unlock()
	a.writeJSON(w, logs)
}

func (a *DevAPI) handleState(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	defer a.mu.Unlock()
	state := map[string]any{
		"sessionId": a.tv.SessionID(),
		"userId":    a.tv.UserID(),
		"hasApp":    a.tv.HasApp(),
	}
	if cur := a.tv.Current(); cur != nil {
		state["channel"] = cur.Name
		state["serviceId"] = cur.ServiceID
	}
	a.writeJSON(w, state)
}

// DevClient is the remote-control client (the PyWebOSTV role): it drives a
// TV through its DevAPI endpoint. The API answers every command itself — no
// redirects, no cookies — so the client hands each request straight to a
// transport, under a deadline.
type DevClient struct {
	base string
	rt   http.RoundTripper
}

// devTimeout bounds one remote-control command.
const devTimeout = 10 * time.Second

// NewDevClient returns a client for the API at addr ("127.0.0.1:port").
func NewDevClient(addr string) *DevClient {
	return &DevClient{base: "http://" + addr, rt: http.DefaultTransport}
}

func (c *DevClient) post(path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.call(http.MethodPost, path, raw, out)
}

func (c *DevClient) get(path string, out any) error {
	return c.call(http.MethodGet, path, nil, out)
}

// call sends one command, with body as its JSON payload when non-nil, and
// decodes a 2xx answer into out when out is non-nil.
func (c *DevClient) call(method, path string, body []byte, out any) error {
	ctx, cancel := context.WithTimeout(context.TODO(), devTimeout)
	defer cancel()
	var payload io.Reader
	if body != nil {
		payload = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, payload)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.rt.RoundTrip(req)
	if err != nil {
		return fmt.Errorf("devapi %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("devapi %s: %s (%d)", path, e.Error, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// PowerOn turns the TV on.
func (c *DevClient) PowerOn() error {
	return c.post("/api/power", map[string]bool{"on": true}, nil)
}

// PowerOff turns the TV off.
func (c *DevClient) PowerOff() error {
	return c.post("/api/power", map[string]bool{"on": false}, nil)
}

// Switch tunes the TV to the named channel.
func (c *DevClient) Switch(channel string) error {
	return c.post("/api/switch", map[string]string{"channel": channel}, nil)
}

// Press injects a remote key.
func (c *DevClient) Press(key appmodel.Key) error {
	return c.post("/api/press", map[string]string{"key": string(key)}, nil)
}

// Watch lets the TV watch for the given number of seconds.
func (c *DevClient) Watch(seconds int) error {
	return c.post("/api/watch", map[string]int{"seconds": seconds}, nil)
}

// Screenshot fetches the current screen state.
func (c *DevClient) Screenshot() (Screenshot, error) {
	var s Screenshot
	err := c.get("/api/screenshot", &s)
	return s, err
}

// ChannelMeta is the channel-list metadata the API exposes.
type ChannelMeta struct {
	Name      string `json:"channelName"`
	ServiceID uint16 `json:"serviceId"`
	Radio     bool   `json:"radio"`
	Encrypted bool   `json:"scrambled"`
	Invisible bool   `json:"invisible"`
	Satellite string `json:"satellite"`
	HasAIT    bool   `json:"hbbtv"`
}

// Channels lists the TV's channel metadata.
func (c *DevClient) Channels() ([]ChannelMeta, error) {
	var out []ChannelMeta
	err := c.get("/api/channels", &out)
	return out, err
}

// Logs fetches the TV's interaction log.
func (c *DevClient) Logs() ([]LogEntry, error) {
	var out []LogEntry
	err := c.get("/api/logs", &out)
	return out, err
}

// State describes the TV's current status.
type State struct {
	SessionID string `json:"sessionId"`
	UserID    string `json:"userId"`
	HasApp    bool   `json:"hasApp"`
	Channel   string `json:"channel"`
	ServiceID uint16 `json:"serviceId"`
}

// State fetches the TV's current status.
func (c *DevClient) State() (State, error) {
	var s State
	err := c.get("/api/state", &s)
	return s, err
}
