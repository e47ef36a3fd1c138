package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"coldboot/internal/obs"
)

// span is one timed call in the traced pass: the layer it belongs to, when
// it ran (obs.Now nanoseconds, the clock the program's own spans use), and
// the span that caused it (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced pass's spans in memory. A nil *tracer is the
// untraced pass: every method is a no-op.
type tracer struct {
	// col is handed to the program through core.Config.Tracer,
	// service.Config.Tracer and fleet.Worker.Tracer; its spans, counters
	// and histograms are read back after the pass.
	col *obs.Collector

	mu    sync.Mutex
	next  uint64
	spans []span
	calls []httpCall
}

func newTracer() *tracer { return &tracer{col: obs.NewCollector()} }

// obsTracer is the tracer handed to the program (nil when untraced).
func (t *tracer) obsTracer() obs.Tracer {
	if t == nil {
		return nil
	}
	return t.col
}

// begin opens a span; the returned func closes it. Untraced, it is free.
func (t *tracer) begin(parent uint64, layer, name string) (uint64, func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	start := obs.Now()
	return id, func() { t.record(span{ID: id, Parent: parent, Layer: layer, Name: name, Start: start, End: obs.Now()}) }
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanKey carries the enclosing span ID through a request context so HTTP
// calls nest under the op that made them.
type spanKey struct{}

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// layerOf maps one of the program's own span names (recorded by the
// Collector) onto the benchmark's layer names.
func layerOf(name string) string {
	switch name {
	case "mine", "campaign.mine":
		return "core.mine"
	case "directory", "hunt":
		return "core.hunt"
	case "assemble", "campaign.merge", "fleet.merge":
		return "core.assemble"
	case "attack", "campaign", "shard":
		return "core"
	case "job":
		return "service"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// importCollector copies the program's spans into the benchmark's tree.
// Their IDs are offset past the benchmark's own; a program root span is
// parented to the innermost benchmark span that encloses it in time on a
// sequential workload, so the attack nests under the call that ran it.
func (t *tracer) importCollector(sequential bool) {
	recs := t.col.Spans()
	t.mu.Lock()
	defer t.mu.Unlock()
	offset := t.next
	var maxID uint64
	own := append([]span(nil), t.spans...)
	sort.Slice(own, func(i, j int) bool { return own[i].Start < own[j].Start })
	for _, r := range recs {
		s := span{
			ID:    offset + r.ID,
			Layer: layerOf(r.Name),
			Name:  r.Name,
			Start: r.StartNs,
			End:   r.StartNs + r.DurNs,
		}
		if r.Parent != 0 {
			s.Parent = offset + r.Parent
		} else if sequential {
			s.Parent = enclosing(own, s.Start, s.End)
		}
		if s.ID > maxID {
			maxID = s.ID
		}
		t.spans = append(t.spans, s)
	}
	if maxID > t.next {
		t.next = maxID
	}
}

// enclosing returns the shortest span in own (sorted by start) that
// contains [start, end], or 0.
func enclosing(own []span, start, end int64) uint64 {
	var best uint64
	bestDur := int64(-1)
	for _, s := range own {
		if s.Start > start {
			break
		}
		if s.End >= end && (bestDur < 0 || s.End-s.Start < bestDur) {
			best, bestDur = s.ID, s.End-s.Start
		}
	}
	return best
}

// layerTime is one layer's row in the per-layer JSON.
type layerTime struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	WallMs float64 `json:"wall_ms"`
	// SelfMs is wall time minus the part covered by child spans.
	SelfMs float64 `json:"self_ms"`
}

// layerTimes aggregates wall and self time per layer over the span tree.
func (t *tracer) layerTimes() []layerTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerTime)
	for _, s := range spans {
		r := rows[s.Layer]
		if r == nil {
			r = &layerTime{Layer: s.Layer}
			rows[s.Layer] = r
		}
		wall := s.End - s.Start
		r.Spans++
		r.WallMs += float64(wall) / 1e6
		r.SelfMs += float64(wall-covered(children[s.ID], s.Start, s.End)) / 1e6
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered is the length of the union of the children's intervals clipped
// to [start, end].
func covered(kids []span, start, end int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// writeChrome writes the span tree as Chrome Trace Event JSON (loads in
// Perfetto): one "X" event per span, the layer as its category, and one
// track per root span.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	parent := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	root := func(id uint64) uint64 {
		for i := 0; i < 64 && parent[id] != 0; i++ {
			id = parent[id]
		}
		return id
	}
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  uint64            `json:"tid"`
		Args map[string]string `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: root(s.ID),
			Args: map[string]string{"layer": s.Layer},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// httpCall is one HTTP exchange seen by the timing transport.
type httpCall struct {
	Route     string
	Status    int
	Start     int64
	End       int64
	ReqBytes  int64
	RespBytes int64
}

func (c httpCall) ms() float64 { return float64(c.End-c.Start) / 1e6 }

// route names an API call by its layer and endpoint.
func route(method, path string) string {
	switch {
	case path == "/v1/jobs" && method == http.MethodPost:
		return "service.submit"
	case strings.HasSuffix(path, "/events"):
		return "service.events"
	case strings.HasSuffix(path, "/result"):
		return "service.result"
	case strings.HasPrefix(path, "/v1/jobs"):
		return "service.status"
	case path == "/v1/shards/lease":
		return "fleet.lease"
	case path == "/v1/shards/plan":
		return "fleet.plan"
	case path == "/v1/shards/data":
		return "fleet.data"
	case path == "/v1/shards/complete":
		return "fleet.complete"
	case path == "/v1/shards/heartbeat":
		return "fleet.heartbeat"
	case path == "/v1/telemetry":
		return "fleet.telemetry"
	}
	return "http"
}

// transport times every round trip through it, up to the response body's
// Close, so a call's time includes the transfer of its body.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tr *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := route(req.Method, req.URL.Path)
	layer, _, _ := strings.Cut(name, ".")
	_, end := tr.t.begin(spanFrom(req.Context()), layer, name)
	call := httpCall{Route: name, Start: obs.Now(), ReqBytes: req.ContentLength}
	resp, err := tr.base.RoundTrip(req)
	if err != nil {
		call.End = obs.Now()
		end()
		tr.t.addCall(call)
		return nil, err
	}
	call.Status = resp.StatusCode
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) {
		call.End = obs.Now()
		call.RespBytes = n
		end()
		tr.t.addCall(call)
	}}
	return resp, nil
}

func (t *tracer) addCall(c httpCall) {
	t.mu.Lock()
	t.calls = append(t.calls, c)
	t.mu.Unlock()
}

// timedBody reports the bytes read when the body is closed.
type timedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// middleware records the server side of every API call as a span on the
// server's own track.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := route(r.Method, r.URL.Path)
		layer, _, _ := strings.Cut(name, ".")
		_, end := t.begin(0, layer, "server "+name)
		next.ServeHTTP(w, r)
		end()
	})
}

// callsOf returns the recorded calls of one route.
func (t *tracer) callsOf(name string) []httpCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []httpCall
	for _, c := range t.calls {
		if c.Route == name {
			out = append(out, c)
		}
	}
	return out
}

// newClient returns an HTTP client with its own connection pool, timed
// through t when tracing.
func newClient(t *tracer) *http.Client {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConnsPerHost = 8
	var rt http.RoundTripper = base
	if t != nil {
		rt = &transport{t: t, base: base}
	}
	return &http.Client{Transport: rt, Timeout: 2 * time.Minute}
}
