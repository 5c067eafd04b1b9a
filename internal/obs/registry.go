package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Registry is a named set of metric gauges sampled over a run. Each
// metric is a closure over live simulator state (event-queue depth,
// pool hit rate, directory occupancy, ...); Sample evaluates every
// metric at one simulated cycle and appends a row. The registry is
// single-goroutine like the machine it observes.
type Registry struct {
	metrics []metric
	samples []MetricSample
}

type metric struct {
	name string
	help string
	fn   func() float64
}

// MetricSample is one sampling tick: the values of every registered
// metric, in registration order, at one cycle.
type MetricSample struct {
	Cycle  uint64    `json:"cycle"`
	Values []float64 `json:"values"`
}

// Register adds a named gauge. Registration order is the column order
// of every sample; registering after the first Sample panics (the
// rows would no longer line up).
func (r *Registry) Register(name, help string, fn func() float64) {
	if len(r.samples) > 0 {
		panic(fmt.Sprintf("obs: metric %q registered after sampling started", name))
	}
	for _, m := range r.metrics {
		if m.name == name {
			panic(fmt.Sprintf("obs: duplicate metric %q", name))
		}
	}
	r.metrics = append(r.metrics, metric{name: name, help: help, fn: fn})
}

// Names lists the registered metrics in column order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = m.name
	}
	return out
}

// Descs lists the registered metric descriptors in column order.
func (r *Registry) Descs() []MetricDesc {
	out := make([]MetricDesc, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = MetricDesc{Name: m.name, Help: m.help}
	}
	return out
}

// Eval evaluates every metric without recording a sample row — the
// live-endpoint path, where the consumer keeps its own history.
func (r *Registry) Eval() []float64 {
	out := make([]float64, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = m.fn()
	}
	return out
}

// Sample evaluates every metric at the given cycle and appends a row.
func (r *Registry) Sample(cycle uint64) {
	r.samples = append(r.samples, MetricSample{Cycle: cycle, Values: r.Eval()})
}

// Samples returns the collected rows in time order.
func (r *Registry) Samples() []MetricSample { return r.samples }

// MetricsDoc is the metrics.json schema: metric descriptors, the
// sampled time series, and a final evaluation of every metric at dump
// time (so a run with sampling disabled still reports end-state).
type MetricsDoc struct {
	Metrics []MetricDesc       `json:"metrics"`
	Samples []MetricSample     `json:"samples"`
	Final   map[string]float64 `json:"final"`
}

// MetricDesc describes one registered metric.
type MetricDesc struct {
	Name string `json:"name"`
	Help string `json:"help"`
}

// Doc evaluates the final values and assembles the dump document.
func (r *Registry) Doc() *MetricsDoc {
	doc := &MetricsDoc{
		Metrics: r.Descs(),
		Samples: r.samples,
		Final:   make(map[string]float64, len(r.metrics)),
	}
	if doc.Samples == nil {
		doc.Samples = []MetricSample{}
	}
	for _, m := range r.metrics {
		doc.Final[m.name] = m.fn()
	}
	return doc
}

// WriteJSON dumps the registry as indented metrics.json.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.Doc())
}
