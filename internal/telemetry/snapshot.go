package telemetry

import "sort"

// CounterValue is one counter series in a Snapshot.
type CounterValue struct {
	Name  string
	Value int64
}

// GaugeValue is one gauge series in a Snapshot.
type GaugeValue struct {
	Name  string
	Value float64
}

// HistogramValue is one histogram series in a Snapshot. Counts has
// len(Bounds)+1 entries; the last is the +Inf overflow bucket.
type HistogramValue struct {
	Name   string
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Snapshot is a point-in-time read of every registered series, sorted
// by name so consumers (console JSON, golden tests) see a stable order
// without scraping the Prometheus text endpoint. The zero Snapshot is
// valid and empty.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// Snapshot reads the current value of every registered metric. Values
// are loaded atomically per series; the registry lock only guards the
// series maps, so a snapshot taken mid-round is internally consistent
// per series but not across them — fine for dashboards, by design.
// The nil registry returns the zero Snapshot without allocating.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if n := len(r.counters); n > 0 {
		s.Counters = make([]CounterValue, 0, n)
		for name, c := range r.counters {
			s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
		}
		sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	}
	if n := len(r.gauges); n > 0 {
		s.Gauges = make([]GaugeValue, 0, n)
		for name, g := range r.gauges {
			s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
		}
		sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	}
	if n := len(r.histograms); n > 0 {
		s.Histograms = make([]HistogramValue, 0, n)
		for name, h := range r.histograms {
			bounds, counts := h.Buckets()
			s.Histograms = append(s.Histograms, HistogramValue{
				Name:   name,
				Bounds: bounds,
				Counts: counts,
				Count:  h.Count(),
				Sum:    h.Sum(),
			})
		}
		sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	}
	return s
}

// Counter returns the value of the counter series with the exact name
// (including any inline label set), zero if absent.
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// CounterFamily sums every counter series whose family (name with the
// inline label set stripped) matches.
func (s Snapshot) CounterFamily(family string) int64 {
	var total int64
	for _, c := range s.Counters {
		if familyOf(c.Name) == family {
			total += c.Value
		}
	}
	return total
}

// Gauge returns the value of the named gauge series, zero if absent.
func (s Snapshot) Gauge(name string) float64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram returns the named histogram series and whether it exists.
func (s Snapshot) Histogram(name string) (HistogramValue, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramValue{}, false
}
