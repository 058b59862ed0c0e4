package console

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/dphsrc/dphsrc/internal/plot"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

// sortedKeys fixes the field rendering order for event tables.
func sortedKeys(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pageStyle is the console's entire stylesheet, inlined so pages are
// self-contained (no assets to serve, nothing to cache-bust).
const pageStyle = `<style>
body{font-family:sans-serif;margin:0;background:#f5f6f7;color:#1c2733}
header{background:#1c2733;color:#fff;padding:10px 20px;display:flex;gap:18px;align-items:baseline}
header h1{font-size:17px;margin:0}
header a{color:#9fc3e8;text-decoration:none;font-size:14px}
main{padding:16px 20px;max-width:1100px}
section{background:#fff;border:1px solid #dbe0e4;border-radius:6px;padding:12px 16px;margin-bottom:16px}
section h2{font-size:14px;margin:0 0 8px;text-transform:uppercase;letter-spacing:.06em;color:#4a5863}
table{border-collapse:collapse;font-size:13px}
th,td{border:1px solid #dbe0e4;padding:4px 10px;text-align:right}
th{background:#eef1f3;text-align:center}
td.l,th.l{text-align:left}
.kv{display:flex;flex-wrap:wrap;gap:6px 28px;font-size:13px}
.kv div b{display:block;font-size:11px;color:#667683;font-weight:600;text-transform:uppercase}
.ok{color:#177245}.warn{color:#9a6a00}.bad{color:#b00020}
svg{max-width:100%;height:auto}
.muted{color:#667683;font-size:12px}
</style>`

// htmlEscape sanitizes untrusted text for HTML text nodes and
// attribute values. Event names and field payloads pass through here
// even though the evlog schema already restricts them — defense in
// depth costs nothing.
func htmlEscape(s string) string {
	return strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;").Replace(s)
}

// ftoa renders a float the way the JSON endpoints do, so the HTML and
// API views of the same number are digit-identical.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// stamp renders an event timestamp for tables.
func stamp(unixNs int64) string {
	return time.Unix(0, unixNs).UTC().Format("15:04:05.000")
}

// pageHead opens an HTML page with the shared chrome.
func pageHead(b *strings.Builder, title string) {
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">")
	fmt.Fprintf(b, "<title>%s</title>", htmlEscape(title))
	b.WriteString(pageStyle)
	b.WriteString("</head>\n<body><header><h1>mcs-platform console</h1>")
	b.WriteString(`<a href="/">overview</a><a href="/rounds">rounds</a><a href="/events">events</a>`)
	b.WriteString("</header>\n<main>\n")
}

// pageFoot closes it.
func pageFoot(b *strings.Builder, generatedUnixNs int64) {
	fmt.Fprintf(b, "<p class=\"muted\">generated %s UTC · schema %s</p>\n",
		time.Unix(0, generatedUnixNs).UTC().Format(time.RFC3339Nano), SchemaV1)
	b.WriteString("</main></body></html>\n")
}

// renderOverview builds the overview page from the same aggregate the
// JSON endpoint serves, so the two views cannot drift.
func (s *Server) renderOverview() string {
	o := s.Overview()
	var b strings.Builder
	pageHead(&b, "mcs-platform console")

	// Status strip.
	b.WriteString("<section><h2>Status</h2><div class=\"kv\">\n")
	fmt.Fprintf(&b, "<div><b>round</b>%d</div>", o.Status.Round)
	fmt.Fprintf(&b, "<div><b>phase</b>%s</div>", htmlEscape(o.Status.Phase))
	if o.RoundsTotal > 0 {
		fmt.Fprintf(&b, "<div><b>campaign</b>%d rounds from %d</div>", o.RoundsTotal, o.StartRound)
	}
	fmt.Fprintf(&b, "<div><b>uptime</b>%.1fs</div>", o.UptimeSeconds)
	fmt.Fprintf(&b, "<div><b>connections</b>%s</div>", ftoa(o.ConnectionsActive))
	fmt.Fprintf(&b, "<div><b>rounds ok/deg/fail</b>%d / %d / %d</div>",
		o.Rounds.Completed, o.Rounds.Degraded, o.Rounds.Failed)
	fmt.Fprintf(&b, "<div><b>quorum failures</b>%d</div>", o.QuorumFailures)
	b.WriteString("</div></section>\n")

	// Budget burn-down.
	if o.Budget != nil {
		bd := o.Budget
		b.WriteString("<section><h2>DP budget</h2><div class=\"kv\">\n")
		fmt.Fprintf(&b, "<div><b>spent</b>%s</div>", ftoa(bd.Spent))
		if bd.Metered {
			fmt.Fprintf(&b, "<div><b>remaining</b>%s</div>", ftoa(bd.Remaining))
			fmt.Fprintf(&b, "<div><b>total</b>%s</div>", ftoa(bd.Total))
		}
		fmt.Fprintf(&b, "<div><b>releases</b>%d</div>", bd.Releases)
		fmt.Fprintf(&b, "<div><b>refusals</b>%d</div>", bd.Refusals)
		fmt.Fprintf(&b, "<div><b>ledger fold</b>%s</div>", ftoa(bd.Ledger.CumulativeEpsilon))
		if bd.Metered {
			if bd.Spent == bd.Ledger.CumulativeEpsilon {
				b.WriteString(`<div><b>reconciled</b><span class="ok">exact</span></div>`)
			} else {
				b.WriteString(`<div><b>reconciled</b><span class="bad">MISMATCH</span></div>`)
			}
		}
		b.WriteString("</div>\n")
		s.writeBurnDown(&b, bd)
		b.WriteString("</section>\n")
	}

	// Shards.
	if len(o.Shards) > 0 {
		b.WriteString("<section><h2>Shards</h2><table><tr>" +
			"<th class=\"l\">partition</th><th>pending</th><th>queue depth</th>" +
			"<th>admitted</th><th>overloads</th><th>killed</th></tr>\n")
		for _, sh := range o.Shards {
			cls := ""
			if sh.Overloads > 0 {
				cls = ` class="warn"`
			}
			if sh.Killed > 0 {
				cls = ` class="bad"`
			}
			fmt.Fprintf(&b, "<tr%s><td class=\"l\">%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr>\n",
				cls, sh.Partition, sh.Pending, sh.QueueDepth, sh.Admitted, sh.Overloads, sh.Killed)
		}
		b.WriteString("</table></section>\n")
	}

	// Bids and faults.
	b.WriteString("<section><h2>Bids and faults</h2><div class=\"kv\">\n")
	fmt.Fprintf(&b, "<div><b>accepted</b>%d</div><div><b>rejected</b>%d</div>"+
		"<div><b>timeout</b>%d</div><div><b>duplicate</b>%d</div>",
		o.Bids.Accepted, o.Bids.Rejected, o.Bids.Timeout, o.Bids.Duplicate)
	fmt.Fprintf(&b, "<div><b>winner unreachable</b>%d</div><div><b>winner evicted</b>%d</div>"+
		"<div><b>loser unnotified</b>%d</div><div><b>partition lost</b>%d</div>"+
		"<div><b>worker retries</b>%d</div>",
		o.Faults.WinnerUnreachable, o.Faults.WinnerEvicted,
		o.Faults.LoserUnnotified, o.Faults.PartitionLost, o.WorkerRetries)
	b.WriteString("</div></section>\n")

	// Latency histogram.
	s.writeLatency(&b)

	// Recovery panel.
	if o.Store != nil {
		st := o.Store
		b.WriteString("<section><h2>Durable state</h2><div class=\"kv\">\n")
		fmt.Fprintf(&b, "<div><b>journaled spent</b>%s</div>", ftoa(st.BudgetSpent))
		fmt.Fprintf(&b, "<div><b>releases</b>%d</div><div><b>refusals</b>%d</div>", st.Releases, st.Refusals)
		fmt.Fprintf(&b, "<div><b>next round</b>%d</div><div><b>rounds completed</b>%d</div>",
			st.NextRound, st.RoundsCompleted)
		fmt.Fprintf(&b, "<div><b>total payment</b>%s</div><div><b>skills tracked</b>%d</div>",
			ftoa(st.TotalPayment), st.SkillsTracked)
		b.WriteString("</div></section>\n")
	}

	// Event ring.
	b.WriteString("<section><h2>Event ring</h2><div class=\"kv\">\n")
	fmt.Fprintf(&b, "<div><b>retained</b>%d / %d</div><div><b>observed</b>%d</div>"+
		"<div><b>dropped</b>%d</div><div><b>last seq</b>%d</div>",
		o.Events.Retained, o.Events.Capacity, o.Events.Total, o.Events.Dropped, o.Events.LastSeq)
	b.WriteString("</div></section>\n")

	pageFoot(&b, o.GeneratedUnixNs)
	return b.String()
}

// writeBurnDown embeds the epsilon burn-down chart when there is at
// least one ledger point.
func (s *Server) writeBurnDown(b *strings.Builder, bd *BudgetInfo) {
	series := s.cfg.Events.BudgetSeries()
	if len(series) == 0 {
		return
	}
	releases := make([]float64, len(series))
	spent := make([]float64, len(series))
	for i, p := range series {
		releases[i] = float64(p.Release)
		spent[i] = p.Spent
	}
	ch, err := plot.BurnDownChart("Epsilon burn-down", releases, spent, bd.Total)
	if err != nil {
		return
	}
	svg, err := ch.SVG()
	if err != nil {
		return
	}
	b.WriteString(svg)
}

// writeLatency embeds the per-round latency histogram when the metric
// has observations.
func (s *Server) writeLatency(b *strings.Builder) {
	h, ok := s.cfg.Metrics.Snapshot().Histogram("mcs_protocol_round_seconds")
	if !ok || h.Count == 0 {
		return
	}
	svg, err := plot.HistogramSVG("Round latency", "seconds (bucket upper bound)", h.Bounds, h.Counts)
	if err != nil {
		return
	}
	b.WriteString("<section><h2>Round latency</h2>")
	b.WriteString(svg)
	fmt.Fprintf(b, "<p class=\"muted\">%d rounds, %.3fs total</p></section>\n", h.Count, h.Sum)
}

// renderRounds builds the per-round drill-down page.
func (s *Server) renderRounds() string {
	resp := s.Rounds()
	o := s.Overview()
	var b strings.Builder
	pageHead(&b, "rounds · mcs-platform console")

	b.WriteString("<section><h2>Recent rounds</h2>\n")
	if len(resp.Rounds) == 0 {
		b.WriteString("<p class=\"muted\">no round lifecycle events retained yet</p>")
	} else {
		b.WriteString("<table><tr><th>round</th><th class=\"l\">status</th><th>bidders</th>" +
			"<th>winners</th><th>clearing price</th><th>reports</th><th>faults</th>" +
			"<th class=\"l\">reason</th><th>time</th></tr>\n")
		for _, r := range resp.Rounds {
			cls := ""
			switch r.Status {
			case "degraded":
				cls = ` class="warn"`
			case "failed":
				cls = ` class="bad"`
			}
			// A round without a clearing_price (degraded, failed or
			// sharded) shows an empty cell, as its JSON omits the field.
			price := ""
			if r.ClearingPrice != 0 {
				price = ftoa(r.ClearingPrice)
			}
			fmt.Fprintf(&b, "<tr%s><td>%d</td><td class=\"l\">%s</td><td>%d</td><td>%d</td>"+
				"<td>%s</td><td>%d</td><td>%d</td><td class=\"l\">%s</td><td>%s</td></tr>\n",
				cls, r.Round, htmlEscape(r.Status), r.Bidders, r.Winners,
				price, r.ReportsReceived, r.Faults,
				htmlEscape(r.Reason), stamp(r.TimestampUnixNs))
		}
		b.WriteString("</table>")
	}
	b.WriteString("</section>\n")

	if resp.Latency != nil && resp.Latency.Count > 0 {
		svg, err := plot.HistogramSVG("Round latency", "seconds (bucket upper bound)",
			resp.Latency.Bounds, resp.Latency.Counts)
		if err == nil {
			b.WriteString("<section><h2>Latency distribution</h2>")
			b.WriteString(svg)
			b.WriteString("</section>\n")
		}
	}
	if o.Budget != nil {
		b.WriteString("<section><h2>Epsilon over releases</h2>")
		s.writeBurnDown(&b, o.Budget)
		b.WriteString("</section>\n")
	}

	pageFoot(&b, o.GeneratedUnixNs)
	return b.String()
}

// renderEvents builds one drill-down page of evlog events. The table
// cells carry the events' rendered field JSON — safe to show because
// the Field API already redacted anything bid-typed at emit time.
func (s *Server) renderEvents(q eventsQuery) string {
	resp := s.Events(q)
	var b strings.Builder
	pageHead(&b, "events · mcs-platform console")

	b.WriteString("<section><h2>Event log</h2>\n")
	fmt.Fprintf(&b, "<p class=\"muted\">%d retained of %d observed · %d dropped by the ring</p>\n",
		s.cfg.Events.Len(), resp.Total, resp.Dropped)
	if len(resp.Events) == 0 {
		b.WriteString("<p class=\"muted\">no events match</p>")
	} else {
		b.WriteString("<table><tr><th>seq</th><th>time</th><th class=\"l\">level</th>" +
			"<th class=\"l\">event</th><th class=\"l\">fields</th></tr>\n")
		for _, raw := range resp.Events {
			e, err := evlog.ParseEvent(raw)
			if err != nil {
				continue
			}
			cls := ""
			switch e.Level {
			case "warn":
				cls = ` class="warn"`
			case "error":
				cls = ` class="bad"`
			}
			fields := make([]string, 0, len(e.Fields))
			for _, key := range sortedKeys(e.Fields) {
				fields = append(fields, key+"="+string(e.Fields[key]))
			}
			fmt.Fprintf(&b, "<tr%s><td>%d</td><td>%s</td><td class=\"l\">%s</td>"+
				"<td class=\"l\">%s</td><td class=\"l\">%s</td></tr>\n",
				cls, e.Seq, stamp(e.TimestampUnixNs), htmlEscape(e.Level),
				htmlEscape(e.Name), htmlEscape(strings.Join(fields, " ")))
		}
		b.WriteString("</table>")
		if resp.NextBefore > 1 {
			fmt.Fprintf(&b, "<p><a href=\"/events?before=%d&amp;limit=%d\">older events →</a></p>\n",
				resp.NextBefore, q.limit)
		}
	}
	b.WriteString("</section>\n")

	pageFoot(&b, s.cfg.Clock.Now().UnixNano())
	return b.String()
}
