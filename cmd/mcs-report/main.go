// Command mcs-report renders a run's provenance bundle — the manifest
// written by mcs-bench / mcs-platform / dphsrc-bench, the structured
// JSONL event stream, and optionally a Prometheus metrics snapshot —
// into a single human-readable report (markdown or HTML).
//
// Usage:
//
//	mcs-report -manifest run.json                       # markdown to stdout
//	mcs-report -manifest run.json -events run.jsonl -format html -o report.html
//	mcs-report -manifest run.json -check                # verify, exit 1 on mismatch
//
// When -events is omitted the first .jsonl artifact listed in the
// manifest is used, resolved relative to the manifest's directory.
//
// With -check the report still renders, but the exit status is 1 when
// any artifact hash no longer matches disk or when the privacy-budget
// ledger folded from the event stream disagrees with the manifest's
// accountant snapshot — the audit the provenance pipeline exists for.
package main

import (
	"flag"
	"fmt"
	"html"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/dphsrc/dphsrc/internal/telemetry"
	"github.com/dphsrc/dphsrc/internal/telemetry/evlog"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcs-report:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mcs-report", flag.ContinueOnError)
	var (
		manifestPath = fs.String("manifest", "", "run manifest (required)")
		eventsPath   = fs.String("events", "", "JSONL event stream (default: first .jsonl artifact in the manifest)")
		metricsPath  = fs.String("metrics", "", "Prometheus text exposition snapshot to include verbatim")
		format       = fs.String("format", "markdown", "output format: markdown or html")
		outPath      = fs.String("o", "", "write the report here instead of stdout")
		check        = fs.Bool("check", false, "exit 1 when artifact hashes or the budget ledger fail verification")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *manifestPath == "" {
		return fmt.Errorf("-manifest is required")
	}
	if *format != "markdown" && *format != "html" {
		return fmt.Errorf("unknown format %q (want markdown or html)", *format)
	}

	rep, err := buildReport(*manifestPath, *eventsPath, *metricsPath)
	if err != nil {
		return err
	}

	var sb strings.Builder
	if *format == "html" {
		renderHTML(&sb, rep)
	} else {
		renderMarkdown(&sb, rep)
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(sb.String()), 0o644); err != nil {
			return err
		}
	} else if _, err := io.WriteString(stdout, sb.String()); err != nil {
		return err
	}

	if *check && len(rep.Problems) > 0 {
		return fmt.Errorf("verification failed: %s", strings.Join(rep.Problems, "; "))
	}
	return nil
}

// report is the renderer-neutral model both output formats share.
type report struct {
	Manifest *telemetry.Manifest
	// Checks is the artifact verification outcome, aligned with
	// Manifest.Artifacts.
	Checks []telemetry.ArtifactCheck
	// Events is the decoded stream; nil when no stream was found.
	Events []evlog.Event
	// EventsPath is where the stream came from, for attribution.
	EventsPath string
	// Ledger is the fold of the stream's budget events.
	Ledger evlog.BudgetLedger
	// Metrics is the raw exposition text, "" when not provided.
	Metrics string
	// Problems lists every verification failure -check gates on.
	Problems []string
}

func buildReport(manifestPath, eventsPath, metricsPath string) (*report, error) {
	m, err := telemetry.ReadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	baseDir := filepath.Dir(manifestPath)
	rep := &report{Manifest: m}

	rep.Checks = m.VerifyArtifacts(baseDir)
	for _, chk := range rep.Checks {
		if !chk.OK {
			rep.Problems = append(rep.Problems, fmt.Sprintf("artifact %s: %s", chk.Path, chk.Err))
		}
	}

	if eventsPath == "" {
		for _, a := range m.Artifacts {
			if strings.HasSuffix(a.Path, ".jsonl") {
				eventsPath = a.Path
				if !filepath.IsAbs(eventsPath) {
					eventsPath = filepath.Join(baseDir, eventsPath)
				}
				break
			}
		}
	}
	if eventsPath != "" {
		events, err := evlog.ReadFile(eventsPath)
		if err != nil {
			return nil, fmt.Errorf("events %s: %w", eventsPath, err)
		}
		rep.Events = events
		rep.EventsPath = eventsPath
		led, err := evlog.FoldBudget(events)
		if err != nil {
			return nil, err
		}
		rep.Ledger = led
		rep.reconcileLedger()
	}

	if metricsPath != "" {
		raw, err := os.ReadFile(metricsPath)
		if err != nil {
			return nil, err
		}
		rep.Metrics = string(raw)
	}
	return rep, nil
}

// reconcileLedger cross-checks the folded event stream against the
// manifest's accountant snapshot. The comparisons are exact: the spend
// events carry the accountant's own cumulative float additions, so any
// drift at all means the records describe different runs.
func (r *report) reconcileLedger() {
	b := r.Manifest.Budget
	if b == nil {
		if r.Ledger.Releases > 0 || r.Ledger.Refusals > 0 {
			r.Problems = append(r.Problems,
				fmt.Sprintf("event stream holds %d budget events but the manifest carries no ledger",
					r.Ledger.Releases+r.Ledger.Refusals))
		}
		return
	}
	if r.Ledger.CumulativeEpsilon != b.Spent {
		r.Problems = append(r.Problems,
			fmt.Sprintf("folded cumulative epsilon %v != manifest spent %v", r.Ledger.CumulativeEpsilon, b.Spent))
	}
	if r.Ledger.FinalSpent != b.Spent {
		r.Problems = append(r.Problems,
			fmt.Sprintf("final spent on events %v != manifest spent %v", r.Ledger.FinalSpent, b.Spent))
	}
	if r.Ledger.Total != b.Total {
		r.Problems = append(r.Problems,
			fmt.Sprintf("ledger total %v != manifest total %v", r.Ledger.Total, b.Total))
	}
	if int64(r.Ledger.Releases) != b.Releases || int64(r.Ledger.Refusals) != b.Refusals {
		r.Problems = append(r.Problems,
			fmt.Sprintf("event stream folds to %d releases / %d refusals, manifest records %d / %d",
				r.Ledger.Releases, r.Ledger.Refusals, b.Releases, b.Refusals))
	}
}

// eventSummary aggregates the stream for display: totals by level and
// by event name (sorted by count, then name), plus fault kinds.
type eventSummary struct {
	Total    int
	ByLevel  []kv
	ByName   []kv
	ByFault  []kv
	FirstSeq int64
	LastSeq  int64
}

type kv struct {
	Key   string
	Count int
}

func summarizeEvents(events []evlog.Event) eventSummary {
	s := eventSummary{Total: len(events)}
	if len(events) == 0 {
		return s
	}
	s.FirstSeq = events[0].Seq
	s.LastSeq = events[len(events)-1].Seq
	levels := make(map[string]int)
	names := make(map[string]int)
	faults := make(map[string]int)
	for _, e := range events {
		levels[e.Level]++
		names[e.Name]++
		if e.Name == "round.fault" {
			if kind, ok := e.Str("kind"); ok {
				faults[kind]++
			}
		}
	}
	s.ByLevel = sortedCounts(levels)
	s.ByName = sortedCounts(names)
	s.ByFault = sortedCounts(faults)
	return s
}

func sortedCounts(m map[string]int) []kv {
	out := make([]kv, 0, len(m))
	for k, v := range m {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// sortedConfig flattens the manifest config map deterministically.
func sortedConfig(cfg map[string]string) []struct{ K, V string } {
	keys := make([]string, 0, len(cfg))
	for k := range cfg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]struct{ K, V string }, 0, len(keys))
	for _, k := range keys {
		out = append(out, struct{ K, V string }{k, cfg[k]})
	}
	return out
}

func formatCreated(ns int64) string {
	if ns == 0 {
		return "(not recorded)"
	}
	return time.Unix(0, ns).UTC().Format(time.RFC3339)
}

func formatEpsilons(eps []float64) string {
	parts := make([]string, len(eps))
	for i, e := range eps {
		parts[i] = strconv.FormatFloat(e, 'g', -1, 64)
	}
	return strings.Join(parts, ", ")
}

func renderMarkdown(w *strings.Builder, r *report) {
	m := r.Manifest
	fmt.Fprintf(w, "# Run report: %s\n\n", m.Command)

	fmt.Fprintf(w, "## Provenance\n\n")
	fmt.Fprintf(w, "- created: %s\n", formatCreated(m.CreatedUnixNs))
	fmt.Fprintf(w, "- toolchain: %s %s/%s\n", m.GoVersion, m.GOOS, m.GOARCH)
	if m.GitRevision != "" {
		dirty := ""
		if m.GitDirty {
			dirty = " (dirty)"
		}
		fmt.Fprintf(w, "- revision: %s%s\n", m.GitRevision, dirty)
	}
	for _, s := range m.Seeds {
		fmt.Fprintf(w, "- seed %s: %d\n", s.Name, s.Seed)
	}
	if len(m.Epsilons) > 0 {
		fmt.Fprintf(w, "- epsilons: %s\n", formatEpsilons(m.Epsilons))
	}
	fmt.Fprintln(w)

	if len(m.Config) > 0 {
		fmt.Fprintf(w, "## Configuration\n\n| key | value |\n|---|---|\n")
		for _, c := range sortedConfig(m.Config) {
			fmt.Fprintf(w, "| %s | %s |\n", c.K, c.V)
		}
		fmt.Fprintln(w)
	}

	if len(r.Checks) > 0 {
		fmt.Fprintf(w, "## Artifacts\n\n| path | bytes | sha256 | verified |\n|---|---|---|---|\n")
		for i, chk := range r.Checks {
			a := m.Artifacts[i]
			status := "ok"
			if !chk.OK {
				status = "FAIL: " + chk.Err
			}
			fmt.Fprintf(w, "| %s | %d | %.12s… | %s |\n", a.Path, a.Bytes, a.SHA256, status)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "## Privacy budget\n\n")
	if m.Budget == nil && r.Ledger.Releases == 0 && r.Ledger.Refusals == 0 {
		fmt.Fprintf(w, "No budget activity recorded.\n\n")
	} else {
		if m.Budget != nil {
			fmt.Fprintf(w, "- accountant (manifest): spent %v of %v over %d releases, %d refusals\n",
				m.Budget.Spent, m.Budget.Total, m.Budget.Releases, m.Budget.Refusals)
		}
		if r.Events != nil {
			fmt.Fprintf(w, "- event ledger (folded): spent %v of %v over %d releases, %d refusals\n",
				r.Ledger.FinalSpent, r.Ledger.Total, r.Ledger.Releases, r.Ledger.Refusals)
		}
		fmt.Fprintln(w)
	}

	if r.Events != nil {
		s := summarizeEvents(r.Events)
		fmt.Fprintf(w, "## Events (%s)\n\n", r.EventsPath)
		fmt.Fprintf(w, "%d events, seq %d..%d\n\n", s.Total, s.FirstSeq, s.LastSeq)
		fmt.Fprintf(w, "| level | count |\n|---|---|\n")
		for _, e := range s.ByLevel {
			fmt.Fprintf(w, "| %s | %d |\n", e.Key, e.Count)
		}
		fmt.Fprintf(w, "\n| event | count |\n|---|---|\n")
		for _, e := range s.ByName {
			fmt.Fprintf(w, "| %s | %d |\n", e.Key, e.Count)
		}
		if len(s.ByFault) > 0 {
			fmt.Fprintf(w, "\n| fault kind | count |\n|---|---|\n")
			for _, e := range s.ByFault {
				fmt.Fprintf(w, "| %s | %d |\n", e.Key, e.Count)
			}
		}
		fmt.Fprintln(w)
	}

	if r.Metrics != "" {
		fmt.Fprintf(w, "## Metrics snapshot\n\n```\n%s```\n\n", r.Metrics)
	}

	fmt.Fprintf(w, "## Verification\n\n")
	if len(r.Problems) == 0 {
		fmt.Fprintf(w, "All checks passed: artifact hashes match disk and the budget ledger reconciles.\n")
	} else {
		for _, p := range r.Problems {
			fmt.Fprintf(w, "- FAIL: %s\n", p)
		}
	}
}

// renderHTML wraps the same content in a minimal standalone page; the
// markdown renderer is the source of truth for what the report says,
// this one for where it can be embedded (CI artifact viewers).
func renderHTML(w *strings.Builder, r *report) {
	esc := html.EscapeString
	m := r.Manifest
	fmt.Fprintf(w, "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	fmt.Fprintf(w, "<title>Run report: %s</title>\n", esc(m.Command))
	fmt.Fprintf(w, "<style>body{font-family:sans-serif;margin:2em}table{border-collapse:collapse}"+
		"td,th{border:1px solid #999;padding:2px 8px;text-align:left}"+
		".fail{color:#b00}.ok{color:#070}</style>\n</head><body>\n")
	fmt.Fprintf(w, "<h1>Run report: %s</h1>\n", esc(m.Command))

	fmt.Fprintf(w, "<h2>Provenance</h2>\n<ul>\n")
	fmt.Fprintf(w, "<li>created: %s</li>\n", esc(formatCreated(m.CreatedUnixNs)))
	fmt.Fprintf(w, "<li>toolchain: %s %s/%s</li>\n", esc(m.GoVersion), esc(m.GOOS), esc(m.GOARCH))
	if m.GitRevision != "" {
		dirty := ""
		if m.GitDirty {
			dirty = " (dirty)"
		}
		fmt.Fprintf(w, "<li>revision: %s%s</li>\n", esc(m.GitRevision), dirty)
	}
	for _, s := range m.Seeds {
		fmt.Fprintf(w, "<li>seed %s: %d</li>\n", esc(s.Name), s.Seed)
	}
	if len(m.Epsilons) > 0 {
		fmt.Fprintf(w, "<li>epsilons: %s</li>\n", esc(formatEpsilons(m.Epsilons)))
	}
	fmt.Fprintf(w, "</ul>\n")

	if len(m.Config) > 0 {
		fmt.Fprintf(w, "<h2>Configuration</h2>\n<table><tr><th>key</th><th>value</th></tr>\n")
		for _, c := range sortedConfig(m.Config) {
			fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td></tr>\n", esc(c.K), esc(c.V))
		}
		fmt.Fprintf(w, "</table>\n")
	}

	if len(r.Checks) > 0 {
		fmt.Fprintf(w, "<h2>Artifacts</h2>\n<table><tr><th>path</th><th>bytes</th><th>sha256</th><th>verified</th></tr>\n")
		for i, chk := range r.Checks {
			a := m.Artifacts[i]
			status := "<span class=\"ok\">ok</span>"
			if !chk.OK {
				status = "<span class=\"fail\">FAIL: " + esc(chk.Err) + "</span>"
			}
			fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td><td><code>%.12s…</code></td><td>%s</td></tr>\n",
				esc(a.Path), a.Bytes, esc(a.SHA256), status)
		}
		fmt.Fprintf(w, "</table>\n")
	}

	fmt.Fprintf(w, "<h2>Privacy budget</h2>\n<ul>\n")
	if m.Budget == nil && r.Ledger.Releases == 0 && r.Ledger.Refusals == 0 {
		fmt.Fprintf(w, "<li>No budget activity recorded.</li>\n")
	} else {
		if m.Budget != nil {
			fmt.Fprintf(w, "<li>accountant (manifest): spent %v of %v over %d releases, %d refusals</li>\n",
				m.Budget.Spent, m.Budget.Total, m.Budget.Releases, m.Budget.Refusals)
		}
		if r.Events != nil {
			fmt.Fprintf(w, "<li>event ledger (folded): spent %v of %v over %d releases, %d refusals</li>\n",
				r.Ledger.FinalSpent, r.Ledger.Total, r.Ledger.Releases, r.Ledger.Refusals)
		}
	}
	fmt.Fprintf(w, "</ul>\n")

	if r.Events != nil {
		s := summarizeEvents(r.Events)
		fmt.Fprintf(w, "<h2>Events (%s)</h2>\n<p>%d events, seq %d..%d</p>\n",
			esc(r.EventsPath), s.Total, s.FirstSeq, s.LastSeq)
		writeCountTable := func(title string, counts []kv) {
			if len(counts) == 0 {
				return
			}
			fmt.Fprintf(w, "<table><tr><th>%s</th><th>count</th></tr>\n", esc(title))
			for _, e := range counts {
				fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td></tr>\n", esc(e.Key), e.Count)
			}
			fmt.Fprintf(w, "</table>\n")
		}
		writeCountTable("level", s.ByLevel)
		writeCountTable("event", s.ByName)
		writeCountTable("fault kind", s.ByFault)
	}

	if r.Metrics != "" {
		fmt.Fprintf(w, "<h2>Metrics snapshot</h2>\n<pre>%s</pre>\n", esc(r.Metrics))
	}

	fmt.Fprintf(w, "<h2>Verification</h2>\n")
	if len(r.Problems) == 0 {
		fmt.Fprintf(w, "<p class=\"ok\">All checks passed: artifact hashes match disk and the budget ledger reconciles.</p>\n")
	} else {
		fmt.Fprintf(w, "<ul>\n")
		for _, p := range r.Problems {
			fmt.Fprintf(w, "<li class=\"fail\">FAIL: %s</li>\n", esc(p))
		}
		fmt.Fprintf(w, "</ul>\n")
	}
	fmt.Fprintf(w, "</body></html>\n")
}
