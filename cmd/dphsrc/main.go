// Command dphsrc runs a single DP-hSRC auction: either on an instance
// loaded from a JSON file or on a freshly generated Table-I workload,
// and prints the outcome (and optionally the full price distribution).
//
// Usage:
//
//	dphsrc -setting I -n 100 -seed 7            # generated workload
//	dphsrc -instance instance.json -samples 5   # instance from disk
//	dphsrc -setting II -k 30 -rule static -pmf  # baseline rule + PMF dump
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"github.com/dphsrc/dphsrc/internal/core"
	"github.com/dphsrc/dphsrc/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dphsrc:", err)
		os.Exit(1)
	}
}

// options holds the parsed command line.
type options struct {
	instancePath string
	setting      string
	n, k         int
	seed         int64
	samples      int
	rule         string
	showPMF      bool
	jsonOut      bool
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("dphsrc", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.instancePath, "instance", "", "path to a JSON instance file (overrides -setting)")
	fs.StringVar(&o.setting, "setting", "I", "Table I setting to generate: I, II, III or IV")
	fs.IntVar(&o.n, "n", 0, "worker count override for the generated setting")
	fs.IntVar(&o.k, "k", 0, "task count override for the generated setting")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.IntVar(&o.samples, "samples", 1, "number of auction runs to sample")
	fs.StringVar(&o.rule, "rule", "greedy", "winner-set rule: greedy, greedy-naive or static")
	fs.BoolVar(&o.showPMF, "pmf", false, "print the exact price distribution")
	fs.BoolVar(&o.jsonOut, "json", false, "emit machine-readable JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	return o, nil
}

func run(args []string, out *os.File) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	inst, err := loadInstance(o)
	if err != nil {
		return err
	}
	rule, err := parseRule(o.rule)
	if err != nil {
		return err
	}
	auction, err := core.New(inst, core.WithRule(rule))
	if err != nil {
		return fmt.Errorf("building auction: %w", err)
	}

	r := rand.New(rand.NewSource(o.seed))
	type runResult struct {
		Price        float64  `json:"price"`
		Winners      []string `json:"winners"`
		TotalPayment float64  `json:"total_payment"`
	}
	var results []runResult
	for s := 0; s < o.samples; s++ {
		oc := auction.Run(r)
		rr := runResult{Price: oc.Price, TotalPayment: oc.TotalPayment}
		for _, w := range oc.Winners {
			id := inst.Workers[w].ID
			if id == "" {
				id = fmt.Sprintf("#%d", w)
			}
			rr.Winners = append(rr.Winners, id)
		}
		results = append(results, rr)
	}

	if o.jsonOut {
		payload := map[string]any{
			"expected_payment": auction.ExpectedPayment(),
			"support_prices":   auction.SupportPrices(),
			"runs":             results,
		}
		if o.showPMF {
			payload["pmf"] = auction.PMF()
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(payload)
	}

	fmt.Fprintf(out, "instance: N=%d workers, K=%d tasks, eps=%g, rule=%s\n",
		len(inst.Workers), inst.NumTasks, inst.Epsilon, rule)
	fmt.Fprintf(out, "support: %d feasible prices in [%g, %g]\n",
		len(auction.SupportPrices()), auction.SupportPrices()[0],
		auction.SupportPrices()[len(auction.SupportPrices())-1])
	fmt.Fprintf(out, "exact expected total payment: %.2f\n", auction.ExpectedPayment())
	for i, rr := range results {
		fmt.Fprintf(out, "run %d: price=%.2f winners=%d payment=%.2f\n",
			i+1, rr.Price, len(rr.Winners), rr.TotalPayment)
	}
	if o.showPMF {
		pmf := auction.PMF()
		for i, p := range auction.SupportPrices() {
			fmt.Fprintf(out, "  P[price=%.2f] = %.6f\n", p, pmf[i])
		}
	}
	return nil
}

// loadInstance reads the instance from disk or generates one.
func loadInstance(o options) (core.Instance, error) {
	if o.instancePath != "" {
		f, err := os.Open(o.instancePath)
		if err != nil {
			return core.Instance{}, err
		}
		defer func() { _ = f.Close() }() // read-only; nothing to flush
		inst, err := core.DecodeInstance(f)
		if err != nil {
			return core.Instance{}, fmt.Errorf("%s: %w", o.instancePath, err)
		}
		return inst, nil
	}

	var params workload.Params
	switch o.setting {
	case "I", "1":
		n := o.n
		if n == 0 {
			n = 100
		}
		params = workload.SettingI(n)
	case "II", "2":
		k := o.k
		if k == 0 {
			k = 30
		}
		params = workload.SettingII(k)
	case "III", "3":
		n := o.n
		if n == 0 {
			n = 1000
		}
		params = workload.SettingIII(n)
	case "IV", "4":
		k := o.k
		if k == 0 {
			k = 300
		}
		params = workload.SettingIV(k)
	default:
		return core.Instance{}, fmt.Errorf("unknown setting %q (want I..IV)", o.setting)
	}
	return params.Generate(rand.New(rand.NewSource(o.seed)))
}

// parseRule maps the flag value to a selection rule.
func parseRule(s string) (core.SelectionRule, error) {
	switch s {
	case "greedy":
		return core.RuleGreedy, nil
	case "greedy-naive":
		return core.RuleGreedyNaive, nil
	case "static":
		return core.RuleStatic, nil
	default:
		return 0, fmt.Errorf("unknown rule %q (want greedy, greedy-naive or static)", s)
	}
}
