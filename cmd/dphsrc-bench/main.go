// Command dphsrc-bench regenerates the paper's evaluation: Figures 1-5
// and Table II, writing SVG/CSV/text outputs under a results directory.
//
// Usage:
//
//	dphsrc-bench -run all -out results            # everything, full scale
//	dphsrc-bench -run fig1,table2 -scale 0.5      # scaled-down exact runs
//	dphsrc-bench -list                            # print Table I settings
//
// At full scale the exact "Optimal" baseline of Figures 1-2 and Table
// II is the expensive part (the paper's GUROBI runs took up to 6139 s);
// -budget bounds each exact solve and unproven points are annotated in
// the figure notes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/dphsrc/dphsrc/internal/experiment"
	"github.com/dphsrc/dphsrc/internal/plot"
	"github.com/dphsrc/dphsrc/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dphsrc-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dphsrc-bench", flag.ContinueOnError)
	var (
		runList  = fs.String("run", "all", "comma-separated experiments: fig1,fig2,fig3,fig4,fig5,table2 or all")
		outDir   = fs.String("out", "results", "output directory")
		seed     = fs.Int64("seed", 1, "root random seed")
		scale    = fs.Float64("scale", 1.0, "instance size multiplier vs Table I (use <1 to keep exact solves provable)")
		budget   = fs.Duration("budget", 10*time.Second, "wall-clock budget per exact TPM solve")
		samples  = fs.Int("samples", 0, "Monte-Carlo price samples per point (0 = exact PMF statistics)")
		par      = fs.Int("parallelism", 0, "sweep workers (0 = GOMAXPROCS, 1 = sequential); results are byte-identical either way")
		list     = fs.Bool("list", false, "print the Table I simulation settings and exit")
		manifest = fs.String("manifest-out", "", "write a run-provenance manifest (JSON) hashing every produced file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		printSettings()
		return nil
	}

	cfg := experiment.Config{
		Seed:          *seed,
		Scale:         *scale,
		OptimalBudget: *budget,
		Samples:       *samples,
		Parallelism:   *par,
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	var produced []string

	type figRunner struct {
		name string
		fn   func(experiment.Config) (experiment.FigureResult, error)
	}
	for _, fr := range []figRunner{
		{"fig1", experiment.Figure1},
		{"fig2", experiment.Figure2},
		{"fig3", experiment.Figure3},
		{"fig4", experiment.Figure4},
	} {
		if !all && !want[fr.name] {
			continue
		}
		start := time.Now()
		fmt.Printf("running %s...\n", fr.name)
		res, err := fr.fn(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", fr.name, err)
		}
		files, err := experiment.WriteFigure(*outDir, res)
		if err != nil {
			return fmt.Errorf("%s: writing: %w", fr.name, err)
		}
		produced = append(produced, files...)
		fmt.Printf("  done in %v -> %s\n", time.Since(start).Round(time.Millisecond), strings.Join(files, ", "))
		for _, note := range res.Notes {
			fmt.Printf("  note: %s\n", note)
		}
	}

	if all || want["table2"] {
		start := time.Now()
		fmt.Println("running table2...")
		res, err := experiment.Table2(cfg)
		if err != nil {
			return fmt.Errorf("table2: %w", err)
		}
		files, err := experiment.WriteTable2(*outDir, res)
		if err != nil {
			return fmt.Errorf("table2: writing: %w", err)
		}
		produced = append(produced, files...)
		fmt.Printf("  done in %v -> %s\n", time.Since(start).Round(time.Millisecond), strings.Join(files, ", "))
	}

	if all || want["fig5"] {
		start := time.Now()
		fmt.Println("running fig5...")
		res, err := experiment.Figure5(cfg)
		if err != nil {
			return fmt.Errorf("fig5: %w", err)
		}
		files, err := experiment.WriteFigure5(*outDir, res)
		if err != nil {
			return fmt.Errorf("fig5: writing: %w", err)
		}
		produced = append(produced, files...)
		fmt.Printf("  done in %v -> %s\n", time.Since(start).Round(time.Millisecond), strings.Join(files, ", "))
	}

	if *manifest != "" {
		m := telemetry.NewManifest("dphsrc-bench", telemetry.WallClock())
		fs.VisitAll(func(f *flag.Flag) { m.SetConfig(f.Name, f.Value.String()) })
		m.AddSeed("root", *seed)
		for _, path := range produced {
			if err := m.AddArtifact(path); err != nil {
				return err
			}
		}
		// Written last: every artifact hash above covers final bytes.
		if err := m.WriteFile(*manifest); err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
		fmt.Printf("manifest -> %s (%d artifacts)\n", *manifest, len(produced))
	}
	return nil
}

// printSettings renders Table I.
func printSettings() {
	tbl := plot.Table{
		Headers: []string{"Setting", "eps", "cmin", "cmax", "|bundle|", "theta", "delta", "N", "K"},
		Rows: [][]string{
			{"I", "0.1", "10", "60", "[10,20]", "[0.1,0.9]", "[0.1,0.2]", "[80,140]", "30"},
			{"II", "0.1", "10", "60", "[10,20]", "[0.1,0.9]", "[0.1,0.2]", "120", "[20,50]"},
			{"III", "0.1", "10", "60", "[50,150]", "[0.1,0.9]", "[0.1,0.2]", "[800,1400]", "200"},
			{"IV", "0.1", "10", "60", "[50,150]", "[0.1,0.9]", "[0.1,0.2]", "1000", "[200,500]"},
		},
	}
	fmt.Println("Table I — simulation settings")
	fmt.Print(tbl.String())
}
