// Command mcs-worker joins one DP-hSRC auction round as a worker
// client: it submits a truthful bid for its bundle and, if selected,
// senses its tasks (simulated with a configurable accuracy against a
// seeded ground truth) and collects payment.
//
// Usage:
//
//	mcs-worker -addr 127.0.0.1:7788 -id alice -bundle 0,1,2,3 -cost 8
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/dphsrc/dphsrc/internal/crowd"
	"github.com/dphsrc/dphsrc/internal/faultnet"
	"github.com/dphsrc/dphsrc/internal/protocol"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcs-worker:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mcs-worker", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7788", "platform address")
		id        = fs.String("id", "", fmt.Sprintf("worker id (required, at most %d bytes)", protocol.MaxWorkerIDBytes))
		bundleStr = fs.String("bundle", "", "comma-separated task indices to bid on (required)")
		cost      = fs.Float64("cost", 10, "true cost for executing the bundle (bid truthfully)")
		accuracy  = fs.Float64("accuracy", 0.9, "simulated sensing accuracy")
		truthSeed = fs.Int64("truth-seed", 99, "seed of the shared simulated ground truth")
		timeout   = fs.Duration("timeout", 60*time.Second, "overall participation timeout")

		retries        = fs.Int("retries", 3, "maximum participation attempts before giving up")
		retryBase      = fs.Duration("retry-base", 100*time.Millisecond, "base backoff between attempts (doubles per attempt, with jitter)")
		attemptTimeout = fs.Duration("attempt-timeout", 0, "per-attempt deadline (0 = whole participation timeout)")

		chaosDrop    = fs.Float64("chaos-drop", 0, "inject: probability a sent frame is silently dropped")
		chaosDelay   = fs.Float64("chaos-delay", 0, "inject: probability a sent frame is delayed")
		chaosCorrupt = fs.Float64("chaos-corrupt", 0, "inject: probability a sent frame has one byte corrupted")
		chaosSeed    = fs.Int64("chaos-seed", 1, "seed of the deterministic fault schedule")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" || *bundleStr == "" {
		return fmt.Errorf("-id and -bundle are required")
	}
	bundle, err := parseBundle(*bundleStr)
	if err != nil {
		return err
	}

	// Simulated sensing: all workers share one seeded ground truth (as
	// if observing the same physical world) and flip each observation
	// with probability 1-accuracy.
	truthRand := rand.New(rand.NewSource(*truthSeed))
	truth := crowd.TrueLabels(truthRand, 1<<16)
	obsRand := rand.New(rand.NewSource(hashID(*id)))
	labels := func(task int) crowd.Label {
		l := truth[task%len(truth)]
		if obsRand.Float64() >= *accuracy {
			l = -l
		}
		return l
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	cfg := protocol.WorkerConfig{
		ID:             *id,
		Bundle:         bundle,
		Cost:           *cost,
		Labels:         labels,
		Retry:          protocol.RetryPolicy{MaxAttempts: *retries, BaseBackoff: *retryBase},
		AttemptTimeout: *attemptTimeout,
	}
	if *chaosDrop > 0 || *chaosDelay > 0 || *chaosCorrupt > 0 {
		inj, err := faultnet.New(faultnet.Plan{
			Seed:        *chaosSeed,
			DropRate:    *chaosDrop,
			DelayRate:   *chaosDelay,
			CorruptRate: *chaosCorrupt,
		})
		if err != nil {
			return err
		}
		cfg.Dialer = &faultnet.Dialer{Injector: inj, Key: *id}
	}

	report, err := protocol.Participate(ctx, *addr, cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// parseBundle parses "0,3,5" into a sorted unique index slice.
func parseBundle(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	seen := make(map[int]bool)
	var bundle []int
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad bundle entry %q: %w", p, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("negative task index %d", v)
		}
		if !seen[v] {
			seen[v] = true
			bundle = append(bundle, v)
		}
	}
	sort.Ints(bundle)
	return bundle, nil
}

// hashID derives a deterministic observation seed from the worker id.
func hashID(id string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range id {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h
}
