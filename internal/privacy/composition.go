package privacy

// ParallelComposedEpsilon returns the privacy budget consumed by
// mechanisms run on disjoint subsets of the protected data — parallel
// composition. Where sequential composition charges
// the sum of the per-release epsilons because every release observes
// the same bids, parallel composition charges only the maximum: each
// worker's bid enters exactly one partition's mechanism, so from any
// single worker's perspective at most one of the releases depends on
// her data.
//
// This is the arithmetic the shard layer's merge step relies on: a
// round split across N partitions of disjoint workers, each running
// the exponential mechanism at the configured epsilon, debits the
// accountant max(eps_1..eps_N) — with a uniform per-partition epsilon,
// bit-for-bit the same float the unsharded round debits, so FoldBudget
// over the merged stream reproduces the single-shard ledger exactly.
// Non-positive epsilons contribute nothing; an empty or all-non-positive
// argument list returns 0 (no release happened).
func ParallelComposedEpsilon(eps ...float64) float64 {
	m := 0.0
	for _, e := range eps {
		if e > m {
			m = e
		}
	}
	return m
}
