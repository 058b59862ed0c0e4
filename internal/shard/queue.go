package shard

// queue is one partition's bid buffer for the open round, guarded by
// the coordinator's mutex. Submissions append until the per-round
// admission cap refuses them with ErrOverloaded, the only
// backpressure. The buffer persists across rounds: reset empties it
// and keeps its capacity.
type queue struct {
	maxBids int // 0 = uncapped
	bids    []Bid
}

func newQueue(maxBids int) *queue {
	return &queue{maxBids: maxBids}
}

// put admits one bid, or returns ErrOverloaded when the admission cap
// is reached; a refused bid is NOT admitted, so the caller can reject
// it to the worker and the accepted count stays exact.
func (q *queue) put(b Bid) error {
	if q.maxBids > 0 && len(q.bids) >= q.maxBids {
		return ErrOverloaded
	}
	q.bids = append(q.bids, b)
	return nil
}

// reset empties the buffer for a new round, dropping the previous
// round's bids so their bundles can be collected.
func (q *queue) reset() {
	clear(q.bids)
	q.bids = q.bids[:0]
}
