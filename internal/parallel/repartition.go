package parallel

import (
	"errors"
	"fmt"

	"mpcrete/internal/obs"
	"mpcrete/internal/sched"
)

// MigrationStats reports the cost of one migration — the quantity the
// paper declined to pay ("moving hash-buckets around to change the
// token distribution is too costly", Section 5.2.2). The runtime
// implements migration so the cost can be measured instead of assumed.
type MigrationStats struct {
	// BucketsMoved is the number of bucket pairs that changed owner.
	BucketsMoved int
	// EntriesMoved is the number of stored tokens (left + right)
	// shipped between workers.
	EntriesMoved int
	// Messages is the number of migration messages exchanged.
	Messages int
}

// Repartition changes the bucket-to-worker assignment of a quiescent
// machine, migrating stored tokens to their new owners, and returns
// the measured cost. It must be called between cycles. The same
// machinery runs automatically at cycle boundaries when
// Options.Rebalance or Options.ForceMigrate is set.
func (d *Driver) Repartition(newPart sched.Partition) (MigrationStats, error) {
	if d.Closed() {
		return MigrationStats{}, errors.New("parallel: Repartition after Close")
	}
	return d.migrate(newPart)
}

// maybeRebalance runs at the cycle boundary, on the quiescent machine:
// fold the turns' per-bucket activation counts into the balancer, ask
// it (or the ForceMigrate test hook) for a new assignment, and migrate.
// Migration happens strictly between cycles, so the match semantics of
// neighbouring cycles are untouched — only where state lives changes.
func (d *Driver) maybeRebalance(cycle int32) error {
	var newPart sched.Partition
	forced := false
	if d.opts.ForceMigrate != nil {
		newPart = d.opts.ForceMigrate(int(cycle))
		forced = newPart != nil
	}
	var imbalance float64
	if d.balancer != nil && !forced {
		// Quiescent: every turn's bucketLoad writes happened before its
		// deregistration, which the cycle's wait observed.
		for b, n := range d.bucketLoad {
			if n > 0 {
				d.balancer.Observe(b, n)
				d.bucketLoad[b] = 0
			}
		}
		imbalance = d.balancer.Imbalance()
		if np, ok := d.balancer.EndCycle(); ok {
			newPart = np
		}
	}
	if newPart == nil {
		return nil
	}
	stats, err := d.migrate(newPart)
	if err != nil {
		// The carrier was vetted at construction and the partition shape
		// in migrate; an error here means a ForceMigrate hook returned a
		// bad partition or the carrier lost a message.
		return err
	}
	if forced && d.balancer != nil {
		// A forced move invalidates the balancer's notion of the
		// current assignment; restart it from the imposed partition.
		d.balancer = sched.NewBalancer(d.opts.Rebalance, newPart, d.opts.Workers)
	}
	d.rebSeries.Append(float64(cycle), imbalance,
		float64(stats.BucketsMoved), float64(stats.EntriesMoved), float64(stats.Messages))
	return nil
}

// migrate executes a bucket migration on the quiescent machine: every
// worker gets a MsgMigrateOut carrying the new partition and the
// buckets it loses, each step adopts the partition and extracts its
// moved buckets, its carrier ships their contents to the new owners
// (Shipping), and the barrier is the cycle's (settle). Control-side
// routing switches when d.opts.Partition is replaced at the end.
func (d *Driver) migrate(newPart sched.Partition) (MigrationStats, error) {
	if len(newPart) != d.opts.NBuckets {
		return MigrationStats{}, fmt.Errorf("parallel: partition covers %d buckets, want %d", len(newPart), d.opts.NBuckets)
	}
	if err := newPart.Validate(d.opts.Workers); err != nil {
		return MigrationStats{}, err
	}

	// Plan the moves per losing worker, sorted by bucket (the loop
	// ascends buckets) for reproducible message counts.
	orders := make([]MigrateOrder, d.opts.Workers)
	var stats MigrationStats
	for b := range newPart {
		oldOwner, newOwner := d.opts.Partition[b], newPart[b]
		if oldOwner == newOwner {
			continue
		}
		orders[oldOwner].Moves = append(orders[oldOwner].Moves, BucketMove{Bucket: int32(b), NewOwner: int32(newOwner)})
		stats.BucketsMoved++
	}

	entries0, msgs0 := d.entriesMoved.Load(), d.migMsgs.Load()
	ts, cycle := d.Now(), d.curCycle.Load()
	d.ctlTrack.Mark(obs.EvMigrateBegin, ts, cycle, 0, 0)
	d.Sending(d.controlTrack(), d.opts.Workers)
	for w := range orders {
		orders[w].Part = newPart
		d.runs[w] = append(d.runs[w], Message{Kind: MsgMigrateOut, Order: &orders[w]})
	}
	if err := d.deliverRuns(ts, cycle); err != nil {
		return MigrationStats{}, err
	}
	if err := d.settle(); err != nil {
		return MigrationStats{}, err
	}
	stats.EntriesMoved = int(d.entriesMoved.Load() - entries0)
	stats.Messages = int(d.migMsgs.Load() - msgs0)
	d.ctlTrack.Mark(obs.EvMigrateEnd, d.Now(), d.curCycle.Load(), int32(stats.BucketsMoved), int32(stats.EntriesMoved))
	d.opts.Partition = newPart
	d.migrations.Add(1)
	d.bucketsMoved.Add(int64(stats.BucketsMoved))
	return stats, nil
}

// RebalanceStats reports the cumulative cost of every migration the
// driver executed: migration events, bucket pairs moved, and entries
// shipped.
func (d *Driver) RebalanceStats() (migrations, bucketsMoved, entriesMoved int64) {
	return d.migrations.Load(), d.bucketsMoved.Load(), d.entriesMoved.Load()
}
