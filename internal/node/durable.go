package node

import (
	"errors"
	"fmt"
	"time"

	"itscs/internal/fault"
	"itscs/internal/mcs"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
	"itscs/internal/wal"
)

// Recovery summarizes what startup restored; it is reported once in the
// log and permanently under /metrics and /status.
type Recovery struct {
	CheckpointIndex    uint64  `json:"checkpoint_index"`
	CheckpointsSkipped int     `json:"checkpoints_skipped_corrupt"`
	Fleets             int     `json:"fleets"`
	LogRecords         uint64  `json:"log_records"`
	ReplayedRecords    uint64  `json:"replayed_records"`
	ReplayRejected     uint64  `json:"replay_rejected"`
	DurationS          float64 `json:"duration_s"`
}

// CheckpointStats snapshots the checkpointer's counters for /metrics.
type CheckpointStats struct {
	Written   uint64 `json:"written"`
	Errors    uint64 `json:"errors"`
	LastError string `json:"last_error,omitempty"`
	// LastUnixMicro is when the newest checkpoint finished (0 before the
	// first): the recency signal /status pairs with the WAL's, bounding how
	// much log a restart would replay.
	LastUnixMicro int64 `json:"last_unix_us,omitempty"`
}

// Recover rebuilds a fresh engine (and ledger, when non-nil) from dir: it
// restores the newest readable checkpoint, read through fsys, then replays
// the log tail from that checkpoint's index. A directory without a usable
// checkpoint resets the ledger and replays the whole log. Replay
// rejections (late or duplicate reports below the checkpoint's horizon)
// are expected and counted, not errors. On error the engine may hold a
// half-restored state; the caller aborts it.
func Recover(fsys fault.FS, dir string, log *wal.Log, engine *pipeline.Engine, ledger *reputation.Ledger) (*Recovery, error) {
	began := time.Now()
	info := &Recovery{LogRecords: log.AppendedIndex()}
	ck, skipped, err := wal.LatestCheckpointFS(fsys, dir)
	info.CheckpointsSkipped = skipped
	var blob []byte
	switch {
	case err == nil:
		if rerr := engine.Restore(ck); rerr != nil {
			return nil, fmt.Errorf("restore checkpoint: %w", rerr)
		}
		blob = ck.Reputation
		info.CheckpointIndex = ck.LogIndex
		info.Fleets = len(ck.Shards)
	case errors.Is(err, wal.ErrNoCheckpoint):
		// Cold directory or checkpoints all corrupt: replay everything.
	default:
		return nil, err
	}
	if ledger != nil {
		if rerr := ledger.Restore(blob); rerr != nil {
			return nil, fmt.Errorf("restore reputation ledger: %w", rerr)
		}
	}
	replayed, err := log.Replay(info.CheckpointIndex, func(_ uint64, r mcs.Report) error {
		if engine.Replay(r) != nil {
			info.ReplayRejected++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("replay log: %w", err)
	}
	info.ReplayedRecords = replayed
	info.DurationS = time.Since(began).Seconds()
	return info, nil
}

// Checkpoint snapshots the engine, adds the ledger's blob (when non-nil),
// writes the checkpoint into dir through fsys, keeps the two newest
// checkpoints and compacts the log segments wholly behind the new one. It
// stops at the first failure.
func Checkpoint(fsys fault.FS, dir string, log *wal.Log, engine *pipeline.Engine, ledger *reputation.Ledger) error {
	ck, err := engine.Checkpoint()
	if err != nil {
		return err
	}
	if ledger != nil {
		// Checkpoint drained the engine first, so every window the snapshot
		// covers has already been folded (OnResult fires before the window
		// counts as processed) and the blob is consistent with the shards.
		if ck.Reputation, err = ledger.MarshalBinary(); err != nil {
			return err
		}
	}
	if _, err := wal.WriteCheckpointFS(fsys, dir, ck); err != nil {
		return err
	}
	if _, err := wal.PruneCheckpointsFS(fsys, dir, 2); err != nil {
		return err
	}
	_, err = log.Compact(ck.LogIndex)
	return err
}
