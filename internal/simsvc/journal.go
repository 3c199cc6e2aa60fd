package simsvc

import (
	"fmt"

	"sublinear/internal/journal"
)

// jobJournal is the daemon's durability log, an internal/journal file
// like the coordinator journal in internal/fleet/journal.go. Two record
// kinds exist — "submit" (a job was admitted: ID, tenant, normalized
// spec) and "done" (a job finished: terminal state, cache key, result).
// A killed daemon restarts by replaying the log: jobs with a submit but
// no done record re-enter the queue under their original IDs (in-flight
// work is indistinguishable from queued work after a crash, and
// deterministic engines make the re-run an exact replay), and
// successful done records re-warm the result cache. The file is
// compacted on every open down to the records that still matter.
//
// Write paths have different durability needs and pay accordingly:
// submit records are fsync'd before the submission is acknowledged
// (one fsync per HTTP request — batched for /v1/shards, so a 256-spec
// batch costs one sync), while done records are group-committed by a
// background flusher that coalesces bursts into one write+sync. A crash
// in the flusher window loses only done records, which replay as
// pending and re-run to the same bytes.
type jobJournal struct {
	log     *journal.Log[jobRecord]
	flushCh chan struct{}
	stopCh  chan struct{}
	doneCh  chan struct{}
}

const jobJournalFormat = "simd-journal-v1"

type jobJournalHeader struct {
	Format string `json:"format"`
}

// jobRecord is one journal line after the header.
type jobRecord struct {
	// Op is "submit" or "done".
	Op     string   `json:"op"`
	ID     string   `json:"id"`
	Tenant string   `json:"tenant,omitempty"`
	Spec   *JobSpec `json:"spec,omitempty"` // submit and done records
	// Done records: the terminal state, the cache key, and (on success)
	// the result, so replay re-warms the cache without re-running — and
	// the spec rides along so the finished job itself is resurrected
	// under its original ID for clients still polling it.
	Key    string     `json:"key,omitempty"`
	State  string     `json:"state,omitempty"`
	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
}

// journalReplay is what openJobJournal recovered from the log.
type journalReplay struct {
	// Pending are admitted jobs with no terminal record, in submission
	// order — the restart queue.
	Pending []jobRecord
	// Done are successful terminal records in log order (last-wins per
	// key when the cache replays them).
	Done []jobRecord
	// MaxSeq is the highest numeric job ID seen, so the restarted
	// daemon's ID sequence cannot collide with journaled IDs.
	MaxSeq int64
}

// openJobJournal opens (or creates) the journal at path, replays it,
// compacts it, and leaves it open for appending. keepDone bounds the
// successful records retained by compaction (the cache-warm set);
// failed jobs are dropped at compaction — their submissions were
// acknowledged and answered, and nothing would replay them.
func openJobJournal(path string, keepDone int) (*jobJournal, *journalReplay, error) {
	replay := &journalReplay{}
	header := jobJournalHeader{Format: jobJournalFormat}
	log, err := journal.Open(path, header, func(h jobJournalHeader, recs []jobRecord) ([]jobRecord, error) {
		if h.Format != jobJournalFormat {
			return nil, fmt.Errorf("simsvc: %s is not a simd job journal", path)
		}
		replay.load(recs)
		if len(replay.Done) > keepDone {
			replay.Done = replay.Done[len(replay.Done)-keepDone:]
		}
		return append(append([]jobRecord(nil), replay.Done...), replay.Pending...), nil
	})
	if err != nil {
		return nil, nil, err
	}
	j := &jobJournal{
		log:     log,
		flushCh: make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	go j.flusher()
	return j, replay, nil
}

// load folds the replayed records into the restart state.
func (r *journalReplay) load(recs []jobRecord) {
	submits := map[string]jobRecord{}
	var order []string
	terminal := map[string]bool{}
	for _, rec := range recs {
		switch rec.Op {
		case "submit":
			if rec.Spec == nil || rec.ID == "" {
				continue
			}
			if _, seen := submits[rec.ID]; !seen {
				order = append(order, rec.ID)
			}
			submits[rec.ID] = rec // last wins
			var seq int64
			if _, err := fmt.Sscanf(rec.ID, "j%d", &seq); err == nil && seq > r.MaxSeq {
				r.MaxSeq = seq
			}
		case "done":
			terminal[rec.ID] = true
			if rec.State == StateDone && rec.Result != nil && rec.Key != "" {
				r.Done = append(r.Done, rec)
			}
		}
	}
	for _, id := range order {
		if !terminal[id] {
			r.Pending = append(r.Pending, submits[id])
		}
	}
}

// appendSubmits durably records a batch of admissions: one write, one
// fsync, however many records — the /v1/shards batch pays for a single
// sync. It must return before the submissions are acknowledged.
func (j *jobJournal) appendSubmits(recs []jobRecord) error {
	return j.log.Append(recs...)
}

// recordDone enqueues a terminal record for the group-commit flusher.
// Loss window: a crash before the flush replays the job as pending and
// re-runs it deterministically — durability is traded for one coalesced
// fsync per burst instead of one per completion.
//
// Buffer encodes the record first and then waits on the log's mutex,
// which the flusher holds across its write+fsync. That wait is
// deliberate: it paces finishing workers to the disk. A variant with a
// separate buffer lock that encoded in the flusher raised svc-backlog's
// ops_per_s 1.59x (3864 → 6127) but its latency_p50 2.6x (8.0 → 20.7
// ms), worse in 6 of 6 alternating 20 s pairs (seed 1, shared 2-vCPU
// box, go1.24.0).
func (j *jobJournal) recordDone(rec jobRecord) {
	if j.log.Buffer(rec) != nil {
		return
	}
	select {
	case j.flushCh <- struct{}{}:
	default: // a flush is already scheduled; it will pick this record up
	}
}

// flusher drains buffered done records: every wakeup commits the buffer
// with a single write+sync, so N completions racing in cost one sync,
// not N. Close flushes what is left after it stops.
func (j *jobJournal) flusher() {
	defer close(j.doneCh)
	for {
		select {
		case <-j.flushCh:
			// A failure is sticky: the next appendSubmits and close
			// report it.
			_ = j.log.Flush()
		case <-j.stopCh:
			return
		}
	}
}

// close flushes outstanding done records and closes the file.
func (j *jobJournal) close() error {
	close(j.stopCh)
	<-j.doneCh
	return j.log.Close()
}
