package fleet

import (
	"fmt"
	"path/filepath"

	"sublinear/internal/journal"
	"sublinear/internal/simsvc"
)

// Journal is the coordinator's completion log: one internal/journal
// file per plan, named by the plan's content hash, holding a header
// line followed by one line per completed shard. A killed sweep
// resumes by replaying the journal and dispatching only the missing
// shards; because shard results are deterministic in the spec, replayed
// entries are exact, not approximations (the client-side complement of
// simd's server-side result cache). Replay is idempotent: duplicate
// records for a shard resolve last-wins, and a torn final line from a
// kill mid-append is dropped.
type Journal struct {
	path string
	log  *journal.Log[journalEntry]
}

type journalHeader struct {
	Format string `json:"format"`
	Plan   string `json:"plan"`
	Kind   string `json:"kind"`
	Name   string `json:"name,omitempty"`
	Shards int    `json:"shards"`
}

type journalEntry struct {
	Shard  int               `json:"shard"`
	Result *simsvc.JobResult `json:"result"`
}

const journalFormat = "fleet-journal-v1"

// JournalPath returns the journal file a plan maps to under dir.
func JournalPath(dir string, p *Plan) string {
	return filepath.Join(dir, "fleet-"+p.Hash[:16]+".jsonl")
}

// OpenJournal opens (or creates) the journal of a plan under dir and
// returns it together with the completed shard results it already
// holds. The file is rewritten with one record per completed shard, so
// a torn tail or duplicate records do not survive the open.
func OpenJournal(dir string, p *Plan) (*Journal, map[int]*simsvc.JobResult, error) {
	path := JournalPath(dir, p)
	done := make(map[int]*simsvc.JobResult)
	header := journalHeader{
		Format: journalFormat, Plan: p.Hash,
		Kind: p.Workload.Kind, Name: p.Workload.Sweep.Name,
		Shards: len(p.Shards),
	}
	log, err := journal.Open(path, header, func(h journalHeader, recs []journalEntry) ([]journalEntry, error) {
		if h.Format != journalFormat {
			return nil, fmt.Errorf("fleet: %s is not a fleet journal", path)
		}
		if h.Plan != p.Hash {
			return nil, fmt.Errorf("fleet: journal %s belongs to plan %.16s, not %.16s", path, h.Plan, p.Hash)
		}
		for _, e := range recs {
			// Last wins. Journals written before the rewrite-on-open
			// can hold duplicates: a predecessor stalled mid-fsync
			// could land its record after a successor re-ran the
			// shard. Determinism makes them byte-identical in practice.
			if e.Result != nil && e.Shard >= 0 && e.Shard < len(p.Shards) {
				done[e.Shard] = e.Result
			}
		}
		var keep []journalEntry
		for shard := range p.Shards {
			if res := done[shard]; res != nil {
				keep = append(keep, journalEntry{Shard: shard, Result: res})
			}
		}
		return keep, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return &Journal{path: path, log: log}, done, nil
}

// Record appends one completed shard. The line is written and synced
// before Record returns, so a kill immediately afterwards loses no
// completed work. After a failed write or sync every later Record
// fails too.
func (j *Journal) Record(shard int, res *simsvc.JobResult) error {
	return j.log.Append(journalEntry{Shard: shard, Result: res})
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// Close closes the journal file.
func (j *Journal) Close() error { return j.log.Close() }
